// Edge-list representation: the exchange format between generators, file
// I/O, and the CSR builder, and the way back from a symmetric CSR graph.
#pragma once

#include <cstdint>

#include "graph/csr_graph.hpp"
#include "util/pvector.hpp"

namespace afforest {

/// A directed edge (u -> v).  For undirected graphs the builder symmetrizes,
/// so generators only need to emit each unordered edge once.
template <typename NodeID_>
struct EdgePair {
  NodeID_ u;
  NodeID_ v;

  friend bool operator==(const EdgePair& a, const EdgePair& b) {
    return a.u == b.u && a.v == b.v;
  }
  friend bool operator<(const EdgePair& a, const EdgePair& b) {
    return a.u != b.u ? a.u < b.u : a.v < b.v;
  }
};

template <typename NodeID_>
using EdgeList = pvector<EdgePair<NodeID_>>;

/// Every edge of a symmetric graph once, as (u, v) with u < v, in row order.
template <typename NodeID_>
[[nodiscard]] EdgeList<NodeID_> lower_edges(const CSRGraph<NodeID_>& g) {
  EdgeList<NodeID_> edges;
  edges.reserve(static_cast<std::size_t>(g.num_edges()));
  for (std::int64_t u = 0; u < g.num_nodes(); ++u)
    for (NodeID_ v : g.out_neigh(static_cast<NodeID_>(u)))
      if (static_cast<NodeID_>(u) < v)
        edges.push_back({static_cast<NodeID_>(u), v});
  return edges;
}

}  // namespace afforest
