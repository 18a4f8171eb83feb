// Edge-list representation: the exchange format between generators, file
// I/O, and the CSR builder, and the way back from a symmetric CSR graph.
#pragma once

#include <cstdint>

#include "graph/csr_graph.hpp"
#include "util/parallel.hpp"
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
/// Each row counts its u < v entries, a prefix sum places the rows, and
/// each row fills its own span, so the list is the serial scan's whatever
/// the team size.
template <typename NodeID_>
[[nodiscard]] EdgeList<NodeID_> lower_edges(const CSRGraph<NodeID_>& g) {
  const std::int64_t n = g.num_nodes();
  pvector<std::int64_t> counts(static_cast<std::size_t>(n));
#pragma omp parallel for schedule(dynamic, 1024)
  for (std::int64_t u = 0; u < n; ++u) {
    std::int64_t count = 0;
    for (NodeID_ v : g.out_neigh(static_cast<NodeID_>(u)))
      count += static_cast<NodeID_>(u) < v;
    counts[u] = count;
  }
  const auto offsets = parallel_prefix_sum(counts);
  EdgeList<NodeID_> edges(static_cast<std::size_t>(offsets[n]));
#pragma omp parallel for schedule(dynamic, 1024)
  for (std::int64_t u = 0; u < n; ++u) {
    std::int64_t pos = offsets[u];
    for (NodeID_ v : g.out_neigh(static_cast<NodeID_>(u)))
      if (static_cast<NodeID_>(u) < v)
        edges[pos++] = {static_cast<NodeID_>(u), v};
  }
  return edges;
}

}  // namespace afforest
