// Vertex reordering utilities.
//
// Afforest's Invariant 1 (π(x) ≤ x) ties tree roots to vertex INDICES, so
// the numbering of vertices is not performance-neutral: hub indices decide
// how long link's root walks are, and the giant component's root is its
// minimum id.  These helpers relabel a graph under a permutation so the
// ordering ablation (bench_ordering) can quantify that sensitivity, and so
// users can normalize datasets with pathological orderings.
#pragma once

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <stdexcept>

#include "graph/builder.hpp"
#include "graph/csr_graph.hpp"
#include "util/pvector.hpp"
#include "util/rng.hpp"

namespace afforest {

/// A bijection old-id -> new-id over [0, n).
template <typename NodeID_>
using Permutation = pvector<NodeID_>;

/// Uniformly random permutation (Fisher–Yates, seeded).
template <typename NodeID_>
[[nodiscard]] Permutation<NodeID_> random_permutation(std::int64_t n,
                                                      std::uint64_t seed) {
  Permutation<NodeID_> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), NodeID_{0});
  Xoshiro256 rng(seed);
  for (std::int64_t i = n - 1; i > 0; --i) {
    const auto j = static_cast<std::int64_t>(
        rng.next_bounded(static_cast<std::uint64_t>(i + 1)));
    std::swap(perm[i], perm[j]);
  }
  return perm;
}

/// Permutation assigning the LOWEST new ids to the highest-degree vertices
/// ("hubs-first").  Under Invariant 1 hubs then win every hook, which is
/// the friendly ordering for link's root walks.
template <typename NodeID_>
[[nodiscard]] Permutation<NodeID_> degree_descending_permutation(
    const CSRGraph<NodeID_>& g) {
  const std::int64_t n = g.num_nodes();
  pvector<NodeID_> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), NodeID_{0});
  std::sort(order.begin(), order.end(), [&](NodeID_ a, NodeID_ b) {
    const auto da = g.out_degree(a), db = g.out_degree(b);
    return da != db ? da > db : a < b;
  });
  Permutation<NodeID_> perm(static_cast<std::size_t>(n));
  for (std::int64_t rank = 0; rank < n; ++rank)
    perm[order[rank]] = static_cast<NodeID_>(rank);
  return perm;
}

/// The reverse: hubs get the HIGHEST ids (the §V-A adversarial flavor).
template <typename NodeID_>
[[nodiscard]] Permutation<NodeID_> degree_ascending_permutation(
    const CSRGraph<NodeID_>& g) {
  auto perm = degree_descending_permutation(g);
  const auto n = static_cast<NodeID_>(g.num_nodes());
  for (auto& p : perm) p = static_cast<NodeID_>(n - 1 - p);
  return perm;
}

/// True iff perm is a bijection over [0, n).
template <typename NodeID_>
[[nodiscard]] bool is_permutation(const Permutation<NodeID_>& perm) {
  const std::int64_t n = static_cast<std::int64_t>(perm.size());
  pvector<std::uint8_t> seen(static_cast<std::size_t>(n), 0);
  for (NodeID_ p : perm) {
    if (p < 0 || static_cast<std::int64_t>(p) >= n || seen[p]) return false;
    seen[p] = 1;
  }
  return true;
}

/// Rebuilds g with every vertex v renamed to perm[v].
template <typename NodeID_>
[[nodiscard]] CSRGraph<NodeID_> relabel(const CSRGraph<NodeID_>& g,
                                        const Permutation<NodeID_>& perm) {
  if (static_cast<std::int64_t>(perm.size()) != g.num_nodes())
    throw std::invalid_argument("permutation size != num_nodes");
  // Every arc of a directed graph; each edge of a symmetric one once (u < v).
  EdgeList<NodeID_> edges;
  edges.reserve(static_cast<std::size_t>(g.num_edges()));
  for (std::int64_t u = 0; u < g.num_nodes(); ++u)
    for (NodeID_ v : g.out_neigh(static_cast<NodeID_>(u)))
      if (g.directed() || static_cast<NodeID_>(u) < v)
        edges.push_back({perm[u], perm[v]});
  BuilderOptions opts;
  opts.symmetrize = !g.directed();
  return Builder<NodeID_>(opts).build(edges, g.num_nodes());
}

}  // namespace afforest
