// Parallel spanning-forest extraction via Afforest (paper §IV-A).
//
// The paper observes that tree-hooking CC algorithms double as
// spanning-forest algorithms by "tracking the edges contributing to a tree
// merge during the execution".  This file implements that: link() returns
// true iff THIS call's CAS performed the merge.  Every successful CAS hooks
// the root of one tree under a vertex of a different tree (if l were in
// h's own tree, Invariant 1 would force l ≥ root(h) = h's minimum —
// contradiction with l < h), so each success reduces the tree count by
// exactly one and the collected witnesses form a spanning forest: |V| − C
// edges, acyclic, connectivity-preserving.
#pragma once

#include <cstdint>
#include <vector>

#include "cc/afforest.hpp"
#include "cc/common.hpp"
#include "graph/csr_graph.hpp"
#include "graph/edge_list.hpp"
#include "util/parallel.hpp"
#include "util/platform.hpp"

namespace afforest {

template <typename NodeID_>
struct ForestResult {
  ComponentLabels<NodeID_> labels;
  EdgeList<NodeID_> forest;  ///< |V| - C witness edges
};

/// Runs the Afforest schedule (neighbor rounds + interleaved compress +
/// full remainder; no component skipping, since skipped edges could be the
/// only witnesses for their vertices) and collects the merge witnesses.
template <typename NodeID_>
ForestResult<NodeID_> afforest_spanning_forest(const CSRGraph<NodeID_>& g,
                                               std::int32_t neighbor_rounds = 2) {
  using OffsetT = typename CSRGraph<NodeID_>::OffsetT;
  const std::int64_t n = g.num_nodes();
  ForestResult<NodeID_> result;
  result.labels = identity_labels<NodeID_>(n);
  auto& comp = result.labels;

  std::vector<EdgeList<NodeID_>> per_thread(
      static_cast<std::size_t>(num_threads()));

  const std::int32_t rounds = std::max(std::int32_t{0}, neighbor_rounds);
  for (std::int32_t r = 0; r < rounds; ++r) {
#pragma omp parallel
    {
      auto& local = per_thread[static_cast<std::size_t>(thread_id())];
#pragma omp for schedule(dynamic, 16384)
      for (std::int64_t v = 0; v < n; ++v) {
        if (r < g.out_degree(static_cast<NodeID_>(v))) {
          const NodeID_ w = g.neighbor(static_cast<NodeID_>(v), r);
          if (link(static_cast<NodeID_>(v), w, comp))
            local.push_back({static_cast<NodeID_>(v), w});
        }
      }
    }
    compress_all(comp);
  }

#pragma omp parallel
  {
    auto& local = per_thread[static_cast<std::size_t>(thread_id())];
#pragma omp for schedule(dynamic, 1024)
    for (std::int64_t v = 0; v < n; ++v) {
      const OffsetT deg = g.out_degree(static_cast<NodeID_>(v));
      for (OffsetT k = rounds; k < deg; ++k) {
        const NodeID_ w = g.neighbor(static_cast<NodeID_>(v), k);
        if (link(static_cast<NodeID_>(v), w, comp))
          local.push_back({static_cast<NodeID_>(v), w});
      }
    }
  }
  compress_all(comp);

  std::size_t total = 0;
  for (const auto& t : per_thread) total += t.size();
  result.forest.reserve(total);
  for (const auto& t : per_thread)
    for (const auto& e : t) result.forest.push_back(e);
  return result;
}

}  // namespace afforest
