// Parallel spanning-forest extraction via Afforest (paper §IV-A).
//
// The paper observes that tree-hooking CC algorithms double as
// spanning-forest algorithms by "tracking the edges contributing to a tree
// merge during the execution".  This file implements that with a probe on
// afforest_cc: link() reports merged = true iff THIS call's CAS performed
// the merge.  Every successful CAS hooks the root of one tree under a
// vertex of a different tree (if l were in h's own tree, Invariant 1 would
// force l ≥ root(h) = h's minimum — contradiction with l < h), so each
// success reduces the tree count by exactly one and the collected
// witnesses form a spanning forest: |V| − C edges, acyclic,
// connectivity-preserving.
#pragma once

#include <cstdint>
#include <vector>

#include "cc/afforest.hpp"
#include "cc/common.hpp"
#include "graph/csr_graph.hpp"
#include "graph/edge_list.hpp"
#include "util/platform.hpp"

namespace afforest {

template <typename NodeID_>
struct ForestResult {
  ComponentLabels<NodeID_> labels;
  EdgeList<NodeID_> forest;  ///< |V| - C witness edges
};

/// Runs afforest_cc's RootHook cell (neighbor rounds + interleaved compress
/// + full remainder; no component skipping, since skipped edges could be
/// the only witnesses for their vertices) and collects the merge witnesses.
template <typename NodeID_>
ForestResult<NodeID_> afforest_spanning_forest(const CSRGraph<NodeID_>& g,
                                               std::int32_t neighbor_rounds = 2) {
  // Appends, per thread, the edge of every union whose own CAS merged two
  // trees, and still reports the union to telemetry.
  struct WitnessProbe : TelemetryProbe {
    std::vector<EdgeList<NodeID_>>* per_thread;

    void linked(NodeID_ u, NodeID_ v, bool merged, std::uint64_t retries,
                std::uint64_t cas_attempts, std::uint64_t cas_failures) const {
      if (merged)
        (*per_thread)[static_cast<std::size_t>(thread_id())].push_back({u, v});
      TelemetryProbe::linked(u, v, merged, retries, cas_attempts,
                             cas_failures);
    }
  };
  AfforestOptions opts;
  opts.sampling = NeighborRounds{neighbor_rounds};
  opts.link = RootHook{};
  opts.skip_largest = false;
  std::vector<EdgeList<NodeID_>> per_thread(
      static_cast<std::size_t>(num_threads()));
  ForestResult<NodeID_> result;
  result.labels =
      afforest_cc(g, opts, nullptr, WitnessProbe{{}, &per_thread});
  for (const auto& t : per_thread)
    for (const auto& e : t) result.forest.push_back(e);
  return result;
}

}  // namespace afforest
