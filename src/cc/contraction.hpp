// Contraction-based CC ("hook and contract", in the lineage of
// Hirschberg et al. and Blelloch's work-efficient formulations) — the
// third classic parallel CC family alongside tree-hooking (SV/Afforest)
// and traversal (BFS/LP), included for baseline completeness.
//
// Each round: (1) every vertex hooks onto its minimum neighbor if that
// neighbor is smaller (star formation), (2) hooks are compressed to
// roots, (3) the graph is contracted to the quotient over roots —
// dropping intra-component edges — and the next round runs on the
// (geometrically smaller) quotient.  O(log V) rounds; each round costs
// O(V + E) including the rebuild, so total work is O((V + E) log V) —
// more than Afforest but with strong theoretical guarantees and no
// reliance on topology.
#pragma once

#include <cstdint>

#include "cc/afforest.hpp"
#include "cc/common.hpp"
#include "cc/guards.hpp"
#include "graph/builder.hpp"
#include "graph/csr_graph.hpp"
#include "graph/edge_list.hpp"
#include "util/parallel.hpp"

namespace afforest {

template <typename NodeID_>
ComponentLabels<NodeID_> contraction_cc(const CSRGraph<NodeID_>& g,
                                        std::int64_t* out_rounds = nullptr) {
  const std::int64_t n = g.num_nodes();
  // Global labels: comp[v] is v's current representative in the ORIGINAL
  // id space; quotient rounds refine it.
  ComponentLabels<NodeID_> comp = identity_labels<NodeID_>(n);

  // Current quotient edge set, in original-id space, deduplicated lazily.
  EdgeList<NodeID_> edges = lower_edges(g);

  // Every round merges at least one pair while edges remain (a surviving
  // edge has distinct representatives, and the next hook pass points one
  // at the other), so rounds ≤ |V|; the guard turns a stall — e.g. a race
  // reintroduced into the hook pass — into a diagnosable error instead of
  // a livelock.  This fixpoint loop predates the guard discipline and was
  // the one PR 2 missed; afforest-lint's L2 rule flagged it.
  const std::int64_t ceiling = iteration_ceiling(n);
  std::int64_t rounds = 0;
  while (!edges.empty()) {
    ++rounds;
    check_convergence_guard("contraction", rounds, ceiling);
    // (1) Hook: every endpoint pair tries to point the larger label at the
    // smaller one.  atomic_fetch_min keeps this a proper min over all
    // incident edges under parallelism.
    const std::int64_t m = static_cast<std::int64_t>(edges.size());
#pragma omp parallel for schedule(static)
    for (std::int64_t i = 0; i < m; ++i) {
      const auto [u, v] = edges[i];
      if (u < v)
        atomic_fetch_min(comp[v], u);
      else
        atomic_fetch_min(comp[u], v);
    }
    // (2) Compress hook chains to roots.
    compress_all(comp);
    // (3) Contract: keep only edges whose endpoints still differ, mapped
    // to their representatives.
    EdgeList<NodeID_> next;
#pragma omp parallel
    {
      EdgeList<NodeID_> local;
#pragma omp for schedule(static) nowait
      for (std::int64_t i = 0; i < m; ++i) {
        const NodeID_ cu = comp[edges[i].u];  // NOLINT(afforest-plain-shared-access): comp is quiescent here, hooks and compress finished before this region
        const NodeID_ cv = comp[edges[i].v];  // NOLINT(afforest-plain-shared-access): comp is quiescent here, hooks and compress finished before this region
        if (cu != cv) local.push_back({cu, cv});
      }
#pragma omp critical(contraction_merge)
      for (const auto& e : local) next.push_back(e);
    }
    edges = std::move(next);
  }
  if (out_rounds != nullptr) *out_rounds = rounds;
  return comp;
}

}  // namespace afforest
