// Rem's union-find algorithm — a classic high-performance disjoint-set
// variant, included as an additional comparator in the spirit of the
// paper's related work ([4]: a survey of CC algorithm families; [10]:
// CAS-based hooking, which Afforest's link adopts).
//
// Rem's insight: walk BOTH parent chains simultaneously, always advancing
// from the higher root, splicing the lower-parent pointer as you go
// ("interleaved find with path splicing").  The serial version is among
// the fastest sequential CC codes; the parallel version (Patwary,
// Blair, Manne) replaces the splice with a CAS and retries on failure.
// That CAS loop is rem_splice in afforest.hpp, Afforest's default link
// choice, so rem_cc_parallel is the same primitive without sampling or
// skipping.
//
// Like link, both maintain π(x) ≤ x, so final labels (after full
// compression) are component minima.  On symmetric storage each unordered
// edge is united once, from its lower endpoint; on directed storage every
// stored arc is united, so labels are weakly connected components.
#pragma once

#include <cstdint>

#include "cc/afforest.hpp"
#include "cc/common.hpp"
#include "graph/csr_graph.hpp"
#include "util/parallel.hpp"

namespace afforest {

/// Serial Rem union: returns true if the edge merged two sets.
template <typename NodeID_>
bool rem_unite(NodeID_ u, NodeID_ v, pvector<NodeID_>& parent) {
  NodeID_ r_u = u;
  NodeID_ r_v = v;
  // lint: bounded(each splice strictly descends one of two finite acyclic parent chains)
  while (parent[r_u] != parent[r_v]) {
    if (parent[r_u] > parent[r_v]) {
      if (r_u == parent[r_u]) {  // r_u is a root: hook it
        parent[r_u] = parent[r_v];
        return true;
      }
      const NodeID_ next = parent[r_u];
      parent[r_u] = parent[r_v];  // splice
      r_u = next;
    } else {
      if (r_v == parent[r_v]) {
        parent[r_v] = parent[r_u];
        return true;
      }
      const NodeID_ next = parent[r_v];
      parent[r_v] = parent[r_u];  // splice
      r_v = next;
    }
  }
  return false;
}

/// Serial Rem CC over a CSR graph.
template <typename NodeID_>
ComponentLabels<NodeID_> rem_cc(const CSRGraph<NodeID_>& g) {
  const std::int64_t n = g.num_nodes();
  const bool all_arcs = g.directed();
  auto parent = identity_labels<NodeID_>(n);
  for (std::int64_t u = 0; u < n; ++u)
    for (NodeID_ v : g.out_neigh(static_cast<NodeID_>(u)))
      if (all_arcs || static_cast<NodeID_>(u) < v)
        rem_unite(static_cast<NodeID_>(u), v, parent);
  compress_all(parent);
  return parent;
}

/// Parallel Rem CC: rem_splice, Afforest's default link, over each edge
/// once, then one compress_all.
template <typename NodeID_>
ComponentLabels<NodeID_> rem_cc_parallel(const CSRGraph<NodeID_>& g) {
  const std::int64_t n = g.num_nodes();
  const bool all_arcs = g.directed();
  auto parent = identity_labels<NodeID_>(n);
  select_probe(TelemetryProbe{}, [&](auto probe) {
#pragma omp parallel for schedule(dynamic, 4096)
    for (std::int64_t u = 0; u < n; ++u)
      for (NodeID_ v : g.out_neigh(static_cast<NodeID_>(u)))
        if (all_arcs || static_cast<NodeID_>(u) < v)
          rem_splice(static_cast<NodeID_>(u), v, parent, probe);
    compress_all(parent, probe);
  });
  return parent;
}

}  // namespace afforest
