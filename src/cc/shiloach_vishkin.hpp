// Shiloach–Vishkin (SV) baseline — the tree-hooking algorithm Afforest
// extends (paper Fig 1, as implemented by the GAP Benchmark Suite).
//
// Each iteration performs a hook pass over ALL edges (only root-level hooks
// succeed) followed by a shortcut (pointer-jumping) pass, repeating until
// no hook fires.  Work is O(iterations × |E|) — the redundancy Afforest
// eliminates.
//
// One fixpoint, detail::sv_fixpoint, runs all three variants:
//   shiloach_vishkin          — CSR rows (vertex-centric), the GAP code
//   shiloach_vishkin_original — CSR rows plus the 1982 stagnant-root step
//   shiloach_vishkin_edgelist — explicit edge array (Soman et al.'s GPU
//                               formulation, ported to the CPU substrate;
//                               see DESIGN.md §3)
// It reports to afforest_cc's probe (cc/afforest.hpp), so Table II's SV
// columns and Fig 7's SV panel are probes on it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <utility>

#include "analysis/telemetry.hpp"
#include "cc/afforest.hpp"
#include "cc/common.hpp"
#include "cc/guards.hpp"
#include "graph/csr_graph.hpp"
#include "graph/edge_list.hpp"
#include "util/parallel.hpp"

namespace afforest {

/// One SV hook attempt over the edge (u, v): if the endpoints' current
/// labels differ and the higher label is (still) a root, hook it onto the
/// lower.  Returns true iff the hook fired; `joined`, when given, then
/// receives the hooked root and the label it now points at.  All label
/// reads are atomic — they race with concurrent hooks' atomic_stores, and a
/// mixed plain/atomic access is UB even when any observed value would do.
/// A lost update remains benign, as in the original PRAM formulation: it
/// only delays convergence by an iteration.  Shared by all SV variants and
/// driven directly from std::threads in tests/fuzz/schedule_stress_test.cpp
/// so TSan can observe its access history (libgomp is not instrumented).
// lint: parallel-context
template <typename NodeID_, typename Probe = TelemetryProbe>
bool sv_hook_edge(NodeID_ u, NodeID_ v, pvector<NodeID_>& comp,
                  Probe probe = {},
                  std::pair<NodeID_, NodeID_>* joined = nullptr) {
  probe.read(u);
  const NodeID_ comp_u = atomic_load(comp[u]);
  probe.read(v);
  const NodeID_ comp_v = atomic_load(comp[v]);
  if (comp_u == comp_v) return false;
  const NodeID_ high_comp = std::max(comp_u, comp_v);
  const NodeID_ low_comp = std::min(comp_u, comp_v);
  probe.read(high_comp);
  if (high_comp != atomic_load(comp[high_comp])) return false;
  probe.write(high_comp);
  atomic_store(comp[high_comp], low_comp);
  if (joined != nullptr) *joined = {high_comp, low_comp};
  return true;
}

namespace detail {

/// SV's hook-and-shortcut fixpoint over `edges`, a CSRGraph (the hook pass
/// runs over vertices) or an EdgeList (over edges).  Stagnant adds the 1982
/// stagnant-root pass, which walks CSR rows, before the shortcut.
/// `algorithm` names the entry point in a ConvergenceError.
template <bool Stagnant, typename NodeID_, typename Edges, typename Probe>
ComponentLabels<NodeID_> sv_fixpoint(const Edges& edges, std::int64_t n,
                                     const char* algorithm,
                                     std::int64_t* out_iterations,
                                     Probe probe) {
  constexpr bool kRows = std::is_same_v<Edges, CSRGraph<NodeID_>>;
  static_assert(kRows || !Stagnant, "the stagnant-root pass walks CSR rows");
  ComponentLabels<NodeID_> comp = identity_labels<NodeID_>(n);
  // The roots some hook joined this iteration, for the stagnant pass.
  pvector<std::uint8_t> changed(static_cast<std::size_t>(Stagnant ? n : 0));
  const std::int64_t ceiling = iteration_ceiling(n);
  std::int64_t num_iter = 0;
  std::int64_t hooks = 1;
  while (hooks != 0) {
    ++num_iter;
    check_convergence_guard(algorithm, num_iter, ceiling);
    const auto iteration = static_cast<std::int32_t>(num_iter - 1);
    hooks = 0;
    if constexpr (Stagnant) changed.fill(0);
    probe.phase(AfforestPhase::kSVHook, iteration, comp);
    {
      const telemetry::ScopedPhase phase("sv.hook");
      // A reduction rather than a shared counter: unsynchronized stores to
      // a shared variable from inside the region are a write-write race.
      if constexpr (kRows) {
#pragma omp parallel for reduction(+ : hooks) schedule(dynamic, 16384)
        for (std::int64_t u = 0; u < n; ++u) {
          for (NodeID_ v : edges.out_neigh(static_cast<NodeID_>(u))) {
            std::pair<NodeID_, NodeID_> joined;
            if (!sv_hook_edge(static_cast<NodeID_>(u), v, comp, probe,
                              Stagnant ? &joined : nullptr))
              continue;
            ++hooks;
            if constexpr (Stagnant) {
              atomic_store(changed[joined.first], std::uint8_t{1});
              atomic_store(changed[joined.second], std::uint8_t{1});
            }
          }
        }
      } else {
        const std::int64_t ne = static_cast<std::int64_t>(edges.size());
#pragma omp parallel for reduction(+ : hooks) schedule(static)
        for (std::int64_t i = 0; i < ne; ++i)
          if (sv_hook_edge(edges[i].u, edges[i].v, comp, probe)) ++hooks;
      }
    }
    if constexpr (Stagnant) {
      probe.phase(AfforestPhase::kSVStagnant, iteration, comp);
      const telemetry::ScopedPhase phase("sv.stagnant");
      // Stagnant-root hook: a root untouched above may hook onto ANY
      // neighboring tree (even a higher-labeled one would break Invariant
      // 1, so we keep the lower-only rule but drop the direction condition
      // on which endpoint initiates — sufficient to merge stalled stars).
#pragma omp parallel for reduction(+ : hooks) schedule(dynamic, 16384)
      for (std::int64_t u = 0; u < n; ++u) {
        probe.read(u);
        const NodeID_ comp_u = atomic_load(comp[u]);
        if (atomic_load(changed[comp_u]) != 0) continue;
        for (NodeID_ v : edges.out_neigh(static_cast<NodeID_>(u))) {
          probe.read(v);
          const NodeID_ comp_v = atomic_load(comp[v]);
          if (comp_v >= comp_u) continue;
          probe.read(comp_u);
          if (comp_u != atomic_load(comp[comp_u])) continue;
          probe.write(comp_u);
          atomic_store(comp[comp_u], comp_v);
          ++hooks;
          break;
        }
      }
    }
    probe.phase(AfforestPhase::kSVShortcut, iteration, comp);
    {
      const telemetry::ScopedPhase phase("sv.shortcut");
      // Shortcut = full path compression, Afforest's compress.
      compress_all(comp, probe);
    }
    telemetry::add_iterations(1);
    telemetry::add_sv_hooks_fired(static_cast<std::uint64_t>(hooks));
  }
  if (out_iterations != nullptr) *out_iterations = num_iter;
  return comp;
}

}  // namespace detail

/// CSR-based SV.  If `out_iterations` is non-null it receives the number of
/// hook+shortcut iterations executed (reported in Table II).
template <typename NodeID_, typename Probe = TelemetryProbe>
ComponentLabels<NodeID_> shiloach_vishkin(
    const CSRGraph<NodeID_>& g, std::int64_t* out_iterations = nullptr,
    Probe probe = {}) {
  return select_probe(probe, [&](auto selected) {
    return detail::sv_fixpoint<false, NodeID_>(
        g, g.num_nodes(), "shiloach_vishkin", out_iterations, selected);
  });
}

/// SV with the original 1982 stagnation step (paper §V-A: "an additional
/// step was added at each iteration to avoid such scenarios", which modern
/// implementations omit).  After the conditional hook, any root whose tree
/// was NOT modified this iteration ("stagnant") hooks unconditionally onto
/// any neighbor tree — this is what bounds the original algorithm's
/// iteration count by O(log |V|) even on adversarial inputs.
template <typename NodeID_, typename Probe = TelemetryProbe>
ComponentLabels<NodeID_> shiloach_vishkin_original(
    const CSRGraph<NodeID_>& g, std::int64_t* out_iterations = nullptr,
    Probe probe = {}) {
  return select_probe(probe, [&](auto selected) {
    return detail::sv_fixpoint<true, NodeID_>(g, g.num_nodes(),
                                              "shiloach_vishkin_original",
                                              out_iterations, selected);
  });
}

/// Edge-list SV: identical hooking rule, but iterates a flat edge array.
/// Loads more data per pass (u is explicit per edge) yet every iteration is
/// perfectly regular — the trade-off Soman et al. exploit on GPUs.
template <typename NodeID_, typename Probe = TelemetryProbe>
ComponentLabels<NodeID_> shiloach_vishkin_edgelist(
    const EdgeList<NodeID_>& edges, std::int64_t num_nodes,
    std::int64_t* out_iterations = nullptr, Probe probe = {}) {
  return select_probe(probe, [&](auto selected) {
    return detail::sv_fixpoint<false, NodeID_>(edges, num_nodes,
                                               "shiloach_vishkin_edgelist",
                                               out_iterations, selected);
  });
}

}  // namespace afforest
