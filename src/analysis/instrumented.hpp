// Instrumented runs of the CC kernels for the paper's Table II: per-edge
// local iteration counts of Afforest's link loop, outer iteration counts of
// SV, and the maximal component-tree depth each algorithm builds.
//
// Both columns come from one probe, LinkCounter, on the drivers themselves:
// afforest_cc for Afforest and the SV fixpoint (shiloach_vishkin) for SV,
// so Table II observes the code the kernels run.
#pragma once

#include <cstdint>
#include <vector>

#include "cc/afforest.hpp"
#include "cc/common.hpp"
#include "cc/shiloach_vishkin.hpp"
#include "graph/csr_graph.hpp"
#include "util/parallel.hpp"
#include "util/platform.hpp"

namespace afforest {

/// Maximum depth of any parent chain in comp (0 = all self-pointing).
/// Well-defined because Invariant 1 keeps π acyclic.
template <typename NodeID_>
std::int64_t max_tree_depth(const pvector<NodeID_>& comp) {
  const std::int64_t n = static_cast<std::int64_t>(comp.size());
  std::int64_t max_depth = 0;
  // comp is quiescent here (probes run between phases, never concurrently
  // with hooks), so the plain reads cannot race.
#pragma omp parallel for reduction(max : max_depth) schedule(dynamic, 16384)
  for (std::int64_t v = 0; v < n; ++v) {
    std::int64_t depth = 0;
    NodeID_ x = static_cast<NodeID_>(v);
    // lint: bounded(Invariant 1 keeps the parent forest acyclic, so the walk reaches a root)
    while (comp[x] != x) {
      x = comp[x];
      ++depth;
    }
    max_depth = std::max(max_depth, depth);
  }
  return max_depth;
}

/// Counters accumulated over one algorithm run.
struct LinkStats {
  std::int64_t link_calls = 0;        ///< number of link() invocations
  std::int64_t local_iterations = 0;  ///< total iterations of link's loop
  std::int64_t max_tree_depth = 0;    ///< deepest π tree before any compress

  [[nodiscard]] double avg_local_iterations() const {
    return link_calls == 0 ? 0.0
                           : static_cast<double>(local_iterations) /
                                 static_cast<double>(link_calls);
  }
};

/// Table II's counters as a probe on link(), afforest_cc or the SV
/// fixpoint: link calls and link-loop iterations, 1 + retries per call (the
/// first is the "validation" iteration §V-A describes), in per-thread
/// slots, plus the deepest π tree seen just before each compress or SV
/// shortcut.
class LinkCounter {
 public:
  struct Probe : TelemetryProbe {
    LinkCounter* counter;

    void linked(std::int64_t, std::int64_t, bool, std::uint64_t retries,
                std::uint64_t, std::uint64_t) const {
      Slot& slot = counter->slots_[static_cast<std::size_t>(thread_id())];
      ++slot.link_calls;
      slot.local_iterations += 1 + static_cast<std::int64_t>(retries);
    }
    template <typename NodeID_>
    void phase(AfforestPhase which, std::int32_t,
               const pvector<NodeID_>& comp) const {
      if (which == AfforestPhase::kCompress ||
          which == AfforestPhase::kFinalCompress ||
          which == AfforestPhase::kSVShortcut)
        counter->max_depth_ =
            std::max(counter->max_depth_, max_tree_depth(comp));
    }
  };

  LinkCounter() : slots_(static_cast<std::size_t>(num_threads())) {}
  LinkCounter(const LinkCounter&) = delete;  // probes hold its address
  LinkCounter& operator=(const LinkCounter&) = delete;

  [[nodiscard]] Probe probe() { return Probe{{}, this}; }

  [[nodiscard]] LinkStats stats() const {
    LinkStats stats;
    for (const Slot& slot : slots_) {
      stats.link_calls += slot.link_calls;
      stats.local_iterations += slot.local_iterations;
    }
    stats.max_tree_depth = max_depth_;
    return stats;
  }

 private:
  // One thread's partial LinkStats, alone on its cache line.
  struct alignas(kCacheLineBytes) Slot : LinkStats {};
  std::vector<Slot> slots_;
  std::int64_t max_depth_ = 0;
};

/// Afforest with Table II's counters: afforest_cc's RootHook cell with
/// neighbor_rounds rounds and no component skipping (Table II's setup),
/// observed by a LinkCounter.
template <typename NodeID_>
LinkStats afforest_instrumented(const CSRGraph<NodeID_>& g,
                                ComponentLabels<NodeID_>* out_labels = nullptr,
                                std::int32_t neighbor_rounds = 2) {
  AfforestOptions opts;
  opts.sampling = NeighborRounds{neighbor_rounds};
  opts.link = RootHook{};
  opts.skip_largest = false;
  LinkCounter counter;
  auto labels = afforest_cc(g, opts, nullptr, counter.probe());
  if (out_labels != nullptr) *out_labels = std::move(labels);
  return counter.stats();
}

/// SV's Table II counters: iterations, and the deepest π tree seen.
struct SVStats {
  std::int64_t iterations = 0;
  std::int64_t max_tree_depth = 0;
};

/// shiloach_vishkin observed by a LinkCounter.
template <typename NodeID_>
SVStats shiloach_vishkin_instrumented(
    const CSRGraph<NodeID_>& g,
    ComponentLabels<NodeID_>* out_labels = nullptr) {
  LinkCounter counter;
  SVStats stats;
  auto labels = shiloach_vishkin(g, &stats.iterations, counter.probe());
  stats.max_tree_depth = counter.stats().max_tree_depth;
  if (out_labels != nullptr) *out_labels = std::move(labels);
  return stats;
}

}  // namespace afforest
