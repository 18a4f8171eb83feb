// Work accounting for Afforest: how many edges each phase actually
// processed and how many the large-component skip avoided — quantifying
// the §IV-D claim that skipping the giant intermediate component omits the
// bulk of edge traffic.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <utility>
#include <variant>
#include <vector>

#include "cc/afforest.hpp"
#include "cc/common.hpp"
#include "graph/csr_graph.hpp"
#include "util/platform.hpp"

namespace afforest {

struct AfforestWorkStats {
  std::int64_t sampled_edges = 0;   ///< links performed in neighbor rounds
  std::int64_t final_edges = 0;     ///< links performed in the final phase
  std::int64_t skipped_edges = 0;   ///< edges omitted by component skipping
  std::int64_t skipped_vertices = 0;

  [[nodiscard]] std::int64_t total_linked() const {
    return sampled_edges + final_edges;
  }
  /// Fraction of stored edges never touched by link.
  [[nodiscard]] double skip_fraction(std::int64_t stored_edges) const {
    return stored_edges == 0 ? 0.0
                             : static_cast<double>(skipped_edges) /
                                   static_cast<double>(stored_edges);
  }
};

/// The accounting as a probe on afforest_cc, in per-thread slots: unions
/// per phase (sampling, then the final link) and phase 3's skips.
class WorkCounter {
 public:
  struct Probe : TelemetryProbe {
    WorkCounter* counter;

    void linked(std::int64_t, std::int64_t, bool, std::uint64_t,
                std::uint64_t, std::uint64_t) const {
      ++(counter->local().*(counter->linking_));
    }
    bool counts_skips() const { return true; }
    void skipped(std::uint64_t edges, std::uint64_t vertices) const {
      AfforestWorkStats& slot = counter->local();
      slot.skipped_edges += static_cast<std::int64_t>(edges);
      slot.skipped_vertices += static_cast<std::int64_t>(vertices);
    }
    template <typename NodeID_>
    void phase(AfforestPhase which, std::int32_t,
               const pvector<NodeID_>&) const {
      if (which == AfforestPhase::kFinalLink)
        counter->linking_ = &AfforestWorkStats::final_edges;
    }
  };

  WorkCounter() : slots_(static_cast<std::size_t>(num_threads())) {}
  WorkCounter(const WorkCounter&) = delete;  // probes hold its address
  WorkCounter& operator=(const WorkCounter&) = delete;

  [[nodiscard]] Probe probe() { return Probe{{}, this}; }

  [[nodiscard]] AfforestWorkStats stats() const {
    AfforestWorkStats stats;
    for (const Slot& slot : slots_) {
      stats.sampled_edges += slot.sampled_edges;
      stats.final_edges += slot.final_edges;
      stats.skipped_edges += slot.skipped_edges;
      stats.skipped_vertices += slot.skipped_vertices;
    }
    return stats;
  }

 private:
  // One thread's partial AfforestWorkStats, alone on its cache line.
  struct alignas(kCacheLineBytes) Slot : AfforestWorkStats {};
  Slot& local() { return slots_[static_cast<std::size_t>(thread_id())]; }
  std::vector<Slot> slots_;
  // The count a union adds to: sampled_edges until the final link starts.
  std::int64_t AfforestWorkStats::*linking_ = &AfforestWorkStats::sampled_edges;
};

/// Runs afforest_cc observed by a WorkCounter.  NeighborRounds sampling
/// only: phase 3 re-links a uniform sample, so sampled + final + skipped
/// would exceed the stored edges.
template <typename NodeID_>
AfforestWorkStats afforest_with_work_stats(
    const CSRGraph<NodeID_>& g, const AfforestOptions& opts = {},
    ComponentLabels<NodeID_>* out_labels = nullptr) {
  if (!std::holds_alternative<NeighborRounds>(opts.sampling))
    throw std::invalid_argument(
        "afforest_with_work_stats: needs NeighborRounds sampling");
  WorkCounter counter;
  ComponentLabels<NodeID_> labels = afforest_cc(g, opts, nullptr,
                                                counter.probe());
  if (out_labels != nullptr) *out_labels = std::move(labels);
  return counter.stats();
}

}  // namespace afforest
