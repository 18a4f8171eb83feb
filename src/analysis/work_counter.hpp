// Work accounting for Afforest: how many edges each phase actually
// processed and how many the large-component skip avoided — quantifying
// the §IV-D claim that skipping the giant intermediate component omits the
// bulk of edge traffic.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <variant>

#include "analysis/telemetry.hpp"
#include "cc/afforest.hpp"
#include "cc/common.hpp"
#include "graph/csr_graph.hpp"

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

/// Runs afforest_cc with telemetry armed and reset (as
/// bench::measure_counters does) and reads the counts off its Report:
/// neighbor rounds link Σ min(deg, k) edges, the final phase the rest of
/// link_calls.  NeighborRounds sampling only; builds with telemetry
/// compiled out report only sampled_edges.
template <typename NodeID_>
AfforestWorkStats afforest_with_work_stats(
    const CSRGraph<NodeID_>& g, const AfforestOptions& opts = {},
    ComponentLabels<NodeID_>* out_labels = nullptr) {
  const auto* rounds = std::get_if<NeighborRounds>(&opts.sampling);
  if (rounds == nullptr)
    throw std::invalid_argument(
        "afforest_with_work_stats: needs NeighborRounds sampling");
  const telemetry::ScopedEnable armed;
  ComponentLabels<NodeID_> labels = afforest_cc(g, opts);
  const telemetry::Report report = telemetry::capture();
  AfforestWorkStats stats;
  const std::int64_t k = std::max(std::int32_t{0}, rounds->k);
  for (std::int64_t v = 0; v < g.num_nodes(); ++v)
    stats.sampled_edges +=
        std::min<std::int64_t>(k, g.out_degree(static_cast<NodeID_>(v)));
  if (telemetry::compiled_in()) {
    stats.final_edges =
        static_cast<std::int64_t>(report.counters.link_calls) -
        stats.sampled_edges;
    stats.skipped_edges =
        static_cast<std::int64_t>(report.counters.phase3_edges_skipped);
    stats.skipped_vertices =
        static_cast<std::int64_t>(report.counters.phase3_vertices_skipped);
  }
  if (out_labels != nullptr) *out_labels = std::move(labels);
  return stats;
}

}  // namespace afforest
