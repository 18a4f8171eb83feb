// cc-kron / cc-road: repeated afforest_cc solves of one generated graph at
// kThreads threads, the paper's §VI methodology.
#include <omp.h>

#include <cstdint>
#include <vector>

#include "analysis/telemetry.hpp"
#include "cc/afforest.hpp"
#include "cc/union_find.hpp"
#include "graph/builder.hpp"
#include "graph/generators/kronecker.hpp"
#include "graph/generators/road.hpp"
#include "serve/snapshot_store.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace telemetry = afforest::telemetry;

// Scale 22: one solve takes >= ~50 ms at 4 threads on both families, so no
// timed interval sits near timer or scheduler noise.
constexpr int kScale = 22;
// A kron build takes ~10 s; road builds are short, so road repeats more.
constexpr int kKronSetupReps = 3;
constexpr int kRoadSetupReps = 7;
constexpr int kSnapshotReps = 3;
constexpr int kWarmupSolves = 2;
constexpr std::size_t kMinSolves = 100;  // p90 needs >= 10 solves beyond it

/// Same generator calls and parameters as the graph suite's "kron" and
/// "road" entries (src/graph/generators/suite.cpp); the edge list is kept
/// so the CSR build can be timed on its own.
Edges generate(const std::string& workload, std::uint64_t seed) {
  if (workload == "cc-kron")
    return afforest::generate_kronecker_edges<NodeID>(kScale, 16, seed);
  const std::int64_t side = std::int64_t{1} << (kScale / 2);
  return afforest::generate_road_edges<NodeID>(
      side, side, seed, {.keep_prob = 0.97, .shortcut_per_node = 0.005});
}

}  // namespace

Result run_cc(const Args& args) {
  Result r;
  record_validity(r, args.seed, kThreads, telemetry::compiled_in());
  r.info["threads.solver_team"] = kThreads;
  if (!r.refusal.empty()) return r;
  omp_set_dynamic(0);
  omp_set_num_threads(kThreads);

  const std::int64_t n = std::int64_t{1} << kScale;
  const auto t_gen = Clock::now();
  Edges edges = generate(args.workload, args.seed);
  r.info["generate_s"] = seconds_between(t_gen, Clock::now());

  // Reference answer: serial union-find over the same edges (untimed as a
  // metric of the run, reported as the cc.serial_uf_ms baseline).
  const auto t_uf = Clock::now();
  const afforest::ComponentLabels<NodeID> want =
      afforest::union_find_cc(edges, n);
  const double serial_uf_ms = seconds_between(t_uf, Clock::now()) * 1e3;

  // Set-up (the CSR build) is repeated, and each graph takes an equal share
  // of the solves: one process's solve times move by ~10% with where its
  // CSR lands in memory, so the median spans several placements.
  const int setup_reps =
      args.workload == "cc-kron" ? kKronSetupReps : kRoadSetupReps;
  const double share_s = args.seconds / setup_reps;
  const std::size_t share_solves =
      (kMinSolves + static_cast<std::size_t>(setup_reps) - 1) /
      static_cast<std::size_t>(setup_reps);
  std::vector<double> build_s;
  std::vector<double> solve_ms;
  afforest::ComponentLabels<NodeID> labels;
  std::int64_t num_edges = 0;
  std::int64_t stored_edges = 0;
  for (int rep = 0; rep < setup_reps; ++rep) {
    const auto t0 = Clock::now();
    const afforest::Graph g = afforest::Builder<NodeID>{}.build(edges, n);
    build_s.push_back(seconds_between(t0, Clock::now()));
    num_edges = g.num_edges();
    stored_edges = g.num_stored_edges();
    auto solve_checked = [&] {
      const auto start = Clock::now();
      labels = afforest::afforest_cc(g);
      const double ms = seconds_between(start, Clock::now()) * 1e3;
      ++r.attempted;
      if (label_mismatches(labels, want) != 0) ++r.failed;
      return ms;
    };
    if (rep == 0) {
      for (int i = 0; i < kWarmupSolves; ++i) solve_checked();
      if (args.trace) {
        telemetry::set_enabled(true);
        telemetry::reset();
      }
    }
    const auto start = Clock::now();
    for (std::size_t k = 0;
         k < share_solves || seconds_between(start, Clock::now()) < share_s;
         ++k)
      solve_ms.push_back(solve_checked());
  }
  edges = Edges();
  const telemetry::Report report = telemetry::capture();
  telemetry::set_enabled(false);

  // The solved labels published through the serving layer's snapshot store.
  std::vector<double> snapshot_ms;
  {
    afforest::serve::SnapshotStore<NodeID> store(n);
    for (int rep = 0; rep < kSnapshotReps; ++rep) {
      const auto t0 = Clock::now();
      store.publish(labels);
      snapshot_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
    }
  }

  r.put("setup_s", median_of(build_s), "s");
  r.put_percentile("latency_p50_ms", solve_ms, 0.5, "ms");
  r.put_percentile("latency_p90_ms", solve_ms, 0.9, "ms");
  if (const auto p50 = percentile(solve_ms, 0.5))
    r.put("edges_per_s", static_cast<double>(num_edges) / (*p50 / 1e3),
          "edges/s");
  r.put("peak_rss_mb",
        static_cast<double>(telemetry::peak_rss_bytes()) / 1048576.0, "MB");
  r.info["solves"] = static_cast<double>(solve_ms.size());
  r.info["failed_frac"] =
      static_cast<double>(r.failed) / static_cast<double>(r.attempted);
  if (!args.trace) return r;

  const auto solves = static_cast<double>(solve_ms.size());
  const double sampling_ms =
      phase_total_ms(report, "afforest.sampling") / solves;
  const double final_link_ms =
      phase_total_ms(report, "afforest.final_link") / solves;
  r.put("cc.link_ms", sampling_ms + final_link_ms, "ms");
  r.put("cc.compress_ms", phase_total_ms(report, "afforest.compress") / solves,
        "ms");
  put_primitive_counters(r, report.counters);
  r.put("serve.snapshot_ms", median_of(snapshot_ms), "ms");

  r.put("graph.build_s", median_of(build_s), "s");
  r.put("cc.init_ms", phase_total_ms(report, "afforest.init") / solves, "ms");
  r.put("cc.sampling_ms", sampling_ms, "ms");
  r.put("cc.find_largest_ms",
        phase_total_ms(report, "afforest.find_largest") / solves, "ms");
  r.put("cc.final_link_ms", final_link_ms, "ms");
  r.put("cc.skip_edge_frac",
        static_cast<double>(report.counters.phase3_edges_skipped) /
            (solves * static_cast<double>(stored_edges)),
        "ratio");
  r.put("cc.serial_uf_ms", serial_uf_ms, "ms");
  return r;
}

}  // namespace perfbench
