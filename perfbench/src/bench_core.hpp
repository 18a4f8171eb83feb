// Benchmark-own logic shared by the workloads and the self-tests: the
// percentile rule, the seeded serving stream and read schedule, the
// freshness attribution rule, the label check, run validity, and the
// result record the driver (run.py) reads.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <sched.h>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "graph/edge_list.hpp"
#include "serve/query_batch.hpp"
#include "serve/workload.hpp"
#include "util/pvector.hpp"
#include "util/rng.hpp"

namespace perfbench {

using NodeID = std::int32_t;
using Edges = afforest::EdgeList<NodeID>;
using Clock = std::chrono::steady_clock;
using ReadPool = std::vector<afforest::serve::QueryBatch<NodeID>>;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---- percentile rule ------------------------------------------------------

/// A percentile is reported only when at least this many samples lie
/// strictly beyond it, so a tail figure never rests on one or two outliers.
inline constexpr std::size_t kMinSamplesBeyond = 10;

/// Nearest-rank q-quantile (q in (0, 1)) of `samples`, or nullopt when fewer
/// than kMinSamplesBeyond samples lie beyond the chosen rank.
inline std::optional<double> percentile(std::vector<double> samples,
                                        double q) {
  const std::size_t n = samples.size();
  if (n == 0) return std::nullopt;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n)));
  const std::size_t idx = std::clamp<std::size_t>(rank, 1, n) - 1;
  if (n - 1 - idx < kMinSamplesBeyond) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + idx, samples.end());
  return samples[idx];
}

inline double mean(const std::vector<double>& v) {
  double sum = 0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

/// Median without the tail rule: used for medians of a handful of set-up
/// repetitions, which are reported as a typical value, not a percentile.
inline double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---- result record --------------------------------------------------------

/// Everything one workload process reports.  `refusal` non-empty means the
/// run is invalid and must not be reported (the driver exits non-zero).
struct Result {
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::map<std::string, double> info;  ///< validity record, not metrics
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string refusal;

  void put(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }

  /// Stores percentile q of `samples` under `name`, or refuses the run when
  /// the sample does not support that percentile.
  void put_percentile(const std::string& name, const std::vector<double>& samples,
                      double q, const std::string& unit) {
    if (const auto p = percentile(samples, q)) {
      put(name, *p, unit);
    } else {
      refuse(name + ": " + std::to_string(samples.size()) +
             " samples leave fewer than 10 beyond the percentile");
    }
  }

  void refuse(const std::string& why) {
    if (refusal.empty()) refusal = why;
  }
};

/// One JSON line; doubles keep all 17 significant digits.
inline void print_result(const Result& r) {
  std::printf("{\"attempted\": %llu, \"failed\": %llu, \"refusal\": \"",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (const char c : r.refusal) {
    if (c == '"' || c == '\\') std::putchar('\\');
    std::putchar(c);
  }
  std::printf("\", \"metrics\": {");
  const char* sep = "";
  for (const auto& [name, vu] : r.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                name.c_str(), vu.first, vu.second.c_str());
    sep = ", ";
  }
  std::printf("}, \"info\": {");
  sep = "";
  for (const auto& [name, value] : r.info) {
    std::printf("%s\"%s\": %.17g", sep, name.c_str(), value);
    sep = ", ";
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// ---- run validity ---------------------------------------------------------

/// CPUs this process may run on (what `nproc` prints).
inline int available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return CPU_COUNT(&set);
}

inline constexpr bool assertions_enabled() {
#ifdef NDEBUG
  return false;
#else
  return true;
#endif
}

/// Records the validity block every run carries and refuses the run when
/// it would oversubscribe the CPUs or was built with assertions.
inline void record_validity(Result& r, std::uint64_t seed, int threads,
                            bool telemetry_compiled) {
  const int cpus = available_cpus();
  r.info["nproc"] = cpus;
  r.info["threads.total"] = threads;
  r.info["build.assertions"] = assertions_enabled() ? 1 : 0;
  r.info["build.telemetry"] = telemetry_compiled ? 1 : 0;
  r.info["seed"] = static_cast<double>(seed);
  if (threads > cpus)
    r.refuse("runnable threads (" + std::to_string(threads) +
             ") exceed nproc (" + std::to_string(cpus) + ")");
  if (assertions_enabled()) r.refuse("built with assertions enabled");
}

// ---- serving stream and read schedule -------------------------------------

/// The paced reader cycles through kReadPool pregenerated QueryBatches of
/// kReadBatch pairs.
inline constexpr std::size_t kReadBatch = 4096;
inline constexpr std::size_t kReadPool = 64;

/// The growing-graph stream both serving workloads replay.
///
/// Vertices join in a seeded random order (so every shard receives new
/// vertices).  The base graph, preloaded at set-up, is a dense random graph
/// on the first `base_vertices` to join (connected, and connected inside
/// every shard's block, so the cross-shard quotient starts small); the
/// stream then either attaches the next unseen vertex to a random earlier
/// one (always a merge, so every epoch has real publish work) or, with
/// probability `noop_share`, joins two Zipf-ranked base vertices (already
/// connected, so the ingest no-op filter drops it; hot pairs repeat, so
/// coalescing fires).
struct StreamConfig {
  std::int64_t num_nodes = 1 << 18;
  std::int64_t base_vertices = 1 << 17;
  std::int64_t base_edges = 1 << 22;
  double noop_share = 0.2;
  double rate_per_s = 2000;       ///< open-loop Poisson arrival rate
  double window_s = 10;           ///< open-loop window
  std::int64_t saturation_edges = 1 << 16;
  double read_period_s = 0.002;   ///< paced reader: one batch per period
};

struct Stream {
  Edges base;                      ///< preloaded at set-up
  Edges edges;                     ///< open-loop part, then saturation block
  std::vector<double> due_s;       ///< due offset of each open-loop edge
  ReadPool reads;                  ///< the paced reader's key batches
  std::int64_t read_count = 0;     ///< paced reads in the window

  [[nodiscard]] std::size_t open_loop_edges() const { return due_s.size(); }
};

/// Deterministic in (cfg, seed).  Throws std::invalid_argument when the
/// stream would run out of unseen vertices.
inline Stream make_stream(const StreamConfig& cfg, std::uint64_t seed) {
  using afforest::Xoshiro256;
  const auto n = static_cast<std::uint64_t>(cfg.num_nodes);
  Xoshiro256 rng(seed);

  std::vector<NodeID> order(n);
  for (std::uint64_t i = 0; i < n; ++i) order[i] = static_cast<NodeID>(i);
  for (std::uint64_t i = n - 1; i > 0; --i)
    std::swap(order[i], order[rng.next_bounded(i + 1)]);

  Stream s;
  std::uint64_t seen = static_cast<std::uint64_t>(cfg.base_vertices);
  for (std::int64_t i = 0; i < cfg.base_edges; ++i)
    s.base.push_back({order[rng.next_bounded(seen)],
                      order[rng.next_bounded(seen)]});

  const afforest::serve::ZipfianGenerator hot(
      static_cast<std::uint64_t>(cfg.base_vertices), 0.99);
  auto next_edge = [&]() -> afforest::EdgePair<NodeID> {
    if (rng.next_double() < cfg.noop_share) {
      const std::uint64_t a = hot.next(rng);
      std::uint64_t b = hot.next(rng);
      if (b == a) b = (a + 1) % static_cast<std::uint64_t>(cfg.base_vertices);
      return {order[a], order[b]};
    }
    if (seen >= n)
      throw std::invalid_argument("stream ran out of unseen vertices");
    const afforest::EdgePair<NodeID> e{order[seen], order[rng.next_bounded(seen)]};
    ++seen;
    return e;
  };

  double t = 0;
  for (;;) {
    t += -std::log(1.0 - rng.next_double()) / cfg.rate_per_s;
    if (t >= cfg.window_s) break;
    s.due_s.push_back(t);
    s.edges.push_back(next_edge());
  }
  for (std::int64_t i = 0; i < cfg.saturation_edges; ++i)
    s.edges.push_back(next_edge());

  // Reads: kReadPool batches of kReadBatch (u, v) pairs, each key a Zipf
  // rank (theta 0.99, the YCSB default) mapped through the join order.
  const afforest::serve::ZipfianGenerator keys(n, 0.99);
  s.reads.resize(kReadPool);
  for (auto& batch : s.reads)
    for (std::size_t i = 0; i < kReadBatch; ++i) {
      const NodeID u = order[keys.next(rng)];
      batch.add(u, order[keys.next(rng)]);
    }
  s.read_count = static_cast<std::int64_t>(cfg.window_s / cfg.read_period_s);
  return s;
}

// ---- freshness attribution ------------------------------------------------

/// One pump() that drained at least one edge, in consumer order.
struct PumpRecord {
  double start_s = 0;
  double end_s = 0;
};

/// For each edge (by the time its enqueue returned), the index of the first
/// pump that STARTED strictly after it: that pump drained every queue after
/// the edge was in one, so the edge is readable at that pump's end.  An
/// edge enqueued while a pump runs is charged to the next pump, even when
/// the running one happened to drain it.  -1 when no pump qualifies.
inline std::vector<std::int64_t> attribute_to_pumps(
    const std::vector<double>& enqueued_s,
    const std::vector<PumpRecord>& pumps) {
  std::vector<std::int64_t> owner(enqueued_s.size(), -1);
  for (std::size_t i = 0; i < enqueued_s.size(); ++i) {
    const auto it = std::upper_bound(
        pumps.begin(), pumps.end(), enqueued_s[i],
        [](double t, const PumpRecord& p) { return t < p.start_s; });
    if (it != pumps.end()) owner[i] = it - pumps.begin();
  }
  return owner;
}

// ---- answer checks --------------------------------------------------------

/// Number of positions where two label arrays differ (size mismatch counts
/// every position of the longer one).
template <typename LabelsA, typename LabelsB>
std::uint64_t label_mismatches(const LabelsA& got, const LabelsB& want) {
  if (got.size() != want.size())
    return static_cast<std::uint64_t>(std::max(got.size(), want.size()));
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < got.size(); ++i) bad += got[i] != want[i];
  return bad;
}

/// Edges whose endpoints carry different labels: not visible in `labels`.
template <typename Labels>
std::uint64_t invisible_edges(const Edges& edges, const Labels& labels) {
  std::uint64_t bad = 0;
  for (const auto& e : edges) bad += labels[e.u] != labels[e.v];
  return bad;
}

}  // namespace perfbench
