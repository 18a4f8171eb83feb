// Telemetry subsystem tests: dormant-by-default, single-thread
// determinism, multi-thread consistency invariants, exact owner-exclusive
// counts under concurrent snapshots, labels unaffected by arming,
// per-phase accumulation, and the registry's TelemetrySink hook.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/telemetry.hpp"
#include "cc/afforest.hpp"
#include "cc/label_propagation.hpp"
#include "cc/registry.hpp"
#include "cc/shiloach_vishkin.hpp"
#include "cc/verifier.hpp"
#include "graph/builder.hpp"
#include "graph/generators/suite.hpp"
#include "util/platform.hpp"

namespace afforest {
namespace {

using NodeID = std::int32_t;

bool counters_all_zero(const telemetry::Counters& c) {
  return c.link_calls == 0 && c.link_retries == 0 && c.link_retry_peak == 0 &&
         c.cas_attempts == 0 && c.cas_failures == 0 && c.compress_calls == 0 &&
         c.compress_hops == 0 && c.phase3_vertices_skipped == 0 &&
         c.phase3_edges_skipped == 0 && c.iterations == 0 &&
         c.sv_hooks_fired == 0 && c.lp_label_updates == 0 &&
         c.serve_queries_served == 0 && c.serve_snapshot_swaps == 0 &&
         c.serve_edges_ingested == 0;
}

TEST(Telemetry, DormantByDefaultCountsNothing) {
  telemetry::set_enabled(false);
  telemetry::reset();
  const Graph g = make_suite_graph("kron", 10);
  afforest_cc(g);
  EXPECT_TRUE(counters_all_zero(telemetry::snapshot()));
  EXPECT_TRUE(telemetry::phases().empty());
}

TEST(Telemetry, SingleThreadCountersDeterministic) {
  if (!telemetry::compiled_in()) GTEST_SKIP() << "telemetry compiled out";
  const int saved = num_threads();
  set_num_threads(1);
  const Graph g = make_suite_graph("kron", 10);

  telemetry::Counters first, second;
  {
    const telemetry::ScopedEnable armed;
    afforest_cc(g);
    first = telemetry::snapshot();
  }
  {
    const telemetry::ScopedEnable armed;
    afforest_cc(g);
    second = telemetry::snapshot();
  }
  set_num_threads(saved);

  EXPECT_GT(first.link_calls, 0u);
  EXPECT_GT(first.compress_calls, 0u);
  EXPECT_EQ(first.link_calls, second.link_calls);
  EXPECT_EQ(first.link_retries, second.link_retries);
  EXPECT_EQ(first.link_retry_peak, second.link_retry_peak);
  EXPECT_EQ(first.cas_attempts, second.cas_attempts);
  EXPECT_EQ(first.cas_failures, second.cas_failures);
  EXPECT_EQ(first.compress_calls, second.compress_calls);
  EXPECT_EQ(first.compress_hops, second.compress_hops);
  EXPECT_EQ(first.phase3_vertices_skipped, second.phase3_vertices_skipped);
  EXPECT_EQ(first.phase3_edges_skipped, second.phase3_edges_skipped);
  // Single-threaded, no CAS can lose.
  EXPECT_EQ(first.cas_failures, 0u);
}

TEST(Telemetry, MultiThreadCountersConsistent) {
  if (!telemetry::compiled_in()) GTEST_SKIP() << "telemetry compiled out";
  const Graph g = make_suite_graph("kron", 12);
  const telemetry::ScopedEnable armed;
  afforest_cc(g);
  const telemetry::Counters c = telemetry::snapshot();

  EXPECT_GT(c.link_calls, 0u);
  EXPECT_GT(c.compress_calls, 0u);
  EXPECT_LE(c.cas_failures, c.cas_attempts);
  EXPECT_LE(c.link_retry_peak, c.link_retries);
  EXPECT_LE(c.phase3_vertices_skipped,
            static_cast<std::uint64_t>(g.num_nodes()));

  const auto phases = telemetry::phases();
  ASSERT_FALSE(phases.empty());
  bool saw_sampling = false;
  for (const auto& p : phases) {
    EXPECT_GE(p.seconds, 0.0);
    EXPECT_GT(p.count, 0u);
    if (p.name == "afforest.sampling") saw_sampling = true;
  }
  EXPECT_TRUE(saw_sampling);
}

TEST(Telemetry, SvAndLpCountersFire) {
  if (!telemetry::compiled_in()) GTEST_SKIP() << "telemetry compiled out";
  EdgeList<NodeID> edges;
  for (NodeID i = 1; i < 200; ++i)
    edges.push_back({static_cast<NodeID>(i - 1), i});
  const Graph g = build_undirected(edges, 200);

  {
    const telemetry::ScopedEnable armed;
    shiloach_vishkin(g);
    const telemetry::Counters c = telemetry::snapshot();
    EXPECT_GT(c.iterations, 0u);
    EXPECT_GT(c.sv_hooks_fired, 0u);
  }
  {
    const telemetry::ScopedEnable armed;
    label_propagation(g);
    const telemetry::Counters c = telemetry::snapshot();
    EXPECT_GT(c.iterations, 0u);
    EXPECT_GT(c.lp_label_updates, 0u);
  }
}

TEST(Telemetry, ServingCountersFireAndAggregate) {
  if (!telemetry::compiled_in()) GTEST_SKIP() << "telemetry compiled out";
  const telemetry::ScopedEnable armed;
  telemetry::on_queries_served(3);
  telemetry::on_queries_served(2);
  telemetry::on_snapshot_swap();
  telemetry::on_edges_ingested(17);
  const telemetry::Counters c = telemetry::snapshot();
  EXPECT_EQ(c.serve_queries_served, 5u);
  EXPECT_EQ(c.serve_snapshot_swaps, 1u);
  EXPECT_EQ(c.serve_edges_ingested, 17u);
  telemetry::reset();
  EXPECT_TRUE(counters_all_zero(telemetry::snapshot()));
}

// A block registered by an OpenMP worker outlives the worker once a later
// region shrinks the team, and from then on only the registry reaches it.
// The registry must stay alive through exit, or LeakSanitizer (the asan
// preset) reports the block as leaked when this test's process ends.
TEST(Telemetry, WorkerBlocksStayReachableAfterTheTeamShrinks) {
  if (!telemetry::compiled_in()) GTEST_SKIP() << "telemetry compiled out";
  const telemetry::ScopedEnable armed;
#pragma omp parallel num_threads(3)
  telemetry::on_queries_served(1);
#pragma omp parallel num_threads(2)
  telemetry::on_queries_served(1);
  EXPECT_EQ(telemetry::snapshot().serve_queries_served, 5u);
}

// Each block is written only by its owner thread, with a load plus store
// instead of a locked add.  std::threads (TSan-visible, unlike OpenMP)
// hammer the hooks while this thread snapshots: every snapshot is a
// monotone lower bound, and the last one is exact.
TEST(TelemetryStdThread, OwnerUpdatesSumExactlyUnderConcurrentSnapshots) {
  if (!telemetry::compiled_in()) GTEST_SKIP() << "telemetry compiled out";
  constexpr int kThreads = 4;
  constexpr std::uint64_t kCalls = 20000;
  constexpr std::uint64_t kTotal = kThreads * kCalls;
  const telemetry::ScopedEnable armed;
  std::atomic<int> running{kThreads};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&running] {
      for (std::uint64_t i = 0; i < kCalls; ++i) {
        telemetry::on_link(/*retries=*/1, /*cas_attempts=*/2,
                           /*cas_failures=*/0);
        telemetry::on_compress(/*hops=*/3);
      }
      running.fetch_sub(1);
    });
  }
  std::uint64_t last = 0;
  bool monotone = true, bounded = true;
  while (running.load() > 0) {
    const telemetry::Counters c = telemetry::snapshot();
    monotone = monotone && c.link_calls >= last;
    bounded = bounded && c.link_calls <= kTotal && c.compress_calls <= kTotal;
    last = c.link_calls;
  }
  for (std::thread& w : workers) w.join();
  EXPECT_TRUE(monotone);
  EXPECT_TRUE(bounded);

  const telemetry::Counters c = telemetry::snapshot();
  EXPECT_EQ(c.link_calls, kTotal);
  EXPECT_EQ(c.link_retries, kTotal);
  EXPECT_EQ(c.link_retry_peak, 1u);
  EXPECT_EQ(c.cas_attempts, 2 * kTotal);
  EXPECT_EQ(c.cas_failures, 0u);
  EXPECT_EQ(c.compress_calls, kTotal);
  EXPECT_EQ(c.compress_hops, 3 * kTotal);
}

TEST(Telemetry, LabelsUnaffectedByArming) {
  // The instrumentation must observe, never perturb: identical labels with
  // telemetry off and on (single-threaded so the run is deterministic),
  // and an equivalent partition under the default thread count.
  const int saved = num_threads();
  set_num_threads(1);
  const Graph g = make_suite_graph("urand", 11);
  telemetry::set_enabled(false);
  const auto off = afforest_cc(g);
  ComponentLabels<NodeID> on;
  {
    const telemetry::ScopedEnable armed;
    on = afforest_cc(g);
  }
  set_num_threads(saved);
  ASSERT_EQ(off.size(), on.size());
  for (std::size_t v = 0; v < off.size(); ++v) EXPECT_EQ(off[v], on[v]);

  ComponentLabels<NodeID> on_mt;
  {
    const telemetry::ScopedEnable armed;
    on_mt = afforest_cc(g);
  }
  EXPECT_TRUE(labels_equivalent(off, on_mt));
}

TEST(Telemetry, ResetClearsCountersAndPhases) {
  if (!telemetry::compiled_in()) GTEST_SKIP() << "telemetry compiled out";
  const telemetry::ScopedEnable armed;
  afforest_cc(make_suite_graph("kron", 10));
  EXPECT_FALSE(counters_all_zero(telemetry::snapshot()));
  EXPECT_FALSE(telemetry::phases().empty());
  telemetry::reset();
  EXPECT_TRUE(counters_all_zero(telemetry::snapshot()));
  EXPECT_TRUE(telemetry::phases().empty());
}

TEST(Telemetry, ScopedPhaseAccumulates) {
  if (!telemetry::compiled_in()) GTEST_SKIP() << "telemetry compiled out";
  const telemetry::ScopedEnable armed;
  for (int i = 0; i < 3; ++i) {
    const telemetry::ScopedPhase phase("test.phase");
  }
  const auto phases = telemetry::phases();
  ASSERT_EQ(phases.size(), 1u);
  EXPECT_EQ(phases[0].name, "test.phase");
  EXPECT_EQ(phases[0].count, 3u);
  EXPECT_GE(phases[0].seconds, 0.0);
}

TEST(Telemetry, CaptureBundlesReport) {
  if (!telemetry::compiled_in()) GTEST_SKIP() << "telemetry compiled out";
  const telemetry::ScopedEnable armed;
  afforest_cc(make_suite_graph("kron", 10));
  const telemetry::Report report = telemetry::capture();
  EXPECT_GT(report.counters.link_calls, 0u);
  EXPECT_FALSE(report.phases.empty());
  EXPECT_GT(report.peak_rss_bytes, 0u);  // /proc/self/status on Linux
}

class RecordingSink : public TelemetrySink {
 public:
  void consume(const std::string& algorithm,
               const telemetry::Report& report) override {
    calls.push_back({algorithm, report});
  }
  std::vector<std::pair<std::string, telemetry::Report>> calls;
};

TEST(TelemetrySinkTest, ReceivesReportPerDispatchWhenArmed) {
  if (!telemetry::compiled_in()) GTEST_SKIP() << "telemetry compiled out";
  const Graph g = make_suite_graph("kron", 10);
  RecordingSink sink;
  TelemetrySink* previous = set_telemetry_sink(&sink);
  const telemetry::ScopedEnable armed;

  const auto labels = cc_algorithm("afforest").run(g);
  set_telemetry_sink(previous);

  EXPECT_TRUE(labels_equivalent(labels, afforest_cc(g)));
  ASSERT_EQ(sink.calls.size(), 1u);
  EXPECT_EQ(sink.calls[0].first, "afforest");
  EXPECT_GT(sink.calls[0].second.counters.link_calls, 0u);
  EXPECT_FALSE(sink.calls[0].second.phases.empty());
}

TEST(TelemetrySinkTest, SilentWhenDisarmedOrUninstalled) {
  const Graph g = make_suite_graph("kron", 10);
  RecordingSink sink;
  TelemetrySink* previous = set_telemetry_sink(&sink);
  telemetry::set_enabled(false);
  cc_algorithm("afforest").run(g);  // sink installed, telemetry dormant
  set_telemetry_sink(previous);
  EXPECT_TRUE(sink.calls.empty());

  // No sink installed: dispatch with telemetry armed is also fine.
  const telemetry::ScopedEnable armed;
  const auto labels = cc_algorithm("afforest").run(g);
  EXPECT_TRUE(verify_cc(g, labels));
  EXPECT_TRUE(sink.calls.empty());
}

}  // namespace
}  // namespace afforest
