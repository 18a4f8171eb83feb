// Tests of the benchmark's own logic: the percentile rule, the freshness
// attribution rule, seeded determinism of the stream and read schedule,
// and that the answer checks fire on a flipped label or a dropped edge.
#include <gtest/gtest.h>

#include <vector>

#include "bench_core.hpp"
#include "cc/afforest.hpp"
#include "cc/union_find.hpp"
#include "graph/builder.hpp"
#include "graph/generators/kronecker.hpp"
#include "serve/ingest.hpp"
#include "serve/query_engine.hpp"
#include "timed_engine.hpp"

namespace perfbench {
namespace {

std::vector<double> iota_samples(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(n - i);
  return v;
}

TEST(PercentileRule, ReportedOnlyWithTenSamplesBeyond) {
  EXPECT_FALSE(percentile(iota_samples(19), 0.5).has_value());
  ASSERT_TRUE(percentile(iota_samples(20), 0.5).has_value());
  EXPECT_EQ(*percentile(iota_samples(20), 0.5), 10.0);

  EXPECT_FALSE(percentile(iota_samples(99), 0.9).has_value());
  ASSERT_TRUE(percentile(iota_samples(100), 0.9).has_value());
  EXPECT_EQ(*percentile(iota_samples(100), 0.9), 90.0);

  EXPECT_FALSE(percentile(iota_samples(999), 0.99).has_value());
  ASSERT_TRUE(percentile(iota_samples(1000), 0.99).has_value());
  EXPECT_EQ(*percentile(iota_samples(1000), 0.99), 990.0);
  EXPECT_FALSE(percentile({}, 0.5).has_value());
}

TEST(PercentileRule, RefusesTheRunWhenUnsupported) {
  Result r;
  r.put_percentile("x_p99_ms", iota_samples(500), 0.99, "ms");
  EXPECT_FALSE(r.refusal.empty());
  EXPECT_EQ(r.metrics.count("x_p99_ms"), 0u);
}

TEST(FreshnessAttribution, ChargesTheFirstPumpStartedAfterEnqueue) {
  const std::vector<PumpRecord> pumps = {{1.0, 2.0}, {3.0, 5.0}, {6.0, 7.0}};
  // before pump 0 | between 0 and 1 | during pump 1 | at pump 1's start
  // instant | during pump 2, with no later pump
  const std::vector<double> enq = {0.5, 2.5, 4.0, 3.0, 6.5};
  const std::vector<std::int64_t> want = {0, 1, 2, 2, -1};
  EXPECT_EQ(attribute_to_pumps(enq, pumps), want);
}

TEST(FreshnessAttribution, EdgeEnqueuedBeforePumpIsVisibleAtItsEnd) {
  afforest::serve::QueryEngine<NodeID> engine(64);
  afforest::serve::IngestPipeline<afforest::serve::QueryEngine<NodeID>, NodeID>
      pipe(engine);
  pipe.enqueue(afforest::EdgePair<NodeID>{3, 40});
  pipe.pump();
  EXPECT_TRUE(engine.connected(3, 40));
}

StreamConfig small_config() {
  StreamConfig cfg;
  cfg.num_nodes = 1 << 12;
  cfg.base_vertices = 1 << 10;
  cfg.base_edges = 1 << 14;
  cfg.rate_per_s = 200;
  cfg.window_s = 2;
  cfg.saturation_edges = 256;
  return cfg;
}

bool same_edges(const Edges& a, const Edges& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!(a[i] == b[i])) return false;
  return true;
}

bool same_reads(const ReadPool& a, const ReadPool& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].count() != b[i].count()) return false;
    for (std::size_t k = 0; k < a[i].count(); ++k)
      if (a[i].u[k] != b[i].u[k] || a[i].v[k] != b[i].v[k]) return false;
  }
  return true;
}

TEST(StreamSchedule, IdenticalUnderOneSeedDifferentAcrossSeeds) {
  const StreamConfig cfg = small_config();
  const Stream a = make_stream(cfg, 7);
  const Stream b = make_stream(cfg, 7);
  const Stream c = make_stream(cfg, 8);
  EXPECT_TRUE(same_edges(a.base, b.base));
  EXPECT_TRUE(same_edges(a.edges, b.edges));
  EXPECT_EQ(a.due_s, b.due_s);
  EXPECT_TRUE(same_reads(a.reads, b.reads));
  EXPECT_GT(a.open_loop_edges(), 300u);

  EXPECT_FALSE(same_edges(a.base, c.base));
  EXPECT_FALSE(same_edges(a.edges, c.edges));
  EXPECT_NE(a.due_s, c.due_s);
  EXPECT_FALSE(same_reads(a.reads, c.reads));
}

TEST(StreamSchedule, EveryAttachmentMergesAndRejectsOverflow) {
  StreamConfig cfg = small_config();
  const Stream s = make_stream(cfg, 3);
  afforest::serve::QueryEngine<NodeID> engine(cfg.num_nodes);
  engine.apply_and_publish(s.base);
  const std::int64_t before = engine.component_count();
  engine.apply_and_publish(s.edges);
  // Each non-no-op edge attaches one unseen vertex: components drop by the
  // number of attachments, so the stream never degenerates into no-ops.
  std::size_t noops = 0;
  afforest::serve::QueryEngine<NodeID> base_only(cfg.num_nodes);
  base_only.apply_and_publish(s.base);
  for (const auto& e : s.edges) noops += base_only.connected(e.u, e.v);
  EXPECT_EQ(before - engine.component_count(),
            static_cast<std::int64_t>(s.edges.size() - noops));

  cfg.saturation_edges = cfg.num_nodes;
  EXPECT_THROW(make_stream(cfg, 3), std::invalid_argument);
}

TEST(AnswerCheck, FlippedSolveLabelIsCaught) {
  const Edges edges = afforest::generate_kronecker_edges<NodeID>(10, 8, 5);
  const auto g = afforest::build_undirected<NodeID>(edges, 1 << 10);
  const auto want = afforest::union_find_cc(edges, 1 << 10);
  auto got = afforest::afforest_cc(g);
  EXPECT_EQ(label_mismatches(got, want), 0u);
  got[17] = got[17] == 0 ? 1 : 0;
  EXPECT_EQ(label_mismatches(got, want), 1u);
}

TEST(AnswerCheck, DroppedStreamEdgeIsCaught) {
  const StreamConfig cfg = small_config();
  const Stream s = make_stream(cfg, 11);
  afforest::serve::QueryEngine<NodeID> reference(cfg.num_nodes);
  reference.apply_batch(s.base);
  reference.apply_and_publish(s.edges);

  // The same stream through the pipeline and timing adapter, minus one
  // merging edge (the first open-loop attachment, index 0 unless no-op).
  afforest::serve::QueryEngine<NodeID> engine(cfg.num_nodes);
  engine.apply_and_publish(s.base);
  SpanLog log(true, Clock::now());
  TimedEngine<afforest::serve::QueryEngine<NodeID>> timed(engine, log);
  afforest::serve::IngestPipeline<decltype(timed), NodeID> pipe(timed);
  std::size_t dropped = s.edges.size();
  for (std::size_t i = 0; i < s.edges.size(); ++i) {
    if (dropped == s.edges.size() && !engine.connected(s.edges[i].u, s.edges[i].v)) {
      dropped = i;
      continue;
    }
    pipe.enqueue(s.edges[i]);
  }
  pipe.pump();
  ASSERT_LT(dropped, s.edges.size());
  const auto got = engine.labels();
  EXPECT_GT(label_mismatches(got, reference.labels()), 0u);
  EXPECT_EQ(invisible_edges(s.edges, got), 1u);

  // The adapter recorded one apply and one publish span.
  ASSERT_EQ(log.spans().size(), 2u);
  EXPECT_EQ(log.spans()[0].kind, SpanKind::kApply);
  EXPECT_EQ(log.spans()[1].kind, SpanKind::kPublish);
}

TEST(AnswerCheck, FullStreamThroughPipelineMatchesReference) {
  const StreamConfig cfg = small_config();
  const Stream s = make_stream(cfg, 12);
  afforest::serve::QueryEngine<NodeID> reference(cfg.num_nodes);
  reference.apply_batch(s.base);
  reference.apply_and_publish(s.edges);
  afforest::serve::QueryEngine<NodeID> engine(cfg.num_nodes);
  engine.apply_and_publish(s.base);
  afforest::serve::IngestPipeline<afforest::serve::QueryEngine<NodeID>, NodeID>
      pipe(engine);
  for (std::size_t i = 0; i < s.edges.size(); ++i) {
    pipe.enqueue(s.edges[i]);
    if (i % 100 == 0) pipe.pump();
  }
  pipe.pump();
  EXPECT_EQ(label_mismatches(engine.labels(), reference.labels()), 0u);
  EXPECT_EQ(invisible_edges(s.edges, engine.labels()), 0u);
}

}  // namespace
}  // namespace perfbench
