// Unit tests for the serving layer's QueryEngine: epoch/versioning
// semantics, snapshot staleness, batch answers, failpoint recovery, guard
// behavior, and telemetry wiring.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "analysis/telemetry.hpp"
#include "cc/guards.hpp"
#include "cc/union_find.hpp"
#include "graph/generators/uniform.hpp"
#include "serve/query_batch.hpp"
#include "serve/query_engine.hpp"
#include "support/scoped_env.hpp"
#include "util/failpoint.hpp"

namespace afforest {
namespace {

using ::afforest::testing::ScopedEnv;
using NodeID = std::int32_t;
using Engine = serve::QueryEngine<NodeID>;

EdgeList<NodeID> path_edges(NodeID n) {
  EdgeList<NodeID> edges;
  for (NodeID v = 0; v + 1 < n; ++v) edges.push_back({v, v + 1});
  return edges;
}

TEST(QueryEngine, StartsAsSingletonsAtEpochOne) {
  const Engine engine(5);
  EXPECT_EQ(engine.num_nodes(), 5);
  EXPECT_EQ(engine.epoch(), 1u);
  EXPECT_EQ(engine.component_count(), 5);
  for (NodeID v = 0; v < 5; ++v) {
    EXPECT_EQ(engine.component_of(v), v);
    EXPECT_EQ(engine.component_size(v), 1);
  }
  EXPECT_FALSE(engine.connected(0, 4));
  EXPECT_TRUE(engine.connected(3, 3));
}

TEST(QueryEngine, UpdatesInvisibleUntilPublish) {
  Engine engine(4);
  EdgeList<NodeID> batch;
  batch.push_back({0, 1});
  batch.push_back({2, 3});
  engine.apply_batch(batch);

  // Snapshot staleness: the published epoch still answers pre-batch state.
  EXPECT_EQ(engine.epoch(), 1u);
  EXPECT_FALSE(engine.connected(0, 1));
  EXPECT_EQ(engine.component_count(), 4);

  engine.publish();
  EXPECT_EQ(engine.epoch(), 2u);
  EXPECT_TRUE(engine.connected(0, 1));
  EXPECT_TRUE(engine.connected(2, 3));
  EXPECT_FALSE(engine.connected(1, 2));
  EXPECT_EQ(engine.component_count(), 2);
  EXPECT_EQ(engine.component_of(1), 0);  // min-id label convention
  EXPECT_EQ(engine.component_size(3), 2);
}

TEST(QueryEngine, EpochAdvancesOncePerPublish) {
  Engine engine(3);
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(engine.epoch(), 1 + i);
    engine.publish();
  }
  EXPECT_EQ(engine.epoch(), 5u);
}

TEST(QueryEngine, MatchesUnionFindOracleAfterStreaming) {
  const std::int64_t n = 1 << 10;
  const auto edges = generate_uniform_edges<NodeID>(n, 4 * n, /*seed=*/7);
  Engine engine(n);
  const std::size_t batch = 257;  // deliberately not a divisor of m
  for (std::size_t start = 0; start < edges.size(); start += batch)
    engine.apply_batch(edges.data() + start,
                       std::min(batch, edges.size() - start));
  engine.publish();

  const auto truth = union_find_cc(edges, n);
  const auto labels = engine.labels();
  ASSERT_EQ(labels.size(), truth.size());
  for (std::int64_t v = 0; v < n; ++v)
    EXPECT_EQ(labels[v], truth[v]) << "vertex " << v;
}

TEST(QueryEngine, BatchAnswerIsConsistentAndStamped) {
  Engine engine(6);
  engine.apply_and_publish(path_edges(3));  // {0,1,2} + singletons 3,4,5

  serve::QueryBatch<NodeID> batch;
  batch.add(0, 2);
  batch.add(1, 5);
  batch.add(4, 4);
  engine.answer(batch);

  EXPECT_EQ(batch.epoch, engine.epoch());
  ASSERT_EQ(batch.count(), 3u);
  EXPECT_TRUE(batch.connected[0]);
  EXPECT_FALSE(batch.connected[1]);
  EXPECT_TRUE(batch.connected[2]);
  EXPECT_EQ(batch.component[0], 0);
  EXPECT_EQ(batch.component[1], 0);  // component of u=1
  EXPECT_EQ(batch.component[2], 4);
  EXPECT_EQ(batch.component_size[0], 3);
  EXPECT_EQ(batch.component_size[1], 3);
  EXPECT_EQ(batch.component_size[2], 1);

  // Re-answering the same batch after more publishes observes progress.
  EdgeList<NodeID> more;
  more.push_back({2, 5});
  engine.apply_and_publish(more);
  engine.answer(batch);
  EXPECT_EQ(batch.epoch, 3u);
  EXPECT_TRUE(batch.connected[1]);
  EXPECT_EQ(batch.component_size[1], 4);
}

TEST(QueryEngine, ValidatesVertexIds) {
  Engine engine(4);
  EXPECT_THROW((void)engine.connected(0, 4), std::out_of_range);
  EXPECT_THROW((void)engine.component_of(-1), std::out_of_range);
  EXPECT_THROW((void)engine.component_size(99), std::out_of_range);

  EdgeList<NodeID> bad;
  bad.push_back({0, 17});
  EXPECT_THROW(engine.apply_batch(bad), std::out_of_range);
  // The failed batch must not have applied anything.
  engine.publish();
  EXPECT_EQ(engine.component_count(), 4);

  serve::QueryBatch<NodeID> qbad;
  qbad.add(1, 42);
  EXPECT_THROW(engine.answer(qbad), std::out_of_range);
}

TEST(QueryEngine, BoundsErrorsAreTyped) {
  // Regression for the silent-acceptance bug: all entry points now throw
  // the typed VertexRangeError (derived from std::out_of_range, so the
  // assertions above keep passing) carrying the offending id and bound.
  Engine engine(4);
  EXPECT_THROW((void)engine.connected(0, 4), VertexRangeError);
  EXPECT_THROW((void)engine.component_of(-1), VertexRangeError);
  EdgeList<NodeID> bad;
  bad.push_back({2, -5});
  try {
    engine.apply_batch(bad);
    FAIL() << "expected VertexRangeError";
  } catch (const VertexRangeError& e) {
    EXPECT_EQ(e.vertex(), -5);
    EXPECT_EQ(e.num_nodes(), 4);
    EXPECT_NE(std::string(e.what()).find("QueryEngine"), std::string::npos);
  }
}

TEST(QueryEngine, NarrowLabelTypeThrowsTypedOverflow) {
  // int16 labels cap at 32767 ids: 40000 vertices used to construct and
  // then crash in the first publish, whose wrapped labels indexed `sizes`.
  using Narrow = serve::QueryEngine<std::int16_t>;
  try {
    const Narrow engine(40000);
    FAIL() << "expected LabelWidthError";
  } catch (const LabelWidthError& e) {
    EXPECT_EQ(e.num_nodes(), 40000);
    EXPECT_EQ(e.max_label(), 32767);
  }
  // The widest representable shape serves.
  Narrow ok(32768);
  EdgeList<std::int16_t> edges;
  edges.push_back({0, 32767});
  ok.apply_batch(edges);
  ok.publish();
  EXPECT_TRUE(ok.connected(0, 32767));
  EXPECT_EQ(ok.component_size(32767), 2);
  EXPECT_EQ(ok.component_count(), 32767);
}

TEST(QueryEngine, NegativeSizeThrowsInvalidArgument) {
  // Used to surface as an untyped std::bad_alloc from the label array.
  EXPECT_THROW(Engine(-1), std::invalid_argument);
}

TEST(QueryEngine, ViewPinsAnImmutableSnapshot) {
  Engine engine(4);
  const auto view = engine.acquire();  // pins epoch 1
  EXPECT_EQ(view.epoch(), 1u);

  engine.apply_and_publish(path_edges(4));
  // The pinned view still answers the old world; fresh queries the new.
  EXPECT_FALSE(view.connected(0, 3));
  EXPECT_EQ(view.component_size(0), 1);
  EXPECT_TRUE(engine.connected(0, 3));
}

TEST(QueryEngine, LeakedViewSurfacesAsConvergenceError) {
  // A View held across TWO publishes blocks the writer's grace period on
  // the buffer it pinned; the drain guard must turn that into a typed
  // error instead of a livelock.  The ceiling is lowered via env so the
  // test completes in milliseconds.
  const ScopedEnv ceiling("AFFOREST_SERVE_SPIN_CEILING", "100");
  Engine engine(4);
  const auto view = engine.acquire();  // pins buffer A (epoch 1)
  engine.publish();                    // writes buffer B -> epoch 2
  try {
    engine.publish();  // needs buffer A back
    FAIL() << "expected ConvergenceError";
  } catch (const ConvergenceError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("serve.publish.drain"), std::string::npos) << what;
    EXPECT_NE(what.find("stale epoch 1 still pinned by 1 reader(s)"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("raise AFFOREST_SERVE_SPIN_CEILING"),
              std::string::npos)
        << what;
  }
  EXPECT_EQ(engine.epoch(), 2u);  // the failed publish turned nothing
}

TEST(QueryEngine, FailpointsLeaveEngineServiceable) {
  Engine engine(4);
  engine.apply_batch(path_edges(4));

  for (const char* spec : {"serve.compact=1", "serve.swap=1"}) {
    const ScopedEnv env("AFFOREST_FAILPOINTS", spec);
    failpoints_reload();
    EXPECT_THROW(engine.publish(), FailpointError) << spec;
    // Still serving the pre-failure epoch, and not wedged: queries work
    // and the writer lock was released by the unwinding publish.
    EXPECT_EQ(engine.epoch(), 1u) << spec;
    EXPECT_FALSE(engine.connected(0, 3)) << spec;
  }
  const ScopedEnv env("AFFOREST_FAILPOINTS", nullptr);
  failpoints_reload();

  engine.publish();  // recovers: the applied batch finally becomes visible
  EXPECT_EQ(engine.epoch(), 2u);
  EXPECT_TRUE(engine.connected(0, 3));
}

TEST(QueryEngine, TelemetryCountsServingEvents) {
  const telemetry::ScopedEnable scoped(/*fresh=*/true);
  Engine engine(8);
  engine.apply_and_publish(path_edges(8));  // 7 edges, 1 swap
  (void)engine.connected(0, 7);             // 1 query
  serve::QueryBatch<NodeID> batch;
  batch.add(1, 2);
  batch.add(3, 4);
  engine.answer(batch);  // 2 queries
  engine.publish();      // second swap

  const auto report = telemetry::capture();
  EXPECT_EQ(report.counters.serve_edges_ingested, 7u);
  EXPECT_EQ(report.counters.serve_snapshot_swaps, 2u);
  EXPECT_EQ(report.counters.serve_queries_served, 3u);
  bool saw_compact_phase = false;
  for (const auto& phase : report.phases)
    if (phase.name == "serve.compact") {
      saw_compact_phase = true;
      EXPECT_EQ(phase.count, 2u);
    }
  EXPECT_TRUE(saw_compact_phase);
}

TEST(QueryEngine, DegenerateBatchSizes) {
  Engine engine(4);
  serve::QueryBatch<NodeID> empty;
  engine.answer(empty);  // must not throw, stamps the epoch
  EXPECT_EQ(empty.epoch, 1u);
  EXPECT_EQ(empty.count(), 0u);

  EdgeList<NodeID> none;
  engine.apply_batch(none);
  engine.publish();
  EXPECT_EQ(engine.epoch(), 2u);
}

}  // namespace
}  // namespace afforest
