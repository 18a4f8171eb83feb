// Unit tests for the sharded serving tier: routing, epoch/staleness
// semantics, quotient composition, label-width and vertex-id guards,
// failpoint recovery, atom pin release across publishes, router/partition
// agreement, and telemetry wiring.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>

#include "analysis/telemetry.hpp"
#include "cc/common.hpp"
#include "cc/guards.hpp"
#include "dist/partitioned_cc.hpp"
#include "serve/query_batch.hpp"
#include "shard/sharded_engine.hpp"
#include "support/scoped_env.hpp"
#include "util/failpoint.hpp"

namespace afforest {
namespace {

using ::afforest::testing::ScopedEnv;
using NodeID = std::int32_t;
using Engine = shard::ShardedEngine<NodeID>;

EdgeList<NodeID> path_edges(NodeID n) {
  EdgeList<NodeID> edges;
  for (NodeID v = 0; v + 1 < n; ++v) edges.push_back({v, v + 1});
  return edges;
}

TEST(ShardedEngine, StartsAsSingletonsAtEpochOne) {
  const Engine engine(10, 4);
  EXPECT_EQ(engine.num_nodes(), 10);
  EXPECT_EQ(engine.num_shards(), 4);
  EXPECT_EQ(engine.epoch(), 1u);
  EXPECT_EQ(engine.component_count(), 10);
  for (NodeID v = 0; v < 10; ++v) {
    EXPECT_EQ(engine.component_of(v), v);
    EXPECT_EQ(engine.component_size(v), 1);
  }
  EXPECT_FALSE(engine.connected(0, 9));
}

TEST(ShardedEngine, InvalidShardCountThrows) {
  EXPECT_THROW(Engine(4, 0), std::invalid_argument);
  EXPECT_THROW(Engine(4, -3), std::invalid_argument);
}

TEST(ShardedEngine, NarrowLabelTypeThrowsTypedOverflow) {
  // int16 labels cap at 32767 ids; 40000 vertices must be rejected with
  // the same typed guard partitioned_cc uses, not truncated.
  using Narrow = shard::ShardedEngine<std::int16_t>;
  try {
    const Narrow engine(40000, 2);
    FAIL() << "expected LabelWidthError";
  } catch (const LabelWidthError& e) {
    EXPECT_EQ(e.num_nodes(), 40000);
    EXPECT_EQ(e.max_label(), 32767);
  }
  // The widest representable shape is fine.
  const Narrow ok(32768, 2);
  EXPECT_EQ(ok.component_count(), 32768);
}

TEST(ShardedEngine, RouterAgreesWithPartitionOfEverywhere) {
  // The shard router IS partition_of — pin the agreement across a
  // non-divisible n/P split, including both edges of every block.
  const std::int64_t n = 23;
  const int parts = 7;
  const Engine engine(n, parts);
  for (NodeID v = 0; v < n; ++v)
    EXPECT_EQ(engine.shard_of(v), partition_of(v, n, parts)) << "v=" << v;
  for (int p = 0; p < parts; ++p) {
    const std::int64_t first = engine.shard_start(p);
    const std::int64_t last = engine.shard_start(p + 1) - 1;
    EXPECT_EQ(engine.shard_of(static_cast<NodeID>(first)), p);
    EXPECT_EQ(engine.shard_of(static_cast<NodeID>(last)), p);
  }
  EXPECT_EQ(engine.shard_start(0), 0);
  EXPECT_EQ(engine.shard_start(parts), n);
}

TEST(ShardedEngine, AppliedEdgesInvisibleUntilPublish) {
  Engine engine(8, 2);
  engine.apply_batch(path_edges(8));
  // Stale, never torn: still epoch 1, all singletons.
  EXPECT_EQ(engine.epoch(), 1u);
  EXPECT_FALSE(engine.connected(0, 7));
  EXPECT_EQ(engine.component_count(), 8);
  engine.publish();
  EXPECT_EQ(engine.epoch(), 2u);
  EXPECT_TRUE(engine.connected(0, 7));
  EXPECT_EQ(engine.component_count(), 1);
  EXPECT_EQ(engine.component_size(5), 8);
  EXPECT_EQ(engine.component_of(7), 0);  // min-id label convention
}

TEST(ShardedEngine, CrossShardComponentComposesThroughQuotient) {
  // 3 shards over 9 vertices; boundary edges bridge the blocks and an
  // internal shard-1 edge chains them into one component {2, 3, 5, 6}.
  Engine engine(9, 3);
  EdgeList<NodeID> edges;
  edges.push_back({2, 3});  // shard 0 -> 1
  edges.push_back({3, 5});  // internal to shard 1
  edges.push_back({5, 6});  // shard 1 -> 2
  engine.apply_and_publish(edges);
  EXPECT_TRUE(engine.connected(2, 6));
  EXPECT_EQ(engine.component_of(6), 2);
  EXPECT_EQ(engine.component_size(3), 4);  // {2, 3, 5, 6}
  EXPECT_FALSE(engine.connected(0, 2));
  EXPECT_EQ(engine.component_count(), 6);
}

TEST(ShardedEngine, MoreShardsThanVertices) {
  Engine engine(3, 50);  // most shards own zero vertices
  engine.apply_and_publish(path_edges(3));
  EXPECT_TRUE(engine.connected(0, 2));
  EXPECT_EQ(engine.component_count(), 1);
}

TEST(ShardedEngine, SelfLoopsAndDuplicateEdgesAreHarmless) {
  Engine engine(6, 2);
  EdgeList<NodeID> edges;
  edges.push_back({1, 1});
  edges.push_back({2, 4});  // cross-shard, duplicated both ways
  edges.push_back({4, 2});
  edges.push_back({2, 4});
  engine.apply_and_publish(edges);
  EXPECT_TRUE(engine.connected(2, 4));
  EXPECT_EQ(engine.component_size(1), 1);
  EXPECT_EQ(engine.component_count(), 5);
}

TEST(ShardedEngine, VertexRangeValidation) {
  Engine engine(8, 3);
  EXPECT_THROW((void)engine.connected(0, 8), VertexRangeError);
  EXPECT_THROW((void)engine.component_of(-1), VertexRangeError);
  EXPECT_THROW((void)engine.component_size(99), VertexRangeError);
  EdgeList<NodeID> bad;
  bad.push_back({0, 8});
  EXPECT_THROW(engine.apply_batch(bad), VertexRangeError);
  serve::QueryBatch<NodeID> batch;
  batch.add(0, 8);
  EXPECT_THROW(engine.answer(batch), VertexRangeError);
}

TEST(ShardedEngine, BatchAnswersStampOneEpoch) {
  Engine engine(10, 4);
  engine.apply_and_publish(path_edges(5));
  serve::QueryBatch<NodeID> batch;
  batch.add(0, 4);
  batch.add(9, 4);
  batch.add(7, 7);
  engine.answer(batch);
  EXPECT_EQ(batch.epoch, 2u);
  EXPECT_TRUE(batch.connected[0]);
  EXPECT_FALSE(batch.connected[1]);
  EXPECT_TRUE(batch.connected[2]);
  EXPECT_EQ(batch.component[0], 0);
  EXPECT_EQ(batch.component[1], 9);
  EXPECT_EQ(batch.component_size[0], 5);
  EXPECT_EQ(batch.component_size[1], 1);
}

TEST(ShardedEngine, ShardEpochsNeverMixedInOneAtom) {
  Engine engine(16, 4);
  for (int round = 0; round < 3; ++round) {
    engine.apply_and_publish(path_edges(16));
    const auto ref = engine.acquire();
    const auto epochs = Engine::shard_epochs(ref);
    ASSERT_EQ(epochs.size(), 4u);
    for (const std::uint64_t e : epochs) EXPECT_EQ(e, epochs.front());
    EXPECT_EQ(ref.epoch(), static_cast<std::uint64_t>(round) + 2);
  }
}

TEST(ShardedEngine, FailpointLeavesEngineServiceable) {
  Engine engine(8, 2);
  engine.apply_batch(path_edges(8));
  {
    const ScopedEnv env("AFFOREST_FAILPOINTS", "shard.swap=1");
    failpoints_reload();
    EXPECT_THROW(engine.publish(), FailpointError);
    // Still serving the pre-failure epoch, not wedged.
    EXPECT_EQ(engine.epoch(), 1u);
    EXPECT_FALSE(engine.connected(0, 7));
  }
  const ScopedEnv env("AFFOREST_FAILPOINTS", nullptr);
  failpoints_reload();
  engine.publish();  // recovers; the batch finally becomes visible
  EXPECT_TRUE(engine.connected(0, 7));
}

TEST(ShardedEngine, LeakedGlobalRefSurfacesAsConvergenceError) {
  // A View held across two publishes pins the atom cell the second
  // publish must reuse; its drain reports the leak as a typed error, and
  // the engine publishes normally once the ref is released.
  const ScopedEnv ceiling("AFFOREST_SERVE_SPIN_CEILING", "512");
  Engine engine(8, 2);
  std::optional<Engine::View> leaked(engine.acquire());  // epoch 1
  engine.apply_and_publish(path_edges(8));  // epoch 2, the other cell
  try {
    engine.publish();
    FAIL() << "expected ConvergenceError";
  } catch (const ConvergenceError& e) {
    const std::string what = e.what();
    EXPECT_EQ(e.algorithm(), "serve.publish.drain");
    EXPECT_NE(what.find("stale epoch 1 still pinned by 1 reader(s)"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("AFFOREST_SERVE_SPIN_CEILING"), std::string::npos)
        << what;
  }
  EXPECT_EQ(engine.epoch(), 2u);  // still serving, not wedged
  EXPECT_TRUE(engine.connected(0, 7));
  leaked.reset();
  EdgeList<NodeID> more;
  more.push_back({7, 0});
  engine.apply_and_publish(more);
  engine.publish();
  EXPECT_EQ(engine.epoch(), 4u);
  EXPECT_TRUE(engine.connected(0, 7));
  for (const std::uint64_t e : Engine::shard_epochs(engine.acquire()))
    EXPECT_EQ(e, 4u);
}

TEST(ShardedEngine, RepeatedPublishesReleaseTheStaleAtomsShardPins) {
  // Every publish reuses the atom cell from two epochs back, which still
  // pins that epoch's shard snapshots until rebuild_global resets it.  A
  // missed reset leaves the shard stores draining on those pins forever;
  // the small ceiling turns that into a fast ConvergenceError instead of
  // a 2^30-yield spin per drain.
  const ScopedEnv ceiling("AFFOREST_SERVE_SPIN_CEILING", "4096");
  Engine engine(16, 4);
  for (NodeID round = 0; round < 4; ++round) {
    EdgeList<NodeID> edges;
    edges.push_back({round, static_cast<NodeID>(round + 8)});
    ASSERT_NO_THROW(engine.apply_and_publish(edges)) << "round " << round;
    const auto ref = engine.acquire();
    EXPECT_EQ(ref.epoch(), static_cast<std::uint64_t>(round) + 2);
    for (const std::uint64_t e : Engine::shard_epochs(ref))
      EXPECT_EQ(e, ref.epoch());
  }
  for (NodeID v = 0; v < 4; ++v) EXPECT_TRUE(engine.connected(v, v + 8));
  EXPECT_EQ(engine.component_count(), 12);
}

TEST(ShardedEngine, LabelsMatchMinIdConvention) {
  Engine engine(12, 4);
  EdgeList<NodeID> edges;
  edges.push_back({11, 7});
  edges.push_back({7, 3});
  engine.apply_and_publish(edges);
  const auto labels = engine.labels();
  EXPECT_EQ(labels[11], 3);
  EXPECT_EQ(labels[7], 3);
  EXPECT_EQ(labels[3], 3);
  EXPECT_EQ(labels[0], 0);
}

TEST(ShardedEngine, TelemetryCountsShardEvents) {
  const telemetry::ScopedEnable scoped(/*fresh=*/true);
  Engine engine(10, 2);  // ctor publish: 1 epoch publish, no messages
  EdgeList<NodeID> edges;
  edges.push_back({0, 1});  // internal to shard 0
  edges.push_back({4, 5});  // boundary (blocks are [0,5) and [5,10))
  edges.push_back({3, 7});  // boundary
  engine.apply_and_publish(edges);
  const auto counters = telemetry::snapshot();
  EXPECT_EQ(counters.shard_boundary_msgs, 2u);
  // {4,5} and {3,7} merge distinct root pairs: 0-component {0,1} is not
  // involved, roots are (4,5) and (3,7) -> 2 deduped quotient edges.
  EXPECT_EQ(counters.shard_quotient_edges, 2u);
  EXPECT_EQ(counters.shard_epoch_publishes, 2u);  // ctor + publish
  EXPECT_EQ(counters.serve_edges_ingested, 3u);
}

TEST(ShardedEngine, BoundaryLogCompactsAcrossPublishes) {
  // After a publish, re-publishing without new edges must keep answers
  // stable (the compacted root-pair log re-derives the same quotient).
  Engine engine(10, 5);
  EdgeList<NodeID> edges;
  for (NodeID v = 0; v + 2 < 10; v += 2)
    edges.push_back({v, static_cast<NodeID>(v + 2)});  // all cross-shard
  engine.apply_and_publish(edges);
  EXPECT_TRUE(engine.connected(0, 8));
  const auto before = engine.labels();
  engine.publish();
  engine.publish();
  const auto after = engine.labels();
  for (std::size_t v = 0; v < before.size(); ++v)
    EXPECT_EQ(before[v], after[v]) << v;
  EXPECT_TRUE(engine.connected(0, 8));
  // New edges keep composing with the compacted log.
  EdgeList<NodeID> more;
  more.push_back({1, 3});
  engine.apply_and_publish(more);
  EXPECT_TRUE(engine.connected(1, 3));
  EXPECT_TRUE(engine.connected(0, 8));
}

TEST(ShardedEngine, ZeroNodesDegenerate) {
  Engine engine(0, 3);
  EXPECT_EQ(engine.component_count(), 0);
  EXPECT_EQ(engine.epoch(), 1u);
  engine.publish();
  EXPECT_EQ(engine.epoch(), 2u);
}

}  // namespace
}  // namespace afforest
