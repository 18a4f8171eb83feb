// Ingestion front end (src/serve/ingest.hpp) unit suite: queue routing and
// the coalescer (exact-duplicate merge + root-equal no-op filtering, with
// the telemetry tallies), the backpressure contract (shed raises the typed
// QueueOverflowError and never silently drops; block is convergence-guarded
// so a dead consumer surfaces as a typed error, not a hang), the
// ingest.enqueue failpoint sweep (the queue stays serviceable after every
// injected failure), and the background-writer lifecycle including
// death-by-exception rethrow on stop.
#include "serve/ingest.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "../support/scoped_env.hpp"
#include "analysis/telemetry.hpp"
#include "cc/common.hpp"
#include "cc/guards.hpp"
#include "serve/query_engine.hpp"
#include "shard/sharded_engine.hpp"
#include "util/failpoint.hpp"

namespace afforest::serve {
namespace {

using ::afforest::testing::ScopedEnv;
using NodeID = std::int32_t;
using Engine = QueryEngine<NodeID>;
using Pipeline = IngestPipeline<Engine, NodeID>;

TEST(IngestOptionsTest, RejectsDegenerateConfiguration) {
  Engine engine(8);
  EXPECT_THROW(Pipeline(engine, {.queues = 0}), std::invalid_argument);
  EXPECT_THROW(Pipeline(engine, {.queue_capacity = 0}),
               std::invalid_argument);
}

TEST(IngestOptionsTest, BackpressureParseRoundTrips) {
  EXPECT_EQ(parse_backpressure("block"), BackpressurePolicy::kBlock);
  EXPECT_EQ(parse_backpressure("shed"), BackpressurePolicy::kShed);
  EXPECT_THROW(parse_backpressure("drop"), std::invalid_argument);
  EXPECT_STREQ(backpressure_name(BackpressurePolicy::kBlock), "block");
  EXPECT_STREQ(backpressure_name(BackpressurePolicy::kShed), "shed");
}

TEST(IngestCoalesceTest, MergesExactDuplicatesAfterNormalization) {
  Engine engine(8);
  Pipeline pipe(engine);
  // Four copies of the same undirected edge (two reversed) + one distinct.
  pipe.enqueue_to(0, {1, 2});
  pipe.enqueue_to(1, {2, 1});
  pipe.enqueue_to(2, {1, 2});
  pipe.enqueue_to(3, {2, 1});
  pipe.enqueue_to(0, {3, 4});
  EXPECT_EQ(pipe.pump(), 2u);  // {1,2} once + {3,4}

  const IngestStats s = pipe.stats();
  EXPECT_EQ(s.edges_enqueued, 5u);
  EXPECT_EQ(s.edges_coalesced, 3u);
  EXPECT_EQ(s.edges_dropped_noop, 0u);
  EXPECT_EQ(s.edges_applied, 2u);
  EXPECT_EQ(s.batches_applied, 1u);
  EXPECT_TRUE(engine.connected(1, 2));
  EXPECT_TRUE(engine.connected(3, 4));
  EXPECT_FALSE(engine.connected(1, 3));
}

TEST(IngestCoalesceTest, DropsRootEqualNoopsAgainstCurrentSnapshot) {
  Engine engine(8);
  Pipeline pipe(engine);
  pipe.enqueue({1, 2});
  ASSERT_EQ(pipe.pump(), 1u);

  // {1,2} is already connected in the published snapshot; {2,3} is not.
  pipe.enqueue({2, 1});
  pipe.enqueue({2, 3});
  EXPECT_EQ(pipe.pump(), 1u);
  const IngestStats s = pipe.stats();
  EXPECT_EQ(s.edges_dropped_noop, 1u);
  EXPECT_EQ(s.edges_applied, 2u);
  EXPECT_TRUE(engine.connected(1, 3));
}

TEST(IngestCoalesceTest, FiltersAreOptional) {
  Engine engine(8);
  Pipeline pipe(engine, {.coalesce = false, .drop_noops = false});
  pipe.enqueue({1, 2});
  ASSERT_EQ(pipe.pump(), 1u);
  pipe.enqueue({1, 2});
  pipe.enqueue({2, 1});
  EXPECT_EQ(pipe.pump(), 2u);  // duplicates and no-ops ride through
  const IngestStats s = pipe.stats();
  EXPECT_EQ(s.edges_coalesced, 0u);
  EXPECT_EQ(s.edges_dropped_noop, 0u);
}

TEST(IngestCoalesceTest, TelemetryCountersTally) {
  Engine engine(8);
  telemetry::set_enabled(true);
  telemetry::reset();
  {
    Pipeline pipe(engine);
    pipe.enqueue({1, 2});
    pipe.pump();
    pipe.enqueue({1, 2});  // no-op vs snapshot
    pipe.enqueue({3, 4});
    pipe.enqueue({4, 3});  // duplicate of {3,4}
    pipe.pump();
  }
  const telemetry::Counters c = telemetry::snapshot();
  telemetry::set_enabled(false);
  EXPECT_EQ(c.ingest_edges_coalesced, 1u);
  EXPECT_EQ(c.ingest_edges_dropped_noop, 1u);
}

/// Pumps one edge, then a no-op and a fresh edge, through an armed
/// pipeline over `engine`; returns how many queries the engine served.
template <typename EngineT>
std::uint64_t queries_served_while_pumping(EngineT& engine) {
  const telemetry::ScopedEnable armed;
  IngestPipeline<EngineT, NodeID> pipe(engine);
  pipe.enqueue({1, 2});
  pipe.pump();
  pipe.enqueue({2, 1});  // no-op vs snapshot
  pipe.enqueue({5, 6});
  pipe.pump();
  const std::uint64_t served = telemetry::snapshot().serve_queries_served;
  EXPECT_EQ(pipe.stats().edges_dropped_noop, 1u);
  EXPECT_EQ(pipe.stats().edges_applied, 2u);
  return served;
}

// The no-op filter reads one view pinned per pump, not the engine's query
// methods, so pumping serves no queries on any engine.
TEST(IngestCoalesceTest, NoopFilterServesNoQueries) {
  if (!telemetry::compiled_in()) GTEST_SKIP() << "telemetry compiled out";
  Engine engine(8);
  EXPECT_EQ(queries_served_while_pumping(engine), 0u);
  shard::ShardedEngine<NodeID> sharded(8, 3);  // {5, 6} crosses shards
  EXPECT_EQ(queries_served_while_pumping(sharded), 0u);
}

TEST(IngestPumpTest, EmptyDrainDoesNotTurnTheEpoch) {
  Engine engine(8);
  Pipeline pipe(engine);
  const std::uint64_t epoch0 = engine.acquire().epoch();
  EXPECT_EQ(pipe.pump(), 0u);
  EXPECT_EQ(engine.acquire().epoch(), epoch0);
  EXPECT_EQ(pipe.stats().pumps, 1u);
}

TEST(IngestPumpTest, AllNoopBatchSkipsApplyAndPublish) {
  Engine engine(8);
  Pipeline pipe(engine);
  pipe.enqueue({1, 2});
  ASSERT_EQ(pipe.pump(), 1u);
  const std::uint64_t epoch = engine.acquire().epoch();
  pipe.enqueue({1, 2});  // compacts away entirely
  EXPECT_EQ(pipe.pump(), 0u);
  EXPECT_EQ(engine.acquire().epoch(), epoch);
  EXPECT_EQ(pipe.stats().edges_dropped_noop, 1u);
}

TEST(IngestPumpTest, ConcurrentConsumersSurfaceDisciplineNotCorruption) {
  Engine engine(64);
  Pipeline pipe(engine);
  pipe.start_writer();
  // A manual pump racing the background writer is a consumer-discipline
  // violation: whichever side loses the WriterLock gets std::logic_error.
  // Whatever the interleaving, nothing accepted may be lost.
  for (NodeID i = 0; i < 32; ++i) {
    pipe.enqueue({i, static_cast<NodeID>(i + 1)});
    try {
      pipe.pump();
    } catch (const std::logic_error&) {
    }
  }
  try {
    pipe.stop_writer();  // rethrows if the background side lost the race
  } catch (const std::logic_error&) {
  }
  pipe.pump();  // single consumer again: drain whatever is left
  EXPECT_EQ(pipe.stats().edges_enqueued, 32u);
  EXPECT_TRUE(engine.connected(0, 32));
}

TEST(IngestRangeTest, BadEndpointThrowsBeforeTouchingTheQueue) {
  Engine engine(8);
  Pipeline pipe(engine);
  EXPECT_THROW(pipe.enqueue({0, 8}), VertexRangeError);
  EXPECT_THROW(pipe.enqueue({-1, 2}), VertexRangeError);
  EXPECT_EQ(pipe.stats().edges_enqueued, 0u);
  EXPECT_EQ(pipe.pump(), 0u);
}

TEST(IngestBackpressureTest, ShedRaisesTypedOverflowAndDropsNothingQueued) {
  Engine engine(64);
  Pipeline pipe(engine, {.queues = 2,
                         .queue_capacity = 4,
                         .policy = BackpressurePolicy::kShed});
  for (NodeID i = 0; i < 4; ++i)
    pipe.enqueue_to(0, {i, static_cast<NodeID>(i + 1)});
  try {
    pipe.enqueue_to(0, {10, 11});
    FAIL() << "expected QueueOverflowError";
  } catch (const QueueOverflowError& e) {
    EXPECT_EQ(e.queue(), 0u);
    EXPECT_EQ(e.capacity(), 4u);
  }
  // The OTHER queue still accepts; nothing already accepted was lost.
  pipe.enqueue_to(1, {20, 21});
  EXPECT_EQ(pipe.pump(), 5u);
  EXPECT_EQ(pipe.stats().edges_enqueued, 5u);
  EXPECT_TRUE(engine.connected(0, 4));
  EXPECT_TRUE(engine.connected(20, 21));
}

TEST(IngestBackpressureTest, BlockIsConvergenceGuardedWhenConsumerIsDead) {
  Engine engine(8);
  Pipeline pipe(engine, {.queues = 1, .queue_capacity = 1});
  const ScopedEnv ceiling("AFFOREST_SERVE_SPIN_CEILING", "2000");
  pipe.enqueue_to(0, {1, 2});
  // No consumer is running: the blocked producer must surface the typed
  // guard error at the spin ceiling instead of hanging forever, naming the
  // knob that bounds it.
  try {
    pipe.enqueue_to(0, {3, 4});
    FAIL() << "expected ConvergenceError";
  } catch (const ConvergenceError& e) {
    const std::string what = e.what();
    EXPECT_EQ(e.algorithm(), "ingest.enqueue.block");
    EXPECT_EQ(e.ceiling(), 2000);
    EXPECT_NE(what.find("raise AFFOREST_SERVE_SPIN_CEILING"),
              std::string::npos)
        << what;
    EXPECT_EQ(what.find("AFFOREST_MAX_ITER"), std::string::npos) << what;
  }
  EXPECT_EQ(pipe.pump(), 1u);  // the accepted edge is intact
}

TEST(IngestBackpressureTest, BlockUnblocksWhenConsumerDrains) {
  Engine engine(64);
  Pipeline pipe(engine, {.queues = 1, .queue_capacity = 2});
  std::atomic<bool> done{false};
  std::thread producer([&] {
    for (NodeID i = 0; i < 16; ++i)
      pipe.enqueue_to(0, {i, static_cast<NodeID>(i + 1)});
    done.store(true);
  });
  while (!done.load()) pipe.pump();
  producer.join();
  pipe.pump();
  EXPECT_EQ(pipe.stats().edges_enqueued, 16u);
  EXPECT_TRUE(engine.connected(0, 16));
}

// The failpoint sweep cell: inject a one-shot failure at each of the first
// few enqueues in turn and prove the pipeline stays serviceable — the
// failing enqueue raises the typed FailpointError BEFORE any queue
// mutation, every other edge lands, and the pumped engine state reflects
// exactly the accepted set.
TEST(IngestFailpointTest, EnqueueSweepStaysServiceable) {
  for (int shot = 1; shot <= 4; ++shot) {
    const ScopedEnv spec("AFFOREST_FAILPOINTS",
                         ("ingest.enqueue=@" + std::to_string(shot)).c_str());
    failpoints_reload();
    Engine engine(64);
    Pipeline pipe(engine, {.queues = 2});
    std::size_t failures = 0;
    for (NodeID i = 0; i < 8; ++i) {
      try {
        pipe.enqueue_to(static_cast<std::size_t>(i) % 2,
                        {i, static_cast<NodeID>(i + 1)});
      } catch (const FailpointError&) {
        ++failures;
      }
    }
    EXPECT_EQ(failures, 1u) << "one-shot @" << shot;
    EXPECT_EQ(pipe.stats().edges_enqueued, 7u);
    EXPECT_EQ(pipe.pump(), 7u);
    // The edge that failed at the failpoint is the only one missing.
    const NodeID missing_u = static_cast<NodeID>(shot - 1);
    for (NodeID i = 0; i < 8; ++i) {
      const bool expect_connected = i != missing_u;
      EXPECT_EQ(engine.connected(i, i + 1), expect_connected)
          << "shot=" << shot << " edge=" << i;
    }
  }
  failpoints_reload();
}

TEST(IngestWriterTest, BackgroundWriterDrainsMultipleProducers) {
  Engine engine(1 << 10);
  Pipeline pipe(engine, {.queues = 4, .queue_capacity = 64});
  pipe.start_writer();
  std::vector<std::thread> producers;
  constexpr int kProducers = 4;
  constexpr NodeID kPerProducer = 128;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (NodeID i = 0; i < kPerProducer; ++i) {
        // Chain all of [0, 512] so the final component is easy to assert.
        const auto u = static_cast<NodeID>(p * kPerProducer + i);
        pipe.enqueue({u, static_cast<NodeID>(u + 1)});
      }
    });
  }
  for (auto& t : producers) t.join();
  pipe.stop_writer();
  EXPECT_EQ(pipe.stats().edges_enqueued,
            static_cast<std::uint64_t>(kProducers) * kPerProducer);
  EXPECT_TRUE(engine.connected(0, kProducers * kPerProducer));
  EXPECT_EQ(engine.acquire().component_size(0),
            static_cast<std::int64_t>(kProducers) * kPerProducer + 1);
}

TEST(IngestWriterTest, StopRethrowsWhenTheWriterDies) {
  {
    const ScopedEnv spec("AFFOREST_FAILPOINTS", "serve.compact=@1");
    failpoints_reload();
    Engine engine(8);
    Pipeline pipe(engine);
    pipe.start_writer();
    pipe.enqueue({1, 2});  // the pump's publish() hits serve.compact, dies
    EXPECT_THROW(pipe.stop_writer(), FailpointError);
  }
  failpoints_reload();  // env restored first, so this disarms
}

TEST(IngestWriterTest, StartTwiceIsRejected) {
  Engine engine(8);
  Pipeline pipe(engine);
  pipe.start_writer();
  EXPECT_THROW(pipe.start_writer(), std::logic_error);
  pipe.stop_writer();
  pipe.start_writer();  // restart after a clean stop is fine
  pipe.stop_writer();
}

}  // namespace
}  // namespace afforest::serve
