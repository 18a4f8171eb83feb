// EpochPublisher + SnapshotStore + WriterLock unit tests
// (src/serve/snapshot_store.hpp, src/serve/writer_lock.hpp): epoch
// monotonicity and the recovery epoch floor, begin_publish handing back
// the stale payload untouched, refcount-pinned cells (a leaked View or Ref
// surfaces as a typed ConvergenceError naming the serve knob, not a hung
// writer), the store's range-checked read plane, writer-lock contention,
// and torn-snapshot detection under a concurrent reader.
#include "serve/snapshot_store.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "../support/scoped_env.hpp"
#include "cc/guards.hpp"
#include "serve/writer_lock.hpp"

namespace afforest::serve {
namespace {

using ::afforest::testing::ScopedEnv;
using NodeID = std::int32_t;

/// All-in-one-component labels (min id 0 everywhere).
ComponentLabels<NodeID> merged_labels(std::int64_t n) {
  return ComponentLabels<NodeID>(static_cast<std::size_t>(n), 0);
}

bool mentions(const std::exception& e, const std::string& text) {
  return std::string(e.what()).find(text) != std::string::npos;
}

using Publisher = EpochPublisher<std::vector<int>>;

/// One full publish of `payload` (begin, overwrite, commit).
void publish_payload(Publisher& publisher, std::vector<int> payload) {
  *publisher.begin_publish() = std::move(payload);
  publisher.commit_publish();
}

TEST(EpochPublisherTest, BeginPublishHandsBackThePayloadFromTwoPublishesAgo) {
  Publisher publisher;
  EXPECT_EQ(publisher.epoch(), 0u);  // nothing committed yet
  publish_payload(publisher, {1, 1});  // epoch 1
  publish_payload(publisher, {2, 2});  // epoch 2, the other cell
  EXPECT_EQ(publisher.epoch(), 2u);
  // The stale cell is epoch 1's, exactly as it was committed: a payload
  // that refills in place (SnapshotStore) relies on this.
  std::vector<int>* stale = publisher.begin_publish();
  EXPECT_EQ(*stale, (std::vector<int>{1, 1}));
  stale->push_back(3);
  publisher.commit_publish();  // epoch 3
  EXPECT_EQ(*publisher.acquire(), (std::vector<int>{1, 1, 3}));
  EXPECT_EQ(*publisher.begin_publish(), (std::vector<int>{2, 2}));
}

TEST(EpochPublisherTest, AbortedPublishLeavesItsFillForTheRetry) {
  Publisher publisher;
  publish_payload(publisher, {1});
  publish_payload(publisher, {2});
  // A writer that dies between the steps publishes nothing; the retry's
  // begin_publish gets the same cell back, partial fill included.
  publisher.begin_publish()->push_back(9);
  EXPECT_EQ(publisher.epoch(), 2u);
  EXPECT_EQ(*publisher.acquire(), std::vector<int>{2});
  EXPECT_EQ(*publisher.begin_publish(), (std::vector<int>{1, 9}));
}

TEST(EpochPublisherTest, LeakedRefDrainErrorNamesEpochPinsAndKnob) {
  const ScopedEnv ceiling("AFFOREST_SERVE_SPIN_CEILING", "256");
  Publisher publisher;
  publish_payload(publisher, {1});  // epoch 1
  std::optional<Publisher::Ref> first(publisher.acquire());
  std::optional<Publisher::Ref> second(publisher.acquire());
  publish_payload(publisher, {2});  // epoch 2: the other cell, no wait
  try {
    (void)publisher.begin_publish();  // must reclaim epoch 1's cell
    FAIL() << "expected ConvergenceError";
  } catch (const ConvergenceError& e) {
    EXPECT_EQ(e.algorithm(), "serve.publish.drain");
    EXPECT_EQ(e.ceiling(), 256);
    EXPECT_TRUE(mentions(e, "stale epoch 1 still pinned by 2 reader(s)"))
        << e.what();
    EXPECT_TRUE(mentions(e, "AFFOREST_SERVE_SPIN_CEILING")) << e.what();
    EXPECT_FALSE(mentions(e, "AFFOREST_MAX_ITER")) << e.what();
  }
  // The pins still read their epoch; releasing them unblocks the writer.
  EXPECT_EQ(first->epoch(), 1u);
  EXPECT_EQ(**second, std::vector<int>{1});
  first.reset();
  second.reset();
  publish_payload(publisher, {3});
  EXPECT_EQ(publisher.epoch(), 3u);
}

TEST(SnapshotStoreTest, EpochStartsAtOneAndIncrementsPerPublish) {
  SnapshotStore<NodeID> store(4);
  EXPECT_EQ(store.epoch(), 1u);
  store.publish(merged_labels(4));
  EXPECT_EQ(store.epoch(), 2u);
  store.publish(identity_labels<NodeID>(4));
  EXPECT_EQ(store.epoch(), 3u);
}

TEST(SnapshotStoreTest, EpochFloorLiftsTheNextPublish) {
  SnapshotStore<NodeID> store(4);
  store.set_epoch_floor(100);
  EXPECT_EQ(store.epoch(), 1u);  // the floor alone publishes nothing
  store.publish(merged_labels(4));
  EXPECT_EQ(store.epoch(), 101u);  // strictly above the floor
  store.publish(identity_labels<NodeID>(4));
  EXPECT_EQ(store.epoch(), 102u);
}

TEST(SnapshotStoreTest, StaleEpochFloorIsANoOp) {
  SnapshotStore<NodeID> store(4);
  store.publish(merged_labels(4));
  store.publish(identity_labels<NodeID>(4));
  store.set_epoch_floor(2);  // below the counter: must not rewind
  store.publish(merged_labels(4));
  EXPECT_EQ(store.epoch(), 4u);
}

TEST(SnapshotStoreTest, RejectsSizesTheLabelTypeCannotHold) {
  EXPECT_THROW(SnapshotStore<std::int16_t>(40000), LabelWidthError);
  EXPECT_THROW(SnapshotStore<NodeID>(-1), std::invalid_argument);
  const SnapshotStore<std::int16_t> ok(32768);
  EXPECT_EQ(ok.num_nodes(), 32768);
  EXPECT_EQ(ok.acquire().component_count(), 32768);
}

TEST(SnapshotStoreTest, ViewPinsItsEpochAcrossOnePublish) {
  SnapshotStore<NodeID> store(4);
  const auto view = store.acquire();
  EXPECT_EQ(view.epoch(), 1u);
  store.publish(merged_labels(4));  // overwrites the OTHER buffer
  EXPECT_EQ(view.epoch(), 1u);     // pinned snapshot is untouched
  EXPECT_EQ(view.component_of(3), 3);
  EXPECT_EQ(store.acquire().epoch(), 2u);
}

TEST(SnapshotStoreTest, LeakedViewSurfacesAsConvergenceError) {
  ScopedEnv ceiling("AFFOREST_SERVE_SPIN_CEILING", "512");
  SnapshotStore<NodeID> store(4);
  std::optional<SnapshotStore<NodeID>::View> leaked(store.acquire());
  store.publish(merged_labels(4));  // other buffer: fine
  // The second publish must reclaim the buffer `leaked` still pins; with a
  // tiny spin ceiling the grace-period wait reports the leak as a typed
  // error naming the knob that bounds it, instead of spinning forever.
  try {
    store.publish(identity_labels<NodeID>(4));
    FAIL() << "expected ConvergenceError";
  } catch (const ConvergenceError& e) {
    EXPECT_TRUE(mentions(e, "serve.publish.drain")) << e.what();
    EXPECT_TRUE(mentions(e, "stale epoch 1 still pinned by 1 reader(s)"))
        << e.what();
    EXPECT_TRUE(mentions(e, "raise AFFOREST_SERVE_SPIN_CEILING")) << e.what();
    EXPECT_FALSE(mentions(e, "AFFOREST_MAX_ITER")) << e.what();
  }
  // Releasing the View drains the refcount and the writer recovers.
  leaked.reset();
  store.publish(identity_labels<NodeID>(4));
  EXPECT_EQ(store.acquire().component_of(3), 3);
}

TEST(SnapshotStoreTest, AnswerStampsTheSnapshotEpoch) {
  SnapshotStore<NodeID> store(4);
  store.publish(merged_labels(4));
  QueryBatch<NodeID> batch;
  batch.add(0, 3);
  batch.add(1, 1);
  store.answer(batch);
  EXPECT_EQ(batch.epoch, 2u);
  ASSERT_EQ(batch.count(), 2u);
  EXPECT_EQ(batch.connected[0], 1u);
  EXPECT_EQ(batch.component[0], 0);
  EXPECT_EQ(batch.component_size[0], 4);
}

TEST(SnapshotStoreTest, ReadPlaneIsRangeCheckedInTheOwnersName) {
  SnapshotStore<NodeID> store(4, "SomeEngine");
  store.publish(merged_labels(4));
  EXPECT_TRUE(store.connected(0, 3));
  EXPECT_EQ(store.component_of(2), 0);
  EXPECT_EQ(store.component_size(1), 4);
  EXPECT_EQ(store.component_count(), 1);
  try {
    (void)store.connected(0, 4);
    FAIL() << "expected VertexRangeError";
  } catch (const VertexRangeError& e) {
    EXPECT_EQ(e.vertex(), 4);
    EXPECT_TRUE(mentions(e, "SomeEngine")) << e.what();
  }
  EXPECT_THROW((void)store.component_of(-1), VertexRangeError);
  EXPECT_THROW((void)store.component_size(4), VertexRangeError);
  // A bad id anywhere in a batch rejects it before any output is written.
  QueryBatch<NodeID> batch;
  batch.add(0, 1);
  batch.add(2, 7);
  EXPECT_THROW(store.answer(batch), VertexRangeError);
  EXPECT_TRUE(batch.connected.empty());
  EXPECT_EQ(batch.epoch, 0u);
  try {
    const SnapshotStore<std::int16_t> narrow(40000, "SomeEngine");
    FAIL() << "expected LabelWidthError";
  } catch (const LabelWidthError& e) {
    EXPECT_TRUE(mentions(e, "SomeEngine")) << e.what();
  }
}

TEST(SnapshotStoreTest, LabelsIsADeepCopyOfThePublishedSnapshot) {
  SnapshotStore<NodeID> store(4);
  auto copy = store.labels();
  store.publish(merged_labels(4));
  EXPECT_EQ(copy[3], 3);  // the copy kept epoch 1
  copy[3] = 2;            // and writing it leaves the store alone
  const auto now = store.labels();
  for (std::size_t v = 0; v < now.size(); ++v) EXPECT_EQ(now[v], 0) << v;
}

TEST(SnapshotStoreTest, ConcurrentReaderNeverSeesATornSnapshot) {
  // The writer alternates between "one component of n" and "n singletons";
  // every pinned view must be internally consistent — component_size at a
  // fixed vertex is either n or 1, anything else is a torn snapshot.
  constexpr std::int64_t n = 64;
  SnapshotStore<NodeID> store(n);
  std::atomic<bool> stop{false};
  std::atomic<bool> torn{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const auto view = store.acquire();
      const std::int64_t size = view.component_size(0);
      if (size != n && size != 1) torn.store(true);
    }
  });
  const auto merged = merged_labels(n);
  const auto split = identity_labels<NodeID>(n);
  for (int i = 0; i < 200; ++i) store.publish(i % 2 == 0 ? merged : split);
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_FALSE(torn.load());
}

TEST(WriterLockTest, ContentionIsALogicErrorNotCorruption) {
  std::atomic<bool> flag{false};
  WriterLock held(flag, "test-engine");
  EXPECT_THROW(WriterLock(flag, "test-engine"), std::logic_error);
  // The failed acquisition must not have clobbered the holder's flag.
  EXPECT_TRUE(flag.load());
}

TEST(WriterLockTest, ReleaseAllowsReacquisition) {
  std::atomic<bool> flag{false};
  { WriterLock first(flag, "test-engine"); }
  EXPECT_FALSE(flag.load());
  WriterLock second(flag, "test-engine");
  EXPECT_TRUE(flag.load());
}

}  // namespace
}  // namespace afforest::serve
