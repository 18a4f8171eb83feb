// SnapshotStore + WriterLock unit tests (src/serve/snapshot_store.hpp,
// src/serve/writer_lock.hpp): epoch monotonicity and the recovery epoch
// floor, refcount-pinned buffers (a leaked View surfaces as a typed
// ConvergenceError, not a hung writer), writer-lock contention, and
// torn-snapshot detection under a concurrent reader.
#include "serve/snapshot_store.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <thread>

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
  // error instead of spinning forever.
  EXPECT_THROW(store.publish(identity_labels<NodeID>(4)), ConvergenceError);
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
