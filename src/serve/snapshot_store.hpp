// Epoch-stamped RCU snapshot machinery, shared by every serving engine.
//
// Extracted from QueryEngine (PR 5) so the decremental engine
// (src/serve/dynamic_cc.hpp) reuses the exact same read-plane protocol
// instead of forking it: two label buffers (double buffering) behind one
// atomic published pointer.  publish() waits for the grace period of the
// buffer it is about to overwrite (reader refcount drains to zero), fills
// it from the writer's label array, and release-stores the pointer.
// Readers acquire-load the pointer, increment the buffer's refcount, and
// RE-CHECK the pointer: a reader that lost a race with two intervening
// publishes backs off instead of pinning a buffer the writer already
// reclaimed.  The release/acquire pair on `published_` is the
// happens-before edge that makes the buffer contents plain-readable; the
// refcount protocol is what keeps the writer from overwriting a buffer
// mid-read.
//
// Contract with writers: the source label array handed to publish() must be
// fully compressed (depth <= 1, labels = the minimum vertex id per
// component — the convention every kernel here shares).  The store computes
// component sizes itself so all engines agree on size semantics.
//
// Failure discipline: the swap path carries the serve.swap failpoint and
// the grace-period wait runs under a convergence guard, so a reader that
// never releases a View surfaces as a typed ConvergenceError instead of a
// silent writer livelock (ceiling: AFFOREST_SERVE_SPIN_CEILING, see
// serve_spin_ceiling()).
//
// lint-scope: cc
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>

#include "analysis/telemetry.hpp"
#include "cc/common.hpp"
#include "cc/guards.hpp"
#include "serve/query_batch.hpp"
#include "util/env.hpp"
#include "util/failpoint.hpp"
#include "util/parallel.hpp"
#include "util/pvector.hpp"

namespace afforest::serve {

/// Spin ceiling for the publish grace period and the reader re-check loop.
/// A reader parks a snapshot for the duration of one batch answer; the
/// default of 2^30 yields is orders of magnitude beyond any legitimate
/// batch, so hitting the ceiling means a leaked View (reader bug),
/// reported as a typed ConvergenceError rather than a hung writer.
/// AFFOREST_SERVE_SPIN_CEILING overrides the default (tests use a tiny
/// value to exercise the guard without minutes of spinning).
inline std::int64_t serve_spin_ceiling() {
  if (const auto v = env::as_int64("AFFOREST_SERVE_SPIN_CEILING");
      v && *v > 0)
    return *v;
  return std::int64_t{1} << 30;
}

template <typename NodeID_ = std::int32_t>
class SnapshotStore {
  struct Snapshot {
    ComponentLabels<NodeID_> labels;   ///< depth-0: labels[v] is v's root
    pvector<std::int64_t> sizes;       ///< sizes[r] = |component r|, valid at roots
    std::uint64_t epoch = 0;
    // mutable: Views hold const Snapshot* (labels are immutable through a
    // View) but must still drop their pin in release().
    mutable std::atomic<std::int64_t> readers{0};
  };

 public:
  /// A pinned snapshot: holds the buffer's refcount for its lifetime, so
  /// keep Views short-lived (one query or one batch).  Movable, not
  /// copyable.
  class View {
   public:
    View(View&& other) noexcept : snap_(other.snap_) { other.snap_ = nullptr; }
    View& operator=(View&& other) noexcept {
      if (this != &other) {
        release();
        snap_ = other.snap_;
        other.snap_ = nullptr;
      }
      return *this;
    }
    View(const View&) = delete;
    View& operator=(const View&) = delete;
    ~View() { release(); }

    [[nodiscard]] std::uint64_t epoch() const { return snap_->epoch; }

    /// The snapshot's immutable label array (depth 0, min-id labels).
    [[nodiscard]] const ComponentLabels<NodeID_>& labels() const {
      return snap_->labels;
    }

    /// Component sizes indexed by root label.
    [[nodiscard]] const pvector<std::int64_t>& sizes() const {
      return snap_->sizes;
    }

    /// True iff u and v were connected as of this snapshot.  O(1): the
    /// snapshot is fully compressed, so labels are component ids.
    // lint: parallel-context
    [[nodiscard]] bool connected(NodeID_ u, NodeID_ v) const {
      const auto& labels = snap_->labels;
      return atomic_load(labels[u]) == atomic_load(labels[v]);
    }

    /// Component id (minimum vertex id in the component) of u.
    // lint: parallel-context
    [[nodiscard]] NodeID_ component_of(NodeID_ u) const {
      const auto& labels = snap_->labels;
      return atomic_load(labels[u]);
    }

    /// Number of vertices in u's component.
    // lint: parallel-context
    [[nodiscard]] std::int64_t component_size(NodeID_ u) const {
      const auto& labels = snap_->labels;
      return snap_->sizes[atomic_load(labels[u])];
    }

    /// Number of components in this snapshot (O(|V|) scan).
    [[nodiscard]] std::int64_t component_count() const {
      const auto& labels = snap_->labels;
      const std::int64_t n = static_cast<std::int64_t>(labels.size());
      std::int64_t roots = 0;
#pragma omp parallel for reduction(+ : roots) schedule(static)
      for (std::int64_t x = 0; x < n; ++x)
        if (atomic_load(labels[x]) == static_cast<NodeID_>(x)) ++roots;
      return roots;
    }

   private:
    friend class SnapshotStore;
    explicit View(const Snapshot* snap) : snap_(snap) {}
    void release() {
      if (snap_ != nullptr)
        snap_->readers.fetch_sub(1, std::memory_order_acq_rel);
      snap_ = nullptr;
    }

    const Snapshot* snap_;
  };

  /// Throws LabelWidthError when NodeID_ cannot label num_nodes vertices
  /// and std::invalid_argument for a negative count, before allocating.
  explicit SnapshotStore(std::int64_t num_nodes) {
    check_label_width<NodeID_>("SnapshotStore", num_nodes);
    for (Snapshot& s : buffers_) {
      s.labels = identity_labels<NodeID_>(num_nodes);
      s.sizes = pvector<std::int64_t>(static_cast<std::size_t>(num_nodes),
                                      std::int64_t{1});
    }
    buffers_[0].epoch = 1;
    published_.store(&buffers_[0], std::memory_order_release);
  }

  [[nodiscard]] std::int64_t num_nodes() const {
    return static_cast<std::int64_t>(buffers_[0].labels.size());
  }

  /// Epoch of the currently published snapshot (starts at 1; each
  /// publish() increments it).  Monotone non-decreasing across calls.
  [[nodiscard]] std::uint64_t epoch() const { return acquire().epoch(); }

  /// Pins the current snapshot.  Concurrency-safe; any number of readers.
  [[nodiscard]] View acquire() const {
    std::int64_t spins = 0;
    for (;;) {
      Snapshot* snap = published_.load(std::memory_order_acquire);
      snap->readers.fetch_add(1, std::memory_order_acq_rel);
      // Re-check: if a publish landed between the load and the increment,
      // the writer may already have reclaimed `snap` for the next epoch —
      // back off and pin the fresh pointer instead.
      if (published_.load(std::memory_order_acquire) == snap)
        return View(snap);
      snap->readers.fetch_sub(1, std::memory_order_acq_rel);
      check_convergence_guard("serve.acquire", ++spins, serve_spin_ceiling());
      std::this_thread::yield();
    }
  }

  /// Raises the epoch counter so the NEXT publish stamps an epoch strictly
  /// greater than `floor`.  Writer-only, like publish().  Recovery
  /// (src/serve/durable_engine.hpp) uses this so a restarted engine never
  /// re-issues an epoch that pre-crash readers may have observed — epochs
  /// stay monotone across the crash, not just within one process life.
  void set_epoch_floor(std::uint64_t floor) {
    if (floor > epoch_counter_) epoch_counter_ = floor;
  }

  /// Publishes `source` (a fully compressed label array owned by the single
  /// writer) as a new snapshot with epoch +1.  Waits for the grace period
  /// of the buffer it overwrites; fires the serve.swap failpoint before the
  /// pointer swap — a failure there leaves the store fully serviceable on
  /// the previous epoch.  Single-writer only.
  void publish(const ComponentLabels<NodeID_>& source) {
    Snapshot& next =
        buffers_[1 - published_index_];  // the buffer published 2 epochs ago
    // Grace period: readers that pinned `next` before the previous swap
    // must drain before we overwrite it.
    std::int64_t spins = 0;
    const std::int64_t ceiling = serve_spin_ceiling();
    while (next.readers.load(std::memory_order_acquire) != 0) {
      check_convergence_guard("serve.publish.drain", ++spins, ceiling);
      std::this_thread::yield();
    }

    const std::int64_t n = num_nodes();
    {
      auto& labels = next.labels;
      auto& sizes = next.sizes;
#pragma omp parallel for schedule(static)
      for (std::int64_t x = 0; x < n; ++x) {
        atomic_store(labels[x],
                     atomic_load(source[static_cast<std::size_t>(x)]));
        sizes[x] = 0;  // owner-exclusive init write; accumulated below
      }
#pragma omp parallel for schedule(static)
      for (std::int64_t x = 0; x < n; ++x)
        fetch_and_add(sizes[atomic_load(labels[x])], std::int64_t{1});
    }

    failpoint_maybe_fail("serve.swap");
    next.epoch = ++epoch_counter_;
    published_index_ = 1 - published_index_;
    published_.store(&next, std::memory_order_release);
    telemetry::on_snapshot_swap();
  }

  /// Answers every query in `batch` against ONE pinned snapshot (stamped
  /// into batch.epoch) with an OpenMP-parallel sweep over the SoA columns.
  /// Callers are responsible for bounds-checking the batch first.
  void answer(QueryBatch<NodeID_>& batch) const {
    const std::int64_t count = static_cast<std::int64_t>(batch.count());
    batch.connected.resize(batch.count());
    batch.component.resize(batch.count());
    batch.component_size.resize(batch.count());

    const View view = acquire();
    batch.epoch = view.epoch();
    const auto& labels = view.labels();
    const auto& sizes = view.sizes();
#pragma omp parallel for schedule(static)
    for (std::int64_t i = 0; i < count; ++i) {
      const NodeID_ lu = atomic_load(labels[batch.u[i]]);
      const NodeID_ lv = atomic_load(labels[batch.v[i]]);
      batch.connected[i] = static_cast<std::uint8_t>(lu == lv);
      batch.component[i] = lu;
      batch.component_size[i] = sizes[lu];
    }
    telemetry::on_queries_served(static_cast<std::uint64_t>(count));
  }

 private:
  Snapshot buffers_[2];
  std::atomic<Snapshot*> published_{nullptr};
  std::int32_t published_index_ = 0;   ///< writer-only
  std::uint64_t epoch_counter_ = 1;    ///< writer-only
};

/// Generic epoch-stamped RCU double buffer over an arbitrary payload —
/// SnapshotStore's pointer-flip/refcount protocol factored out so composite
/// engines (the sharded coordinator, src/shard/sharded_engine.hpp) can
/// publish one atom holding MANY pinned shard snapshots plus derived state,
/// giving readers a single consistent cross-shard epoch.
///
/// Writer protocol (single writer, two steps):
///
///   1. begin_publish()  — waits for the stale buffer's readers to drain,
///      then DESTROYS its payload and returns a pointer to the emptied
///      slot.  The destruction order is the point: a composite payload
///      pins resources (e.g. shard Views from epoch e−1), and those pins
///      must drop BEFORE the caller asks the underlying stores to publish
///      again, or the inner grace period would wait on a pin the outer
///      buffer still holds — a self-deadlock.
///   2. commit_publish() — stamps the next epoch and release-stores the
///      pointer.  A writer failure between the two steps (exception from
///      building the new payload) leaves the previous epoch published and
///      the publisher fully serviceable — identical to SnapshotStore's
///      failpoint discipline.
///
/// Readers acquire() a Ref with the same pin/re-check/back-off loop as
/// SnapshotStore::acquire, under the same spin ceiling.
template <typename PayloadT>
class EpochPublisher {
  struct Cell {
    PayloadT payload{};
    std::uint64_t epoch = 0;
    mutable std::atomic<std::int64_t> readers{0};
  };

 public:
  /// A pinned payload + its epoch.  Movable, not copyable; keep it
  /// short-lived (one query or one batch), like SnapshotStore::View.
  class Ref {
   public:
    Ref(Ref&& other) noexcept : cell_(other.cell_) { other.cell_ = nullptr; }
    Ref& operator=(Ref&& other) noexcept {
      if (this != &other) {
        release();
        cell_ = other.cell_;
        other.cell_ = nullptr;
      }
      return *this;
    }
    Ref(const Ref&) = delete;
    Ref& operator=(const Ref&) = delete;
    ~Ref() { release(); }

    [[nodiscard]] std::uint64_t epoch() const { return cell_->epoch; }
    [[nodiscard]] const PayloadT& operator*() const { return cell_->payload; }
    [[nodiscard]] const PayloadT* operator->() const {
      return &cell_->payload;
    }

   private:
    friend class EpochPublisher;
    explicit Ref(const Cell* cell) : cell_(cell) {}
    void release() {
      if (cell_ != nullptr)
        cell_->readers.fetch_sub(1, std::memory_order_acq_rel);
      cell_ = nullptr;
    }

    const Cell* cell_;
  };

  EpochPublisher() { published_.store(&cells_[0], std::memory_order_release); }

  /// Epoch of the currently published payload (0 until the first commit).
  [[nodiscard]] std::uint64_t epoch() const { return acquire().epoch(); }

  /// Pins the current payload.  Concurrency-safe; any number of readers.
  [[nodiscard]] Ref acquire() const {
    std::int64_t spins = 0;
    for (;;) {
      Cell* cell = published_.load(std::memory_order_acquire);
      cell->readers.fetch_add(1, std::memory_order_acq_rel);
      if (published_.load(std::memory_order_acquire) == cell)
        return Ref(cell);
      cell->readers.fetch_sub(1, std::memory_order_acq_rel);
      check_convergence_guard("serve.epoch.acquire", ++spins,
                              serve_spin_ceiling());
      std::this_thread::yield();
    }
  }

  /// Step 1 of a publish: drains the stale buffer's grace period, destroys
  /// its payload (releasing everything epoch e−1 pinned), and returns the
  /// emptied slot for the caller to fill.  Single-writer only.
  PayloadT* begin_publish() {
    Cell& next = cells_[1 - published_index_];
    std::int64_t spins = 0;
    const std::int64_t ceiling = serve_spin_ceiling();
    while (next.readers.load(std::memory_order_acquire) != 0) {
      check_convergence_guard("serve.epoch.drain", ++spins, ceiling);
      std::this_thread::yield();
    }
    next.payload = PayloadT{};
    return &next.payload;
  }

  /// Step 2: stamps epoch +1 on the slot begin_publish() returned and
  /// atomically publishes it.  Single-writer only.
  void commit_publish() {
    Cell& next = cells_[1 - published_index_];
    next.epoch = ++epoch_counter_;
    published_index_ = 1 - published_index_;
    published_.store(&next, std::memory_order_release);
  }

 private:
  Cell cells_[2];
  std::atomic<Cell*> published_{nullptr};
  std::int32_t published_index_ = 0;  ///< writer-only
  std::uint64_t epoch_counter_ = 0;   ///< writer-only
};

}  // namespace afforest::serve
