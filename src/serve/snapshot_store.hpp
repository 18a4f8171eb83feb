// Epoch-stamped RCU snapshot machinery, shared by every serving engine.
//
// EpochPublisher is the one implementation of the read-plane protocol: two
// payload cells (double buffering) behind one atomic published pointer.
// A publish waits for the grace period of the cell it is about to refill
// (reader refcount drains to zero), lets the writer fill it, and
// release-stores the pointer.  Readers acquire-load the pointer, increment
// the cell's refcount, and RE-CHECK the pointer: a reader that lost a race
// with two intervening publishes backs off instead of pinning a cell the
// writer already reclaimed.  The release/acquire pair on `published_` is
// the happens-before edge that makes the payload plain-readable; the
// refcount protocol is what keeps the writer from overwriting a cell
// mid-read.
//
// SnapshotStore is a label payload on it plus the range-checked read plane
// QueryEngine and DynamicCC expose as their own; ShardedEngine
// (src/shard/sharded_engine.hpp) publishes its cross-shard atom directly.
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
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "analysis/telemetry.hpp"
#include "cc/common.hpp"
#include "cc/guards.hpp"
#include "serve/query_batch.hpp"
#include "util/env.hpp"
#include "util/failpoint.hpp"
#include "util/parallel.hpp"
#include "util/pvector.hpp"

namespace afforest::serve {

/// The knob bounding every serve-side spin loop, named in their
/// ConvergenceErrors (the kernel guards name AFFOREST_MAX_ITER instead).
inline constexpr const char* kServeSpinKnob = "AFFOREST_SERVE_SPIN_CEILING";

/// Spin ceiling for the publish grace period and the reader re-check loop.
/// A reader parks a snapshot for the duration of one batch answer; the
/// default of 2^30 yields is orders of magnitude beyond any legitimate
/// batch, so hitting the ceiling means a leaked View (reader bug),
/// reported as a typed ConvergenceError rather than a hung writer.
/// AFFOREST_SERVE_SPIN_CEILING overrides the default (tests use a tiny
/// value to exercise the guard without minutes of spinning).
inline std::int64_t serve_spin_ceiling() {
  if (const auto v = env::as_int64(kServeSpinKnob); v && *v > 0) return *v;
  return std::int64_t{1} << 30;
}

/// Epoch-stamped RCU double buffer over an arbitrary payload: a label
/// snapshot, or the sharded coordinator's atom holding MANY pinned shard
/// snapshots, which gives readers a single consistent cross-shard epoch.
///
/// Writer protocol (single writer, two steps):
///
///   1. begin_publish()  — waits for the stale cell's readers to drain and
///      returns its payload exactly as the writer left it two publishes
///      ago, so a payload can refill its buffers in place.  A payload that
///      pins resources (e.g. shard Views from epoch e−1) must drop them
///      right here, BEFORE the caller asks the underlying stores to
///      publish again, or the inner grace period would wait on a pin the
///      outer cell still holds — a self-deadlock.
///   2. commit_publish() — stamps the next epoch and release-stores the
///      pointer.  A writer failure between the two steps (exception from
///      building the new payload) leaves the previous epoch published and
///      the publisher fully serviceable.
template <typename PayloadT>
class EpochPublisher {
  struct Cell {
    PayloadT payload{};
    std::uint64_t epoch = 0;
    // mutable: Refs hold const Cell* (the payload is immutable through a
    // Ref) but must still drop their pin.
    mutable std::atomic<std::int64_t> readers{0};
  };

 public:
  /// A pinned payload + its epoch: holds the cell's refcount for its
  /// lifetime, so keep Refs short-lived (one query or one batch).
  /// Movable, not copyable.
  class Ref {
   public:
    [[nodiscard]] std::uint64_t epoch() const { return cell_->epoch; }
    [[nodiscard]] const PayloadT& operator*() const { return cell_->payload; }
    [[nodiscard]] const PayloadT* operator->() const {
      return &cell_->payload;
    }

   private:
    friend class EpochPublisher;
    explicit Ref(const Cell* cell) : cell_(cell) {}

    /// Drops the pin when the Ref dies or is moved over.
    struct Unpin {
      void operator()(const Cell* cell) const {
        cell->readers.fetch_sub(1, std::memory_order_acq_rel);
      }
    };
    std::unique_ptr<const Cell, Unpin> cell_;
  };

  /// Epoch of the currently published payload (0 until the first commit;
  /// +1 per commit).  Monotone non-decreasing across calls.
  [[nodiscard]] std::uint64_t epoch() const { return acquire().epoch(); }

  /// Pins the current payload.  Concurrency-safe; any number of readers.
  [[nodiscard]] Ref acquire() const {
    std::int64_t spins = 0;
    for (;;) {
      Cell* cell = published_.load(std::memory_order_acquire);
      cell->readers.fetch_add(1, std::memory_order_acq_rel);
      // Re-check: if a publish landed between the load and the increment,
      // the writer may already have reclaimed `cell` for the next epoch —
      // back off and pin the fresh pointer instead.
      if (published_.load(std::memory_order_acquire) == cell)
        return Ref(cell);
      cell->readers.fetch_sub(1, std::memory_order_acq_rel);
      check_convergence_guard("serve.acquire", ++spins, serve_spin_ceiling(),
                              kServeSpinKnob);
      std::this_thread::yield();
    }
  }

  /// Raises the epoch counter so the NEXT commit stamps an epoch strictly
  /// greater than `floor`.  Writer-only.  Recovery
  /// (src/serve/durable_engine.hpp) uses this so a restarted engine never
  /// re-issues an epoch that pre-crash readers may have observed — epochs
  /// stay monotone across the crash, not just within one process life.
  void set_epoch_floor(std::uint64_t floor) {
    if (floor > epoch_counter_) epoch_counter_ = floor;
  }

  /// Step 1 of a publish: drains the stale cell's grace period and returns
  /// its payload untouched for the caller to refill.  A reader that never
  /// releases its pin trips the guard, and the error names the stale
  /// epoch and its pin count.  Single-writer only.
  PayloadT* begin_publish() {
    Cell& next = cells_[1 - published_index_];
    std::int64_t spins = 0;
    std::int64_t pins = 0;
    const std::int64_t ceiling = serve_spin_ceiling();
    while ((pins = next.readers.load(std::memory_order_acquire)) != 0) {
      check_convergence_guard(
          "serve.publish.drain", ++spins, ceiling, kServeSpinKnob, [&] {
            return "stale epoch " + std::to_string(next.epoch) +
                   " still pinned by " + std::to_string(pins) + " reader(s)";
          });
      std::this_thread::yield();
    }
    return &next.payload;
  }

  /// Step 2: stamps epoch +1 on the cell begin_publish() returned and
  /// atomically publishes it.  Single-writer only.
  void commit_publish() {
    Cell& next = cells_[1 - published_index_];
    next.epoch = ++epoch_counter_;
    published_index_ = 1 - published_index_;
    published_.store(&next, std::memory_order_release);
  }

 private:
  Cell cells_[2];
  std::atomic<Cell*> published_{&cells_[0]};
  std::int32_t published_index_ = 0;  ///< writer-only
  std::uint64_t epoch_counter_ = 0;   ///< writer-only
};

/// Label snapshots on an EpochPublisher, plus the range-checked read plane
/// over them.  Engines inherit it privately and re-export the read plane,
/// passing their own name as `owner` for LabelWidthError and
/// VertexRangeError messages.
template <typename NodeID_ = std::int32_t>
class SnapshotStore {
  struct Snapshot {
    ComponentLabels<NodeID_> labels;   ///< depth-0: labels[v] is v's root
    pvector<std::int64_t> sizes;       ///< sizes[r] = |component r|, valid at roots
  };
  using Ref = typename EpochPublisher<Snapshot>::Ref;

 public:
  /// A pinned snapshot: holds the cell's refcount for its lifetime, so
  /// keep Views short-lived (one query or one batch).  Movable, not
  /// copyable.
  class View {
   public:
    [[nodiscard]] std::uint64_t epoch() const { return ref_.epoch(); }

    /// The snapshot's immutable label array (depth 0, min-id labels).
    [[nodiscard]] const ComponentLabels<NodeID_>& labels() const {
      return ref_->labels;
    }

    /// Component sizes indexed by root label.
    [[nodiscard]] const pvector<std::int64_t>& sizes() const {
      return ref_->sizes;
    }

    /// True iff u and v were connected as of this snapshot.  O(1): the
    /// snapshot is fully compressed, so labels are component ids.
    // lint: parallel-context
    [[nodiscard]] bool connected(NodeID_ u, NodeID_ v) const {
      const auto& labels = ref_->labels;
      return atomic_load(labels[u]) == atomic_load(labels[v]);
    }

    /// Component id (minimum vertex id in the component) of u.
    // lint: parallel-context
    [[nodiscard]] NodeID_ component_of(NodeID_ u) const {
      const auto& labels = ref_->labels;
      return atomic_load(labels[u]);
    }

    /// Number of vertices in u's component.
    // lint: parallel-context
    [[nodiscard]] std::int64_t component_size(NodeID_ u) const {
      const auto& labels = ref_->labels;
      return ref_->sizes[atomic_load(labels[u])];
    }

    /// Number of components in this snapshot (O(|V|) scan).
    [[nodiscard]] std::int64_t component_count() const {
      const auto& labels = ref_->labels;
      const std::int64_t n = static_cast<std::int64_t>(labels.size());
      std::int64_t roots = 0;
#pragma omp parallel for reduction(+ : roots) schedule(static)
      for (std::int64_t x = 0; x < n; ++x)
        if (atomic_load(labels[x]) == static_cast<NodeID_>(x)) ++roots;
      return roots;
    }

   private:
    friend class SnapshotStore;
    explicit View(Ref ref) : ref_(std::move(ref)) {}

    Ref ref_;
  };

  /// Publishes epoch 1, all singletons.  Throws LabelWidthError when
  /// NodeID_ cannot label num_nodes vertices and std::invalid_argument for
  /// a negative count, before allocating.
  explicit SnapshotStore(std::int64_t num_nodes,
                         const char* owner = "SnapshotStore")
      : owner_(owner),
        num_nodes_(check_label_width<NodeID_>(owner, num_nodes)) {
    Snapshot& first = *publisher_.begin_publish();
    first.labels = identity_labels<NodeID_>(num_nodes_);
    first.sizes = pvector<std::int64_t>(static_cast<std::size_t>(num_nodes_),
                                        std::int64_t{1});
    publisher_.commit_publish();
  }

  [[nodiscard]] std::int64_t num_nodes() const { return num_nodes_; }

  /// Epoch of the currently published snapshot (starts at 1; each
  /// publish() increments it).  Monotone non-decreasing across calls.
  [[nodiscard]] std::uint64_t epoch() const { return publisher_.epoch(); }

  /// Pins the current snapshot.  Concurrency-safe; any number of readers.
  [[nodiscard]] View acquire() const { return View(publisher_.acquire()); }

  /// Raises the epoch floor (EpochPublisher::set_epoch_floor): the next
  /// publish() stamps an epoch strictly greater than `floor`.
  void set_epoch_floor(std::uint64_t floor) {
    publisher_.set_epoch_floor(floor);
  }

  /// Publishes `source` (a fully compressed label array owned by the single
  /// writer) as a new snapshot with epoch +1.  Copies it into the cell
  /// published two epochs ago, once that cell's readers drain; fires the
  /// serve.swap failpoint before the pointer swap — a failure there leaves
  /// the store fully serviceable on the previous epoch.  Single-writer only.
  void publish(const ComponentLabels<NodeID_>& source) {
    Snapshot& next = *publisher_.begin_publish();
    const std::int64_t n = num_nodes_;
    // The constructor sizes only the epoch-1 cell; the other is sized on
    // its first reuse and refilled in place from then on.
    if (next.labels.size() != static_cast<std::size_t>(n)) {
      next.labels = ComponentLabels<NodeID_>(static_cast<std::size_t>(n));
      next.sizes = pvector<std::int64_t>(static_cast<std::size_t>(n));
    }
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
    publisher_.commit_publish();
    telemetry::on_snapshot_swap();
  }

  // ---- read plane ---------------------------------------------------------

  /// Single-query conveniences; each pins the snapshot for one call.
  /// All of them throw VertexRangeError on an id outside [0, num_nodes()).
  [[nodiscard]] bool connected(NodeID_ u, NodeID_ v) const {
    check_vertex(u);
    check_vertex(v);
    const View view = acquire();
    telemetry::on_queries_served(1);
    return view.connected(u, v);
  }

  [[nodiscard]] NodeID_ component_of(NodeID_ u) const {
    check_vertex(u);
    const View view = acquire();
    telemetry::on_queries_served(1);
    return view.component_of(u);
  }

  [[nodiscard]] std::int64_t component_size(NodeID_ u) const {
    check_vertex(u);
    const View view = acquire();
    telemetry::on_queries_served(1);
    return view.component_size(u);
  }

  [[nodiscard]] std::int64_t component_count() const {
    return acquire().component_count();
  }

  /// Answers every query in `batch` against ONE pinned snapshot (stamped
  /// into batch.epoch) with an OpenMP-parallel sweep over the SoA columns.
  /// Throws VertexRangeError (before touching outputs) on any bad id.
  void answer(QueryBatch<NodeID_>& batch) const {
    const std::int64_t count = static_cast<std::int64_t>(batch.count());
    for (std::int64_t i = 0; i < count; ++i) {
      check_vertex(batch.u[i]);
      check_vertex(batch.v[i]);
    }
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

  /// Snapshot of the published labels (deep copy; for verification).
  [[nodiscard]] ComponentLabels<NodeID_> labels() const {
    return acquire().labels().clone();
  }

 protected:
  /// Throws VertexRangeError, naming the owner, unless v is in
  /// [0, num_nodes()).
  void check_vertex(NodeID_ v) const {
    check_vertex_range(owner_, v, num_nodes_);
  }

 private:
  const char* owner_;  ///< engine named in LabelWidthError/VertexRangeError
  std::int64_t num_nodes_;
  EpochPublisher<Snapshot> publisher_;
};

}  // namespace afforest::serve
