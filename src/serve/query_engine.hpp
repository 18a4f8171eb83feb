// Concurrent connectivity query engine: snapshot reads over a live
// Afforest forest.
//
// The ROADMAP north-star is a serving system, not an offline kernel.  This
// layer turns the paper's primitives into one:
//
//   * a single WRITER applies batched add_edge updates with link() (§III-B:
//     each edge is applied once, in any order — exactly the property that
//     lets updates stream in) and periodically compacts the forest with
//     compress() and publishes a new snapshot;
//   * many READERS answer connected / component_of / component_size against
//     an immutable, epoch-versioned snapshot label array.
//
// The snapshot machinery (RCU double buffering, reader refcount grace
// periods, epoch stamping) lives in serve/snapshot_store.hpp — it is shared
// with the decremental engine (serve/dynamic_cc.hpp), so the protocol has
// exactly one implementation.  This class owns the add-only write plane:
// the live parent forest written via link() and compacted on publish.
//
// Consistency guarantees (tested in tests/serve/linearizability_test.cpp,
// documented in docs/SERVING.md):
//   * snapshot isolation — every query in a batch is answered against one
//     snapshot, stamped with its epoch;
//   * monotone connectivity — edges are only added, snapshots only advance,
//     so once a reader observes connected(u, v) no later query may observe
//     them disconnected (Lemma 4's grow-only forest, lifted to epochs);
//   * freshness lag only — a query may miss edges applied after the last
//     publish, never edges published before its snapshot.
//
// Failure discipline: the compaction and swap paths carry failpoints
// (serve.compact / serve.swap — see docs/ROBUSTNESS.md) and the
// grace-period wait runs under a convergence guard, so a reader that never
// releases a snapshot surfaces as a typed ConvergenceError instead of a
// silent writer livelock.
//
// lint-scope: cc
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "analysis/telemetry.hpp"
#include "cc/afforest.hpp"
#include "cc/common.hpp"
#include "graph/edge_list.hpp"
#include "serve/query_batch.hpp"
#include "serve/snapshot_store.hpp"
#include "serve/writer_lock.hpp"
#include "util/failpoint.hpp"
#include "util/pvector.hpp"

namespace afforest::serve {

template <typename NodeID_ = std::int32_t>
class QueryEngine {
 public:
  using View = typename SnapshotStore<NodeID_>::View;

  /// Throws LabelWidthError when NodeID_ cannot label num_nodes vertices
  /// and std::invalid_argument for a negative count, before allocating.
  explicit QueryEngine(std::int64_t num_nodes)
      : live_(identity_labels<NodeID_>(
            check_label_width<NodeID_>("QueryEngine", num_nodes))),
        store_(num_nodes) {}

  [[nodiscard]] std::int64_t num_nodes() const {
    return static_cast<std::int64_t>(live_.size());
  }

  /// Epoch of the currently published snapshot (starts at 1; each
  /// publish() increments it).  Monotone non-decreasing across calls.
  [[nodiscard]] std::uint64_t epoch() const { return store_.epoch(); }

  // ---- read plane ---------------------------------------------------------

  /// Pins the current snapshot.  Concurrency-safe; any number of readers.
  [[nodiscard]] View acquire() const { return store_.acquire(); }

  /// Single-query conveniences; each pins the snapshot for one call.
  /// All of them throw VertexRangeError on an id outside [0, num_nodes()).
  [[nodiscard]] bool connected(NodeID_ u, NodeID_ v) const {
    check_vertex(u);
    check_vertex(v);
    const View view = store_.acquire();
    telemetry::on_queries_served(1);
    return view.connected(u, v);
  }

  [[nodiscard]] NodeID_ component_of(NodeID_ u) const {
    check_vertex(u);
    const View view = store_.acquire();
    telemetry::on_queries_served(1);
    return view.component_of(u);
  }

  [[nodiscard]] std::int64_t component_size(NodeID_ u) const {
    check_vertex(u);
    const View view = store_.acquire();
    telemetry::on_queries_served(1);
    return view.component_size(u);
  }

  [[nodiscard]] std::int64_t component_count() const {
    return store_.acquire().component_count();
  }

  /// Answers every query in the batch against ONE snapshot (stamped into
  /// batch.epoch) with an OpenMP-parallel sweep over the SoA columns.
  /// Throws VertexRangeError (before touching outputs) on any bad id.
  void answer(QueryBatch<NodeID_>& batch) const {
    const std::int64_t count = static_cast<std::int64_t>(batch.count());
    for (std::int64_t i = 0; i < count; ++i) {
      check_vertex(batch.u[i]);
      check_vertex(batch.v[i]);
    }
    store_.answer(batch);
  }

  // ---- write plane (single writer) ---------------------------------------

  /// Applies a batch of edges to the live forest via link() (parallel over
  /// the batch; link is lock-free).  The published snapshot is NOT
  /// affected — queries keep reading the previous epoch until publish().
  /// Throws VertexRangeError on any bad endpoint (before applying
  /// anything) and std::logic_error on concurrent writer calls.
  void apply_batch(const EdgeList<NodeID_>& batch) {
    apply_batch(batch.data(), batch.size());
  }

  /// Span-style overload so drivers can slice one big edge list into
  /// batches without copying.
  void apply_batch(const EdgePair<NodeID_>* edges, std::size_t count) {
    const WriterLock lock(writer_active_, "QueryEngine");
    const std::int64_t m = static_cast<std::int64_t>(count);
    for (std::int64_t i = 0; i < m; ++i) {
      check_vertex(edges[i].u);
      check_vertex(edges[i].v);
    }
#pragma omp parallel for schedule(static)
    for (std::int64_t i = 0; i < m; ++i)
      link(edges[i].u, edges[i].v, live_);
    telemetry::on_edges_ingested(static_cast<std::uint64_t>(m));
  }

  /// Compacts the live forest and publishes it as a new snapshot (epoch +1).
  /// Failpoints serve.compact / serve.swap fire before the respective step;
  /// either leaves the engine fully serviceable on the previous epoch.
  void publish() {
    const WriterLock lock(writer_active_, "QueryEngine");
    {
      const telemetry::ScopedPhase phase("serve.compact");
      failpoint_maybe_fail("serve.compact");
      // Quiescent for the live array: the single writer is here, readers
      // only touch snapshots.  compress keeps every access atomic anyway
      // (it is shared with the concurrent offline kernels).
      compress_all(live_);
    }
    store_.publish(live_);
  }

  /// Convenience: apply a batch and immediately publish the result.
  void apply_and_publish(const EdgeList<NodeID_>& batch) {
    apply_batch(batch);
    publish();
  }

  /// Snapshot of the published labels (deep copy; for verification).
  [[nodiscard]] ComponentLabels<NodeID_> labels() const {
    const View view = store_.acquire();
    return view.labels().clone();
  }

 private:
  void check_vertex(NodeID_ v) const {
    check_vertex_range("QueryEngine", v, num_nodes());
  }

  ComponentLabels<NodeID_> live_;  ///< parent forest, written via link()
  SnapshotStore<NodeID_> store_;
  mutable std::atomic<bool> writer_active_{false};
};

}  // namespace afforest::serve
