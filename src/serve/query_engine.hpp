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
// periods, epoch stamping) and the range-checked read plane live in
// serve/snapshot_store.hpp — shared with the decremental engine
// (serve/dynamic_cc.hpp), so each has exactly one implementation.  This
// class inherits the read plane and owns the add-only write plane: the
// live parent forest written via link() and compacted on publish.
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

#include <atomic>
#include <cstdint>

#include "analysis/telemetry.hpp"
#include "cc/afforest.hpp"
#include "cc/common.hpp"
#include "graph/edge_list.hpp"
#include "serve/snapshot_store.hpp"
#include "serve/writer_lock.hpp"
#include "util/failpoint.hpp"
#include "util/pvector.hpp"

namespace afforest::serve {

template <typename NodeID_ = std::int32_t>
class QueryEngine : private SnapshotStore<NodeID_> {
  using Store = SnapshotStore<NodeID_>;

 public:
  using View = typename Store::View;

  /// Throws LabelWidthError when NodeID_ cannot label num_nodes vertices
  /// and std::invalid_argument for a negative count, before allocating.
  explicit QueryEngine(std::int64_t num_nodes)
      : Store(num_nodes, "QueryEngine"),
        live_(identity_labels<NodeID_>(num_nodes)) {}

  // ---- read plane (SnapshotStore's, range-checked against num_nodes) -----

  using Store::acquire;
  using Store::answer;
  using Store::component_count;
  using Store::component_of;
  using Store::component_size;
  using Store::connected;
  using Store::epoch;
  using Store::labels;
  using Store::num_nodes;

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
    select_probe(TelemetryProbe{}, [&](auto probe) {
#pragma omp parallel for schedule(static)
      for (std::int64_t i = 0; i < m; ++i)
        link(edges[i].u, edges[i].v, live_, probe);
    });
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
    Store::publish(live_);
  }

  /// Convenience: apply a batch and immediately publish the result.
  void apply_and_publish(const EdgeList<NodeID_>& batch) {
    apply_batch(batch);
    publish();
  }

 private:
  using Store::check_vertex;

  ComponentLabels<NodeID_> live_;  ///< parent forest, written via link()
  mutable std::atomic<bool> writer_active_{false};
};

}  // namespace afforest::serve
