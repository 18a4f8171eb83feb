// Sharded serving tier: N single-writer QueryEngines behind one
// coordinator, one cross-shard epoch.
//
// This is the ROADMAP's composition step — src/dist/partitioned_cc's
// BSP quotient exchange promoted from a simulation into a live serving
// architecture.  Vertices are 1D-block partitioned with the SAME
// partition_of map the simulation uses (the simulated ranks and the real
// shards agree on ownership by construction); each shard owns a
// QueryEngine over its block, relabeled to local ids.  The paper's
// sampling insight is what makes the coordinator cheap: local link work
// collapses each block to a handful of roots, so the cross-shard state is
// a tiny quotient union-find over root ids, not a second copy of the
// graph.
//
// Write plane (single coordinator writer):
//   * apply_batch routes each edge — internal edges go to the owning
//     shard's engine (local ids), cross-shard edges land in a boundary
//     log as the (u, v) messages a real deployment would ship
//     (telemetry: shard_boundary_msgs).
//   * publish() runs the BSP merge superstep: every shard compacts and
//     publishes, the boundary log is translated against the FRESH shard
//     snapshots into deduplicated (root_u, root_v) quotient messages
//     (shard_quotient_edges), a union-by-min quotient union-find resolves
//     them, and the whole thing — pinned shard views + resolved quotient
//     maps — is published as ONE epoch atom (shard_epoch_publishes).
//     The log is then compacted to the deduped root pairs: a stored root
//     is a real vertex id, so its root under any FUTURE snapshot is
//     recoverable — compaction is lossless and keeps the log
//     proportional to the quotient, not the edge stream.
//
// Read plane: acquire() pins one GlobalSnapshot as a View, which answers
// the same queries as SnapshotStore's View by composing
//   global_label(v) = quotient_root(shard_start + local_label(v))
// entirely within that atom.  Readers can never observe shard A at epoch
// e and shard B at e−1: the only path to shard snapshots is through the
// atom, and the atom is swapped with the same RCU pointer-flip protocol
// the per-shard stores use (EpochPublisher, serve/snapshot_store.hpp).
// Labels stay exact min vertex ids: shard-local labels are local minima,
// blocks are contiguous and order-preserving, and the quotient unions by
// min — so a sharded answer is bit-identical to a single-shard
// QueryEngine over the same edges (the differential suite pins this).
//
// Epoch lockstep: every shard publishes exactly once per coordinator
// publish and nobody else may call the shard engines' writer methods, so
// shard epochs always equal the global epoch (asserted at publish).
//
// Grace-period ordering (the subtle part): the stale global buffer pins
// shard views from epoch e−1 — exactly the shard buffers the shard
// stores want to overwrite next.  publish() therefore FIRST drains the
// stale global cell (EpochPublisher::begin_publish) and resets it,
// releasing those pins, and only then runs the per-shard publishes.  The
// reverse order would self-deadlock in the shard stores' drain loops.
//
// lint-scope: cc
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analysis/telemetry.hpp"
#include "cc/common.hpp"
#include "dist/partitioned_cc.hpp"
#include "dist/quotient.hpp"
#include "graph/edge_list.hpp"
#include "serve/query_batch.hpp"
#include "serve/query_engine.hpp"
#include "serve/snapshot_store.hpp"
#include "serve/writer_lock.hpp"
#include "util/failpoint.hpp"
#include "util/pvector.hpp"

namespace afforest::shard {

template <typename NodeID_ = std::int32_t>
class ShardedEngine {
 public:
  using Engine = serve::QueryEngine<NodeID_>;
  using ShardView = typename serve::SnapshotStore<NodeID_>::View;

  /// One consistent cross-shard state: the pinned per-shard snapshots all
  /// queries of this epoch read, plus the resolved quotient.  Owned and
  /// swapped atomically by the EpochPublisher; readers hold it only
  /// through a View.
  struct GlobalSnapshot {
    std::vector<ShardView> views;  ///< one pinned snapshot per shard
    /// pre-quotient global root -> final (min) global root, fully resolved
    std::unordered_map<NodeID_, NodeID_> quotient_root;
    /// final global root -> component size, for cross-shard components only
    std::unordered_map<NodeID_, std::int64_t> quotient_size;
    std::int64_t component_count = 0;
  };

  /// A pinned cross-shard atom answering SnapshotStore::View's queries as
  /// of its epoch: holds the atom's refcount for its lifetime, so keep
  /// Views short-lived (one query or one batch).  `->` and `*` expose the
  /// atom itself (shard views, quotient maps) for tests and probes.  Ids
  /// are not range-checked here; the engine's query methods check them.
  /// Movable, not copyable.
  class View {
   public:
    [[nodiscard]] std::uint64_t epoch() const { return ref_.epoch(); }
    [[nodiscard]] const GlobalSnapshot& operator*() const { return *ref_; }
    [[nodiscard]] const GlobalSnapshot* operator->() const {
      return &*ref_;
    }

    [[nodiscard]] bool connected(NodeID_ u, NodeID_ v) const {
      return component_of(u) == component_of(v);
    }

    /// The minimum global vertex id in u's component, as on a single
    /// engine: the owning shard's root, then the quotient's final say.
    [[nodiscard]] NodeID_ component_of(NodeID_ u) const {
      const NodeID_ root = engine_->raw_root(*ref_, u);
      const auto it = ref_->quotient_root.find(root);
      return it == ref_->quotient_root.end() ? root : it->second;
    }

    [[nodiscard]] std::int64_t component_size(NodeID_ u) const {
      return size_of_root(component_of(u), u);
    }

    /// O(1): resolved at publish.
    [[nodiscard]] std::int64_t component_count() const {
      return ref_->component_count;
    }

   private:
    friend class ShardedEngine;
    using Ref = typename serve::EpochPublisher<GlobalSnapshot>::Ref;

    View(Ref ref, const ShardedEngine& engine)
        : ref_(std::move(ref)), engine_(&engine) {}

    /// Size of the component rooted at `root` (u: any member, used to reach
    /// the owning shard when the component never crossed a boundary).
    [[nodiscard]] std::int64_t size_of_root(NodeID_ root, NodeID_ u) const {
      const auto it = ref_->quotient_size.find(root);
      if (it != ref_->quotient_size.end()) return it->second;
      const int p = engine_->shard_of(u);
      return ref_->views[p].component_size(
          static_cast<NodeID_>(u - engine_->shard_start_[p]));
    }

    Ref ref_;
    const ShardedEngine* engine_;  ///< shard map for the composition
  };

  /// num_shards >= 1.  Throws LabelWidthError when num_nodes exceeds what
  /// NodeID_ can label — same typed guard as partitioned_cc.
  ShardedEngine(std::int64_t num_nodes, int num_shards)
      : num_nodes_(num_nodes), num_shards_(num_shards) {
    if (num_shards < 1)
      throw std::invalid_argument("ShardedEngine: num_shards must be >= 1");
    check_label_width<NodeID_>("ShardedEngine", num_nodes);
    shard_start_.resize(static_cast<std::size_t>(num_shards) + 1);
    for (int p = 0; p <= num_shards; ++p)
      shard_start_[p] = partition_first(p, num_nodes, num_shards);
    shards_.reserve(static_cast<std::size_t>(num_shards));
    for (int p = 0; p < num_shards; ++p)
      shards_.push_back(
          std::make_unique<Engine>(shard_start_[p + 1] - shard_start_[p]));
    // Install epoch 1 (all-singletons) so reads and shard epochs are in
    // lockstep from birth, exactly like a fresh QueryEngine.
    rebuild_global();
  }

  [[nodiscard]] std::int64_t num_nodes() const { return num_nodes_; }
  [[nodiscard]] int num_shards() const { return num_shards_; }

  /// Which shard owns vertex v — the dist layer's 1D block map verbatim.
  [[nodiscard]] int shard_of(NodeID_ v) const {
    return partition_of(static_cast<std::int64_t>(v), num_nodes_,
                        num_shards_);
  }

  /// First global vertex id of shard p (== num_nodes() at p == num_shards).
  [[nodiscard]] std::int64_t shard_start(int p) const {
    return shard_start_[p];
  }

  // ---- read plane ---------------------------------------------------------

  /// Cross-shard epoch of the published atom (starts at 1, +1 per
  /// publish; always equals every shard's snapshot epoch inside the atom).
  [[nodiscard]] std::uint64_t epoch() const { return publisher_.epoch(); }

  /// Pins the current cross-shard atom.  Concurrency-safe; any number of
  /// readers.
  [[nodiscard]] View acquire() const {
    return View(publisher_.acquire(), *this);
  }

  /// Shard-snapshot epochs inside one atom — the linearizability tests'
  /// probe that a reader can never see mixed epochs.
  [[nodiscard]] static std::vector<std::uint64_t> shard_epochs(
      const View& view) {
    std::vector<std::uint64_t> epochs;
    epochs.reserve(view->views.size());
    for (const ShardView& shard : view->views) epochs.push_back(shard.epoch());
    return epochs;
  }

  /// Single-query conveniences; each pins the atom for one call and
  /// throws VertexRangeError on ids outside [0, num_nodes()).
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

  /// Answers every query against ONE atom (stamped into batch.epoch) with
  /// an OpenMP-parallel sweep.  Throws VertexRangeError before touching
  /// outputs on any bad id.
  void answer(serve::QueryBatch<NodeID_>& batch) const {
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
#pragma omp parallel for schedule(static)
    for (std::int64_t i = 0; i < count; ++i) {
      const NodeID_ ru = view.component_of(batch.u[i]);
      const NodeID_ rv = view.component_of(batch.v[i]);
      batch.connected[i] = static_cast<std::uint8_t>(ru == rv);
      batch.component[i] = ru;
      batch.component_size[i] = view.size_of_root(ru, batch.u[i]);
    }
    telemetry::on_queries_served(static_cast<std::uint64_t>(count));
  }

  /// Published global labels (deep copy; for verification).  Exactly the
  /// array a single-shard QueryEngine over the same edges would publish.
  [[nodiscard]] ComponentLabels<NodeID_> labels() const {
    const View view = acquire();
    ComponentLabels<NodeID_> out(static_cast<std::size_t>(num_nodes_));
#pragma omp parallel for schedule(static)
    for (std::int64_t v = 0; v < num_nodes_; ++v)
      out[v] = view.component_of(static_cast<NodeID_>(v));  // NOLINT(afforest-plain-shared-access): owner-exclusive init write
    return out;
  }

  // ---- write plane (single coordinator writer) ----------------------------

  /// Routes a batch: internal edges to their owning shard's engine,
  /// cross-shard edges into the boundary log.  Published answers are NOT
  /// affected until publish().  Throws VertexRangeError on any bad
  /// endpoint (before applying anything) and std::logic_error on
  /// concurrent writer calls.
  void apply_batch(const EdgeList<NodeID_>& batch) {
    apply_batch(batch.data(), batch.size());
  }

  void apply_batch(const EdgePair<NodeID_>* edges, std::size_t count) {
    const serve::WriterLock lock(writer_active_, "ShardedEngine");
    const std::int64_t m = static_cast<std::int64_t>(count);
    for (std::int64_t i = 0; i < m; ++i) {
      check_vertex(edges[i].u);
      check_vertex(edges[i].v);
    }
    // Route.  Staging buffers persist across batches to amortize their
    // allocations; the boundary log persists by design (merged at publish).
    for (auto& staged : staging_) staged.clear();
    std::uint64_t boundary = 0;
    for (std::int64_t i = 0; i < m; ++i) {
      const NodeID_ u = edges[i].u;
      const NodeID_ v = edges[i].v;
      const int pu = shard_of(u);
      const int pv = shard_of(v);
      if (pu == pv) {
        staging_[pu].push_back(
            {static_cast<NodeID_>(u - shard_start_[pu]),
             static_cast<NodeID_>(v - shard_start_[pu])});
      } else {
        boundary_log_.push_back({u, v});
        ++boundary;
      }
    }
    for (int p = 0; p < num_shards_; ++p)
      if (staging_[p].size() != 0)
        shards_[p]->apply_batch(staging_[p].data(), staging_[p].size());
    telemetry::on_shard_boundary_msgs(boundary);
    // Internal edges were already tallied by the shard engines' own
    // apply_batch; count only the boundary edges here so the total across
    // the tier is exactly m per batch.
    telemetry::on_edges_ingested(boundary);
  }

  /// The BSP merge superstep: compacts + publishes every shard, resolves
  /// the boundary log into the cross-shard quotient against the fresh
  /// shard snapshots, and atomically publishes one new global epoch.
  /// The shard.swap failpoint fires after the shard publishes, before the
  /// global flip: a failure there leaves readers on the previous global
  /// epoch (shard snapshots may have advanced underneath, but no reader
  /// can see them until the next successful publish — the atom is the
  /// only read path).
  void publish() {
    const serve::WriterLock lock(writer_active_, "ShardedEngine");
    rebuild_global();
  }

  /// Convenience: route a batch and immediately publish the result.
  void apply_and_publish(const EdgeList<NodeID_>& batch) {
    apply_batch(batch);
    publish();
  }

 private:
  void check_vertex(NodeID_ v) const {
    check_vertex_range("ShardedEngine", v, num_nodes_);
  }

  /// Shared tail of the constructor and publish(): shard publishes, then
  /// quotient rebuild, then the atomic global flip.  Caller holds the
  /// writer lock (constructor runs pre-publication, so it needs none).
  void rebuild_global() {
    const bool first = publisher_.epoch() == 0;
    // A previous publish may have died between the shard publishes and the
    // global flip (the shard.swap failpoint's position).  The shards are
    // then one epoch ahead of the atom: re-driving their publishes would
    // deadlock on the pins the still-published atom holds — and is
    // unnecessary, because the interrupted superstep's shard state is
    // already published.  Skip step 1 and re-drive only the quotient
    // rebuild + flip; this realigns the lockstep, and any edges applied
    // after the failure ride the next publish as usual.
    const bool shards_ahead =
        !first && shards_.front()->epoch() == publisher_.epoch() + 1;
    // Step 0 — release epoch e−1's pins BEFORE shard publishes (see the
    // grace-period ordering note in the header comment): begin_publish
    // hands the drained cell back as it was, views and all.
    GlobalSnapshot* next = publisher_.begin_publish();
    *next = GlobalSnapshot{};

    if (staging_.empty())
      staging_.resize(static_cast<std::size_t>(num_shards_));

    // Step 1 — per-shard compact + publish (skipped on the constructor
    // pass: a fresh QueryEngine is born already published at epoch 1).
    if (!first && !shards_ahead) {
      const telemetry::ScopedPhase phase("shard.publish.shards");
      for (auto& shard : shards_) shard->publish();
    }

    // Step 2 — pin the fresh shard snapshots and verify epoch lockstep.
    next->views.reserve(shards_.size());
    std::int64_t components = 0;
    for (auto& shard : shards_) {
      next->views.push_back(shard->acquire());
      components += next->views.back().component_count();
      if (next->views.back().epoch() != next->views.front().epoch())
        throw std::logic_error(
            "ShardedEngine: shard epochs diverged (external writer?)");
    }

    // Step 3 — the exchange + merge supersteps: translate the boundary
    // log against the fresh snapshots, dedupe, union by min.
    RootPairSet<NodeID_> pairs;
    QuotientUF<NodeID_> quotient;
    std::int64_t merges = 0;
    {
      const telemetry::ScopedPhase phase("shard.publish.quotient");
      for (const EdgePair<NodeID_>& e : boundary_log_) {
        const NodeID_ ru = raw_root(*next, e.u);
        const NodeID_ rv = raw_root(*next, e.v);
        if (ru != rv) pairs.insert(ru, rv);
      }
      pairs.for_each([&quotient, &merges](NodeID_ lo, NodeID_ hi) {
        if (quotient.unite(lo, hi)) ++merges;
      });
    }

    // Step 4 — resolve and derive: final root map, cross-shard component
    // sizes (sum of member-root shard sizes), global component count.
    next->quotient_root = quotient.resolve();
    next->quotient_size.reserve(next->quotient_root.size());
    for (const auto& [root, final_root] : next->quotient_root) {
      const int p = shard_of(root);
      next->quotient_size[final_root] += next->views[p].component_size(
          static_cast<NodeID_>(root - shard_start_[p]));
    }
    next->component_count = components - merges;

    // Step 5 — compact the boundary log to the deduped root pairs.
    boundary_log_.clear();
    pairs.for_each([this](NodeID_ lo, NodeID_ hi) {
      boundary_log_.push_back({lo, hi});
    });

    // Step 6 — the atomic flip: one release-store publishes shard views,
    // quotient, and epoch together.
    failpoint_maybe_fail("shard.swap");
    publisher_.commit_publish();
    telemetry::on_shard_quotient_edges(
        static_cast<std::uint64_t>(pairs.size()));
    telemetry::on_shard_epoch_publish();
  }

  /// Pre-quotient global root (shard-local label, globalized).
  [[nodiscard]] NodeID_ raw_root(const GlobalSnapshot& snap,
                                 NodeID_ v) const {
    const int p = shard_of(v);
    return static_cast<NodeID_>(
        shard_start_[p] +
        snap.views[p].component_of(static_cast<NodeID_>(v - shard_start_[p])));
  }

  std::int64_t num_nodes_;
  int num_shards_;
  std::vector<std::int64_t> shard_start_;  ///< P+1 block boundaries
  std::vector<std::unique_ptr<Engine>> shards_;
  /// Cross-shard edges awaiting the next merge, as GLOBAL vertex pairs;
  /// compacted to deduped root pairs at each publish.  Writer-only.
  std::vector<EdgePair<NodeID_>> boundary_log_;
  /// Per-shard routing buffers (local ids), reused across batches.
  std::vector<EdgeList<NodeID_>> staging_;
  serve::EpochPublisher<GlobalSnapshot> publisher_;
  mutable std::atomic<bool> writer_active_{false};
};

extern template class ShardedEngine<std::int32_t>;
extern template class ShardedEngine<std::int64_t>;

}  // namespace afforest::shard
