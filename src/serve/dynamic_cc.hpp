// Decremental connectivity serving engine: batched edge deletions over the
// single-writer / snapshot-reader model (ROADMAP "Edge deletions and
// windowed streams").
//
// The add-only stack (IncrementalCC, QueryEngine) leans on Lemma 4's
// grow-only forest: components only merge, so the live parent array plus
// link() is enough.  Deletions break that — a removed edge can split a
// component — so this engine maintains two exact structures under the
// single writer:
//
//   * the surviving edge multiset, as symmetric per-vertex adjacency with
//     multiplicities (the ground truth a rebuild recomputes from), and
//   * a spanning forest of the current graph (cc/spanning_forest.hpp's
//     ForestAdjacency), the certificate that classifies every deletion:
//
//       - NON-TREE edge: on no forest path, so removing it cannot split
//         any component — certified FREE, dropped in O(1).  Duplicate
//         copies and self loops are free for the same reason.
//       - TREE edge: the component MAY split (a surviving non-tree edge can
//         reconnect the two fragments).  The batch collects every cut, then
//         rebuilds ONLY the touched components: affected vertices are
//         gathered by walking the surviving tree adjacency from the cut
//         endpoints (each fragment contains one), the induced surviving
//         subgraph is remapped to compact ids, and the registry's Afforest
//         (afforest_cc) recomputes labels + a fresh spanning forest for
//         exactly that region — rebuild-from-quotient, everything else
//         untouched.
//
// Labels stay exact (fully compressed, minimum vertex id per component)
// after every batch, so publish() is a straight SnapshotStore::publish —
// readers keep the identical wait-free RCU protocol QueryEngine uses, and
// a reader never observes a half-applied batch.  Unlike QueryEngine,
// connectivity is NOT monotone across epochs (that is the point); the
// guarantee is per-epoch snapshot exactness: a batch stamped with epoch e
// answers exactly as a from-scratch recompute over the edge multiset that
// was live at publish e (tested differentially in
// tests/serve/dynamic_differential_test.cpp).
//
// Telemetry: dynamic_deletes_free counts certified-free deletions,
// dynamic_rebuilds / dynamic_rebuild_vertices count touched components and
// relabeled vertices — the streaming perf gate (bench/streaming) pins
// dynamic_rebuilds == 0 on delete-only non-tree passes.
//
// lint-scope: cc
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/telemetry.hpp"
#include "cc/afforest.hpp"
#include "cc/common.hpp"
#include "cc/spanning_forest.hpp"
#include "graph/builder.hpp"
#include "graph/edge_list.hpp"
#include "serve/snapshot_store.hpp"
#include "serve/writer_lock.hpp"
#include "util/pvector.hpp"

namespace afforest::serve {

/// Outcome tally of one apply_inserts batch.
struct InsertStats {
  std::uint64_t requested = 0;   ///< edges in the batch
  std::uint64_t self_loops = 0;  ///< stored but never structural
  std::uint64_t duplicates = 0;  ///< extra copies of an existing edge
  std::uint64_t tree_edges = 0;  ///< insertions that merged two components
};

/// Outcome tally of one apply_deletes batch.  `freed` counts certified-free
/// deletions (non-tree edges, duplicate copies, self loops); a nonzero
/// `rebuild_components` means tree edges were cut and that many components
/// were recomputed.
struct DeleteStats {
  std::uint64_t requested = 0;
  std::uint64_t absent = 0;  ///< no surviving copy existed; a no-op
  std::uint64_t freed = 0;
  std::uint64_t cut_tree_edges = 0;
  std::uint64_t rebuild_components = 0;
  std::uint64_t rebuild_vertices = 0;

  DeleteStats& operator+=(const DeleteStats& o) {
    requested += o.requested;
    absent += o.absent;
    freed += o.freed;
    cut_tree_edges += o.cut_tree_edges;
    rebuild_components += o.rebuild_components;
    rebuild_vertices += o.rebuild_vertices;
    return *this;
  }
};

/// One-line human-readable summary ("requested=.. freed=.. ..") for demos
/// and bench banners.
std::string delete_stats_summary(const DeleteStats& stats);

template <typename NodeID_ = std::int32_t>
class DynamicCC : private SnapshotStore<NodeID_> {
  using Store = SnapshotStore<NodeID_>;

 public:
  using View = typename Store::View;

  /// Throws LabelWidthError when NodeID_ cannot label num_nodes vertices
  /// and std::invalid_argument for a negative count, before allocating.
  explicit DynamicCC(std::int64_t num_nodes)
      : Store(num_nodes, "DynamicCC"),
        adj_(static_cast<std::size_t>(num_nodes)),
        forest_(num_nodes),
        labels_(identity_labels<NodeID_>(num_nodes)) {}

  /// Distinct surviving edges (self loops included, multiplicity ignored).
  [[nodiscard]] std::int64_t num_edges() const { return distinct_edges_; }

  /// Tree edges in the maintained spanning forest.
  [[nodiscard]] std::int64_t num_tree_edges() const {
    return forest_.num_tree_edges();
  }

  // ---- read plane (SnapshotStore's, identical to QueryEngine's) ----------

  using Store::acquire;
  using Store::answer;
  using Store::component_count;
  using Store::component_of;
  using Store::component_size;
  using Store::connected;
  using Store::epoch;
  using Store::labels;
  using Store::num_nodes;

  /// The writer's current (unpublished) labels — exact after every applied
  /// batch.  Deep copy; the differential oracle compares against this.
  [[nodiscard]] ComponentLabels<NodeID_> live_labels() const {
    return labels_.clone();
  }

  // ---- write plane (single writer) ---------------------------------------

  /// Applies a batch of insertions.  Each first-copy edge is classified
  /// against the maintained forest: merging insertions become tree edges,
  /// the rest are non-tree from birth.  Labels are exact on return; the
  /// published snapshot is unaffected until publish().  Throws
  /// VertexRangeError on any bad endpoint (before applying anything) and
  /// std::logic_error on concurrent writer calls.
  InsertStats apply_inserts(const EdgeList<NodeID_>& batch) {
    return apply_inserts(batch.data(), batch.size());
  }

  InsertStats apply_inserts(const EdgePair<NodeID_>* edges,
                            std::size_t count) {
    const WriterLock lock(writer_active_, "DynamicCC");
    for (std::size_t i = 0; i < count; ++i) {
      check_vertex(edges[i].u);
      check_vertex(edges[i].v);
    }
    InsertStats stats;
    stats.requested = count;
    // Batch-local union-find over component LABELS (not vertices): an
    // insertion is a tree edge iff it merges two components of the graph
    // as of the previous edges.  Union-by-min keeps the min-id label
    // convention, so the relabel pass below lands directly on final labels.
    std::unordered_map<NodeID_, NodeID_> parent;
    bool merged_any = false;
    for (std::size_t i = 0; i < count; ++i) {
      const NodeID_ u = edges[i].u;
      const NodeID_ v = edges[i].v;
      if (u == v) {
        ++stats.self_loops;
        if (++adj_[static_cast<std::size_t>(u)][u] == 1) ++distinct_edges_;
        continue;
      }
      const std::uint32_t copies =
          ++adj_[static_cast<std::size_t>(u)][v];
      ++adj_[static_cast<std::size_t>(v)][u];
      if (copies > 1) {
        ++stats.duplicates;
        continue;  // structural edge already present; forest unaffected
      }
      ++distinct_edges_;
      const NodeID_ ru = uf_find(parent, labels_[static_cast<std::size_t>(u)]);
      const NodeID_ rv = uf_find(parent, labels_[static_cast<std::size_t>(v)]);
      if (ru == rv) continue;  // non-tree from birth
      parent[ru < rv ? rv : ru] = ru < rv ? ru : rv;
      forest_.add_tree_edge(u, v);
      ++stats.tree_edges;
      merged_any = true;
    }
    if (merged_any) {
      const std::int64_t n = num_nodes();
      for (std::int64_t v = 0; v < n; ++v)
        labels_[static_cast<std::size_t>(v)] =
            uf_find(parent, labels_[static_cast<std::size_t>(v)]);
    }
    telemetry::on_edges_ingested(static_cast<std::uint64_t>(count));
    return stats;
  }

  /// Applies a batch of deletions.  Every deletion is classified against
  /// the maintained forest: non-tree edges (and duplicate copies and self
  /// loops) are certified free and dropped in O(1); deleting an edge with
  /// no surviving copy is a counted no-op.  Cut tree edges are collected
  /// and the touched components rebuilt once, at the end of the batch.
  /// Labels are exact on return.  Throws VertexRangeError on any bad
  /// endpoint (before applying anything).
  DeleteStats apply_deletes(const EdgeList<NodeID_>& batch) {
    return apply_deletes(batch.data(), batch.size());
  }

  DeleteStats apply_deletes(const EdgePair<NodeID_>* edges,
                            std::size_t count) {
    const WriterLock lock(writer_active_, "DynamicCC");
    for (std::size_t i = 0; i < count; ++i) {
      check_vertex(edges[i].u);
      check_vertex(edges[i].v);
    }
    DeleteStats stats;
    stats.requested = count;
    std::vector<NodeID_> cut_endpoints;
    for (std::size_t i = 0; i < count; ++i) {
      const NodeID_ u = edges[i].u;
      const NodeID_ v = edges[i].v;
      auto& row_u = adj_[static_cast<std::size_t>(u)];
      const auto it_u = row_u.find(v);
      if (it_u == row_u.end()) {
        ++stats.absent;  // no surviving copy: graceful no-op
        continue;
      }
      if (u == v) {
        if (--(it_u->second) == 0) {
          row_u.erase(it_u);
          --distinct_edges_;
        }
        ++stats.freed;  // self loops are never structural
        continue;
      }
      const std::uint32_t remaining = --(it_u->second);
      auto& row_v = adj_[static_cast<std::size_t>(v)];
      if (remaining == 0) {
        row_u.erase(it_u);
        row_v.erase(row_v.find(u));
        --distinct_edges_;
      } else {
        --(row_v.find(u)->second);
        ++stats.freed;  // a duplicate copy survives; structure unchanged
        continue;
      }
      // Last copy gone: the forest certifies the classification.  The
      // testing knob below deliberately mis-certifies tree edges as free —
      // the teeth check for the differential suite.
      if (!testing_certify_all_free_ && forest_.remove_tree_edge(u, v)) {
        ++stats.cut_tree_edges;
        cut_endpoints.push_back(u);
        cut_endpoints.push_back(v);
      } else {
        ++stats.freed;  // non-tree: on no forest path, certified free
      }
    }
    telemetry::on_dynamic_deletes_free(stats.freed);
    if (!cut_endpoints.empty()) rebuild(cut_endpoints, stats);
    return stats;
  }

  /// Publishes the writer's exact labels as a new epoch-stamped snapshot.
  /// Readers stay wait-free throughout (SnapshotStore's grace-period
  /// protocol); the serve.swap failpoint leaves the previous epoch
  /// serviceable on failure.
  void publish() {
    const WriterLock lock(writer_active_, "DynamicCC");
    const telemetry::ScopedPhase phase("dynamic.publish");
    Store::publish(labels_);
  }

  // ---- introspection (writer-plane; used by benches and tests) -----------

  /// Surviving copies of (u, v); 0 when absent.
  [[nodiscard]] std::uint32_t multiplicity(NodeID_ u, NodeID_ v) const {
    check_vertex(u);
    check_vertex(v);
    const auto& row = adj_[static_cast<std::size_t>(u)];
    const auto it = row.find(v);
    return it == row.end() ? 0 : it->second;
  }

  /// True iff (u, v) is currently a tree edge of the maintained forest.
  [[nodiscard]] bool is_tree_edge(NodeID_ u, NodeID_ v) const {
    check_vertex(u);
    check_vertex(v);
    return forest_.is_tree_edge(u, v);
  }

  /// All distinct surviving non-tree edges (u < v), self loops excluded —
  /// by construction every one of them deletes free.
  [[nodiscard]] EdgeList<NodeID_> non_tree_edges() const {
    EdgeList<NodeID_> out;
    const std::int64_t n = num_nodes();
    for (std::int64_t u = 0; u < n; ++u) {
      for (const auto& [w, copies] : adj_[static_cast<std::size_t>(u)]) {
        if (w <= static_cast<NodeID_>(u)) continue;
        if (forest_.is_tree_edge(static_cast<NodeID_>(u), w)) continue;
        out.push_back({static_cast<NodeID_>(u), w});
      }
    }
    return out;
  }

  // ---- durability plane (src/serve/durable_engine.hpp) -------------------

  /// One distinct undirected edge key and its surviving copy count.
  /// Self loops appear once with u == v.
  struct EdgeMultiplicity {
    NodeID_ u;
    NodeID_ v;
    std::uint32_t copies;
  };

  /// The surviving edge multiset as (u <= v, copies) entries in
  /// ascending-u scan order.  Checkpoint serialization reads this.
  [[nodiscard]] std::vector<EdgeMultiplicity> adjacency_snapshot() const {
    std::vector<EdgeMultiplicity> out;
    const std::int64_t n = num_nodes();
    for (std::int64_t u = 0; u < n; ++u)
      for (const auto& [w, copies] : adj_[static_cast<std::size_t>(u)])
        if (static_cast<NodeID_>(u) <= w)
          out.push_back({static_cast<NodeID_>(u), w, copies});
    return out;
  }

  /// Current tree edges (u < v).  Checkpoint serialization reads this.
  [[nodiscard]] std::vector<std::pair<NodeID_, NodeID_>> forest_snapshot()
      const {
    std::vector<std::pair<NodeID_, NodeID_>> out;
    out.reserve(static_cast<std::size_t>(forest_.num_tree_edges()));
    forest_.for_each_tree_edge(
        [&](NodeID_ u, NodeID_ v) { out.emplace_back(u, v); });
    return out;
  }

  /// Raises the snapshot epoch floor (see EpochPublisher::set_epoch_floor):
  /// the next publish() stamps an epoch strictly greater than `floor`.
  // lint: single-writer(recovery-only: one forwarded SnapshotStore call
  // made by the recovering writer before any reader can hold a snapshot;
  // the epoch floor is writer-plane state inside EpochPublisher)
  void set_epoch_floor(std::uint64_t floor) { Store::set_epoch_floor(floor); }

  /// Replaces the writer state wholesale from checkpointed pieces.  The
  /// published snapshot is untouched until the caller publish()es.
  ///
  /// The forest is not trusted blindly: every tree edge must be a
  /// surviving non-loop edge and must merge two components (acyclicity) —
  /// a cyclic "forest" would hang collect_reachable later.  Labels must
  /// equal the labels the forest itself induces (min id per tree), which
  /// pins the two structures to each other.  Violations throw
  /// std::invalid_argument; the recovery path wraps that into a typed
  /// IoError against the checkpoint file.  Endpoints are range-checked
  /// like every other write-plane entry point.
  void restore_state(
      const std::vector<NodeID_>& labels,
      const std::vector<std::pair<NodeID_, NodeID_>>& forest_edges,
      const std::vector<EdgeMultiplicity>& adjacency) {
    const WriterLock lock(writer_active_, "DynamicCC");
    const std::int64_t n = num_nodes();
    if (static_cast<std::int64_t>(labels.size()) != n)
      throw std::invalid_argument(
          "DynamicCC::restore_state: label count != num_nodes");
    for (const auto& entry : adjacency) {
      check_vertex(entry.u);
      check_vertex(entry.v);
      if (entry.copies == 0)
        throw std::invalid_argument(
            "DynamicCC::restore_state: zero-multiplicity adjacency entry");
    }
    for (const auto& [u, v] : forest_edges) {
      check_vertex(u);
      check_vertex(v);
    }

    std::vector<std::unordered_map<NodeID_, std::uint32_t>> adj(
        static_cast<std::size_t>(n));
    std::int64_t distinct = 0;
    for (const auto& entry : adjacency) {
      if (!adj[static_cast<std::size_t>(entry.u)]
               .emplace(entry.v, entry.copies)
               .second)
        throw std::invalid_argument(
            "DynamicCC::restore_state: duplicate adjacency entry");
      if (entry.u != entry.v)
        adj[static_cast<std::size_t>(entry.v)].emplace(entry.u, entry.copies);
      ++distinct;
    }

    ForestAdjacency<NodeID_> forest(n);
    UnionFind<NodeID_> uf(n);
    for (const auto& [u, v] : forest_edges) {
      const auto& row = adj[static_cast<std::size_t>(u)];
      if (u == v || row.find(v) == row.end())
        throw std::invalid_argument(
            "DynamicCC::restore_state: tree edge not a surviving edge");
      if (!uf.unite(u, v))
        throw std::invalid_argument(
            "DynamicCC::restore_state: forest edges contain a cycle");
      forest.add_tree_edge(u, v);
    }
    for (std::int64_t v = 0; v < n; ++v)
      if (labels[static_cast<std::size_t>(v)] !=
          uf.find(static_cast<NodeID_>(v)))
        throw std::invalid_argument(
            "DynamicCC::restore_state: labels disagree with the forest");

    adj_ = std::move(adj);
    forest_ = std::move(forest);
    distinct_edges_ = distinct;
    for (std::int64_t v = 0; v < n; ++v)
      labels_[static_cast<std::size_t>(v)] =
          labels[static_cast<std::size_t>(v)];
  }

  /// TEST-ONLY seam: when on, every last-copy deletion is certified free —
  /// tree edges included, so splits are silently missed.  This deliberately
  /// breaks the non-tree-edge certification; the differential suite must
  /// catch it (its "teeth" check).  Never set outside tests.
  // lint: single-writer(test-only toggle flipped before any batch is
  // applied; the differential teeth suite owns the engine exclusively)
  void testing_certify_all_deletes_free(bool on) {
    testing_certify_all_free_ = on;
  }

 private:
  using Store::check_vertex;

  /// Find with path compression over the batch-local label forest; labels
  /// absent from the map are their own root.
  static NodeID_ uf_find(std::unordered_map<NodeID_, NodeID_>& parent,
                         NodeID_ x) {
    NodeID_ root = x;
    // lint: bounded(walks a finite acyclic parent chain; union-by-min makes every hop strictly decreasing)
    for (;;) {
      const auto it = parent.find(root);
      if (it == parent.end() || it->second == root) break;
      root = it->second;
    }
    // lint: bounded(rewrites the same finite chain, each step moves one hop toward the root)
    for (NodeID_ v = x; v != root;) {
      auto it = parent.find(v);
      const NodeID_ next = it->second;
      it->second = root;
      v = next;
    }
    return root;
  }

  /// Rebuild-from-quotient after tree-edge cuts: gather the touched
  /// components by walking the surviving forest from the cut endpoints,
  /// rerun the registry's Afforest on the induced surviving subgraph
  /// (remapped to compact ids), and splice labels + a fresh spanning
  /// forest back.  Only the touched region is recomputed.
  void rebuild(const std::vector<NodeID_>& cut_endpoints, DeleteStats& stats) {
    const std::vector<NodeID_> affected =
        forest_.collect_reachable(cut_endpoints);  // sorted ascending

    // Old-component census (for telemetry: one rebuild per touched
    // component, with its vertex count).
    std::unordered_map<NodeID_, std::uint64_t> old_components;
    for (const NodeID_ v : affected)
      ++old_components[labels_[static_cast<std::size_t>(v)]];
    for (const auto& [label, vertices] : old_components)
      telemetry::on_dynamic_rebuild(vertices);
    stats.rebuild_components += old_components.size();
    stats.rebuild_vertices += affected.size();

    // Induced surviving subgraph over compact ids.  `affected` is closed
    // under surviving edges (components are), so every neighbor remaps.
    std::unordered_map<NodeID_, NodeID_> sub_id;
    sub_id.reserve(affected.size());
    for (std::size_t i = 0; i < affected.size(); ++i)
      sub_id.emplace(affected[i], static_cast<NodeID_>(i));
    EdgeList<NodeID_> sub_edges;
    for (std::size_t i = 0; i < affected.size(); ++i) {
      const NodeID_ u = affected[i];
      for (const auto& [w, copies] : adj_[static_cast<std::size_t>(u)]) {
        if (w <= u) continue;  // one copy per distinct pair; loops excluded
        sub_edges.push_back({static_cast<NodeID_>(i), sub_id.at(w)});
      }
    }
    const CSRGraph<NodeID_> sub = build_undirected(
        sub_edges, static_cast<std::int64_t>(affected.size()));
    const ComponentLabels<NodeID_> sub_labels = afforest_cc(sub);
    const EdgeList<NodeID_> sub_forest = spanning_forest(sub);

    // Splice: `affected` is ascending, so compact ids preserve order and a
    // min-sub-id label maps straight back to the min original id.
    for (const NodeID_ v : affected) forest_.clear_vertex(v);
    for (const auto& [a, b] : sub_forest)
      forest_.add_tree_edge(affected[static_cast<std::size_t>(a)],
                            affected[static_cast<std::size_t>(b)]);
    for (std::size_t i = 0; i < affected.size(); ++i)
      labels_[static_cast<std::size_t>(affected[i])] =
          affected[static_cast<std::size_t>(
              sub_labels[static_cast<std::size_t>(i)])];
  }

  /// Symmetric adjacency with multiplicities: adj_[u][v] = surviving copies
  /// of (u, v); self loops stored once at adj_[u][u].  Ground truth for
  /// rebuilds.
  std::vector<std::unordered_map<NodeID_, std::uint32_t>> adj_;
  ForestAdjacency<NodeID_> forest_;
  ComponentLabels<NodeID_> labels_;  ///< exact, fully compressed, writer-owned
  std::int64_t distinct_edges_ = 0;
  bool testing_certify_all_free_ = false;
  mutable std::atomic<bool> writer_active_{false};
};

}  // namespace afforest::serve
