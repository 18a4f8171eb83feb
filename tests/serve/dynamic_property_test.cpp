// Property and edge-case tests for the decremental path (DynamicCC +
// WindowedStream): the delete-of-absent-edge / delete-then-reinsert /
// full-window-expiry / self-loop / duplicate-deletion behaviors
// docs/STREAMING.md promises, the deletion classification counters, and
// the typed bounds validation (VertexRangeError) shared with the rest of
// the serving tier.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <utility>

#include "cc/common.hpp"
#include "cc/union_find.hpp"
#include "graph/generators/uniform.hpp"
#include "serve/dynamic_cc.hpp"
#include "serve/query_batch.hpp"
#include "serve/windowed_stream.hpp"

namespace afforest {
namespace {

using NodeID = std::int32_t;
using Engine = serve::DynamicCC<NodeID>;

EdgeList<NodeID> path_edges(NodeID n) {
  EdgeList<NodeID> edges;
  for (NodeID v = 0; v + 1 < n; ++v) edges.push_back({v, static_cast<NodeID>(v + 1)});
  return edges;
}

TEST(DynamicProperty, DeleteOfAbsentEdgeIsCountedNoOp) {
  Engine engine(4);
  EdgeList<NodeID> batch;
  batch.push_back({0, 1});
  engine.apply_inserts(batch);
  const auto before = engine.live_labels();

  EdgeList<NodeID> ghosts;
  ghosts.push_back({2, 3});  // never inserted
  ghosts.push_back({0, 1});  // present — deleted below...
  ghosts.push_back({0, 1});  // ...so the second copy is absent
  const auto stats = engine.apply_deletes(ghosts);
  EXPECT_EQ(stats.requested, 3u);
  EXPECT_EQ(stats.absent, 2u);
  EXPECT_EQ(stats.cut_tree_edges, 1u);

  // Absent deletions left every untouched label alone.
  const auto after = engine.live_labels();
  EXPECT_EQ(after[2], before[2]);
  EXPECT_EQ(after[3], before[3]);
  EXPECT_EQ(engine.num_edges(), 0);
}

TEST(DynamicProperty, DeleteThenReinsertRestoresConnectivity) {
  Engine engine(3);
  EdgeList<NodeID> e01;
  e01.push_back({0, 1});
  engine.apply_inserts(e01);
  engine.publish();
  const std::uint64_t epoch_connected = engine.epoch();
  EXPECT_TRUE(engine.connected(0, 1));

  engine.apply_deletes(e01);
  engine.publish();
  EXPECT_GT(engine.epoch(), epoch_connected);  // epochs advance, never reuse
  EXPECT_FALSE(engine.connected(0, 1));
  EXPECT_EQ(engine.component_count(), 3);

  engine.apply_inserts(e01);
  engine.publish();
  EXPECT_TRUE(engine.connected(0, 1));
  EXPECT_EQ(engine.component_of(1), 0);  // min-id label convention holds
  EXPECT_EQ(engine.component_size(0), 2);
}

TEST(DynamicProperty, SelfLoopDeletionIsFree) {
  Engine engine(2);
  EdgeList<NodeID> loop;
  loop.push_back({1, 1});
  auto ins = engine.apply_inserts(loop);
  EXPECT_EQ(ins.self_loops, 1u);
  EXPECT_EQ(ins.tree_edges, 0u);
  EXPECT_EQ(engine.num_edges(), 1);

  const auto stats = engine.apply_deletes(loop);
  EXPECT_EQ(stats.freed, 1u);
  EXPECT_EQ(stats.cut_tree_edges, 0u);
  EXPECT_EQ(stats.rebuild_components, 0u);
  EXPECT_EQ(engine.num_edges(), 0);
  // Deleting it again: absent.
  EXPECT_EQ(engine.apply_deletes(loop).absent, 1u);
}

TEST(DynamicProperty, DuplicateCopiesDeleteFreeUntilTheLast) {
  Engine engine(2);
  EdgeList<NodeID> batch;
  batch.push_back({0, 1});
  batch.push_back({0, 1});
  batch.push_back({1, 0});  // reverse orientation is the same edge
  const auto ins = engine.apply_inserts(batch);
  EXPECT_EQ(ins.tree_edges, 1u);
  EXPECT_EQ(ins.duplicates, 2u);
  EXPECT_EQ(engine.multiplicity(0, 1), 3u);
  EXPECT_EQ(engine.num_edges(), 1);

  EdgeList<NodeID> one;
  one.push_back({1, 0});
  auto stats = engine.apply_deletes(one);
  EXPECT_EQ(stats.freed, 1u);  // a copy survives: certified free
  EXPECT_EQ(engine.multiplicity(0, 1), 2u);
  stats = engine.apply_deletes(one);
  EXPECT_EQ(stats.freed, 1u);
  // Last copy: it is the tree edge, so now the cut happens.
  stats = engine.apply_deletes(one);
  EXPECT_EQ(stats.cut_tree_edges, 1u);
  EXPECT_EQ(stats.rebuild_components, 1u);  // the one old component {0, 1}
  EXPECT_EQ(engine.multiplicity(0, 1), 0u);
  EXPECT_FALSE(engine.live_labels()[0] == engine.live_labels()[1]);
}

TEST(DynamicProperty, NonTreeDeletionsNeverRebuild) {
  // A triangle: one edge is non-tree.  Deleting it must be free and must
  // not move any label.
  Engine engine(3);
  EdgeList<NodeID> tri;
  tri.push_back({0, 1});
  tri.push_back({1, 2});
  tri.push_back({2, 0});
  engine.apply_inserts(tri);
  EXPECT_EQ(engine.num_tree_edges(), 2);

  const auto non_tree = engine.non_tree_edges();
  ASSERT_EQ(non_tree.size(), 1u);
  const auto stats = engine.apply_deletes(non_tree);
  EXPECT_EQ(stats.freed, 1u);
  EXPECT_EQ(stats.cut_tree_edges, 0u);
  EXPECT_EQ(stats.rebuild_components, 0u);
  EXPECT_EQ(stats.rebuild_vertices, 0u);
  for (NodeID v = 0; v < 3; ++v) EXPECT_EQ(engine.live_labels()[v], 0);
}

TEST(DynamicProperty, BridgeCutSplitsExactly) {
  // Two triangles joined by a bridge; cutting the bridge splits 6 vertices
  // into the two triangles, with min-id labels 0 and 3.
  Engine engine(6);
  EdgeList<NodeID> edges;
  for (const auto& [u, v] : {std::pair<NodeID, NodeID>{0, 1}, {1, 2}, {2, 0},
                             {3, 4}, {4, 5}, {5, 3}, {2, 3}}) {
    edges.push_back({u, v});
  }
  engine.apply_inserts(edges);
  EXPECT_EQ(engine.live_labels()[5], 0);

  EdgeList<NodeID> bridge;
  bridge.push_back({2, 3});
  const auto stats = engine.apply_deletes(bridge);
  EXPECT_EQ(stats.cut_tree_edges, 1u);
  EXPECT_EQ(stats.rebuild_components, 1u);  // one old component touched
  EXPECT_EQ(stats.rebuild_vertices, 6u);
  const auto labels = engine.live_labels();
  for (NodeID v = 0; v < 3; ++v) EXPECT_EQ(labels[v], 0) << v;
  for (NodeID v = 3; v < 6; ++v) EXPECT_EQ(labels[v], 3) << v;
}

TEST(DynamicProperty, FullWindowExpiryDrainsToEmptyGraph) {
  const std::int64_t n = 64;
  Engine engine(n);
  serve::WindowedStream<NodeID> stream(engine, /*window_batches=*/3);
  const auto edges = generate_uniform_edges<NodeID>(n, 4 * n, /*seed=*/77);
  const std::size_t batch_size = 32;
  for (std::size_t start = 0; start < edges.size(); start += batch_size) {
    EdgeList<NodeID> batch;
    for (std::size_t i = start; i < std::min(edges.size(), start + batch_size);
         ++i)
      batch.push_back(edges[i]);
    stream.push(std::move(batch));
    EXPECT_LE(stream.resident_batches(), 3u);
  }

  const auto drained = stream.drain();
  EXPECT_EQ(stream.resident_batches(), 0u);
  EXPECT_EQ(drained.absent, 0u);  // the ring deletes exactly what it holds
  // Nothing survives: every vertex is its own singleton component again.
  EXPECT_EQ(engine.num_edges(), 0);
  EXPECT_EQ(engine.num_tree_edges(), 0);
  EXPECT_EQ(engine.component_count(), n);
  const auto labels = engine.labels();
  for (std::int64_t v = 0; v < n; ++v)
    EXPECT_EQ(labels[static_cast<std::size_t>(v)], static_cast<NodeID>(v));
}

TEST(DynamicProperty, WindowMatchesOracleOverResidentBatches) {
  // Window semantics are exact: at every tick the published snapshot
  // equals a from-scratch union-find over the union of resident batches.
  const std::int64_t n = 128;
  Engine engine(n);
  const std::size_t window = 2;
  serve::WindowedStream<NodeID> stream(engine, window);
  const auto edges = generate_uniform_edges<NodeID>(n, 6 * n, /*seed=*/13);
  const std::size_t batch_size = 48;
  std::vector<EdgeList<NodeID>> resident;
  for (std::size_t start = 0; start < edges.size(); start += batch_size) {
    EdgeList<NodeID> batch;
    for (std::size_t i = start; i < std::min(edges.size(), start + batch_size);
         ++i)
      batch.push_back(edges[i]);
    resident.push_back(batch.clone());
    if (resident.size() > window) resident.erase(resident.begin());
    stream.push(std::move(batch));

    EdgeList<NodeID> window_edges;
    for (const auto& b : resident)
      for (const auto& e : b) window_edges.push_back(e);
    const auto oracle = union_find_cc(window_edges, n);
    const auto published = engine.labels();
    for (std::int64_t v = 0; v < n; ++v)
      ASSERT_EQ(published[static_cast<std::size_t>(v)],
                oracle[static_cast<std::size_t>(v)])
          << "tick " << start / batch_size << " vertex " << v;
  }
}

TEST(DynamicProperty, WindowOfZeroBatchesIsRejected) {
  Engine engine(4);
  EXPECT_THROW(serve::WindowedStream<NodeID>(engine, 0),
               std::invalid_argument);
}

TEST(DynamicProperty, RejectsSizesTheLabelTypeCannotHold) {
  using Narrow = serve::DynamicCC<std::int16_t>;
  try {
    const Narrow engine(40000);
    FAIL() << "expected LabelWidthError";
  } catch (const LabelWidthError& e) {
    EXPECT_EQ(e.num_nodes(), 40000);
    EXPECT_EQ(e.max_label(), 32767);
  }
  EXPECT_THROW(Engine(-1), std::invalid_argument);
  // The widest representable shape serves.
  Narrow ok(32768);
  EdgeList<std::int16_t> edges;
  edges.push_back({0, 32767});
  ok.apply_inserts(edges);
  ok.publish();
  EXPECT_TRUE(ok.connected(0, 32767));
  EXPECT_EQ(ok.component_count(), 32767);
}

TEST(DynamicProperty, BoundsValidationThrowsTypedError) {
  Engine engine(4);
  EdgeList<NodeID> bad;
  bad.push_back({0, 4});
  EXPECT_THROW(engine.apply_inserts(bad), VertexRangeError);
  EXPECT_THROW(engine.apply_deletes(bad), VertexRangeError);
  bad[0] = {-1, 2};
  EXPECT_THROW(engine.apply_inserts(bad), VertexRangeError);
  EXPECT_THROW((void)engine.connected(0, 4), VertexRangeError);
  EXPECT_THROW((void)engine.component_of(-1), VertexRangeError);
  EXPECT_THROW((void)engine.component_size(4), VertexRangeError);
  EXPECT_THROW((void)engine.multiplicity(4, 0), VertexRangeError);
  EXPECT_THROW((void)engine.is_tree_edge(0, 4), VertexRangeError);

  serve::QueryBatch<NodeID> batch;
  batch.add(1, 4);
  EXPECT_THROW(engine.answer(batch), VertexRangeError);

  // A rejected batch applied nothing: the graph is still empty.
  EXPECT_EQ(engine.num_edges(), 0);
  EXPECT_EQ(engine.epoch(), 1u);

  // The typed error carries the offending id and the bound, and stays
  // catchable as std::out_of_range for pre-existing callers.
  try {
    engine.apply_inserts(bad);
    FAIL() << "expected VertexRangeError";
  } catch (const VertexRangeError& e) {
    EXPECT_EQ(e.vertex(), -1);
    EXPECT_EQ(e.num_nodes(), 4);
    EXPECT_NE(std::string(e.what()).find("DynamicCC"), std::string::npos);
  }
  EXPECT_THROW(engine.apply_inserts(bad), std::out_of_range);
}

TEST(DynamicProperty, EmptyAndDegenerateBatches) {
  Engine engine(2);
  EdgeList<NodeID> none;
  const auto ins = engine.apply_inserts(none);
  EXPECT_EQ(ins.requested, 0u);
  const auto del = engine.apply_deletes(none);
  EXPECT_EQ(del.requested, 0u);
  engine.publish();
  EXPECT_EQ(engine.epoch(), 2u);
  EXPECT_EQ(engine.component_count(), 2);
}

TEST(DynamicProperty, DeleteStatsSummaryMentionsEveryField) {
  serve::DeleteStats stats;
  stats.requested = 7;
  stats.absent = 1;
  stats.freed = 4;
  stats.cut_tree_edges = 2;
  stats.rebuild_components = 1;
  stats.rebuild_vertices = 5;
  const std::string s = serve::delete_stats_summary(stats);
  EXPECT_NE(s.find("requested=7"), std::string::npos);
  EXPECT_NE(s.find("absent=1"), std::string::npos);
  EXPECT_NE(s.find("freed=4"), std::string::npos);
  EXPECT_NE(s.find("cut_tree=2"), std::string::npos);
  EXPECT_NE(s.find("rebuild_components=1"), std::string::npos);
  EXPECT_NE(s.find("rebuild_vertices=5"), std::string::npos);
}

TEST(DynamicProperty, PathTeardownCutsEveryEdge) {
  // On a path every edge is a bridge: deleting them one by one must cut a
  // tree edge every time and leave prefix/suffix fragments with min-id
  // labels.
  const NodeID n = 16;
  Engine engine(n);
  engine.apply_inserts(path_edges(n));
  serve::DeleteStats total;
  for (NodeID v = 0; v + 1 < n; ++v) {
    EdgeList<NodeID> one;
    one.push_back({v, static_cast<NodeID>(v + 1)});
    total += engine.apply_deletes(one);
    // After cutting (v, v+1): [0..v] fragments are singletons already cut
    // off; the surviving suffix [v+1..n) keeps label v+1.
    const auto labels = engine.live_labels();
    for (NodeID w = static_cast<NodeID>(v + 1); w < n; ++w)
      ASSERT_EQ(labels[static_cast<std::size_t>(w)], v + 1);
  }
  EXPECT_EQ(total.cut_tree_edges, static_cast<std::uint64_t>(n - 1));
  EXPECT_EQ(total.freed, 0u);
  EXPECT_EQ(engine.component_count(), engine.num_nodes());
}

}  // namespace
}  // namespace afforest
