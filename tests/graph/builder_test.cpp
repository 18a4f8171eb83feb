#include "graph/builder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace afforest {
namespace {

using NodeID = std::int32_t;

EdgeList<NodeID> triangle_plus_pendant() {
  // 0-1, 1-2, 2-0 triangle with pendant 3 attached to 0.
  return EdgeList<NodeID>{{0, 1}, {1, 2}, {2, 0}, {0, 3}};
}

TEST(Builder, SymmetrizesUndirectedGraph) {
  const Graph g = build_undirected(triangle_plus_pendant());
  EXPECT_EQ(g.num_nodes(), 4);
  EXPECT_EQ(g.num_edges(), 4);          // unordered
  EXPECT_EQ(g.num_stored_edges(), 8);   // both directions
  EXPECT_FALSE(g.directed());
  EXPECT_EQ(g.out_degree(0), 3);
  EXPECT_EQ(g.out_degree(3), 1);
}

TEST(Builder, NeighborListsAreSorted) {
  const Graph g = build_undirected(triangle_plus_pendant());
  for (NodeID v = 0; v < g.num_nodes(); ++v) {
    const auto nbrs = g.out_neigh(v);
    EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end())) << "row " << v;
  }
}

TEST(Builder, RemovesSelfLoopsByDefault) {
  EdgeList<NodeID> edges{{0, 0}, {0, 1}, {1, 1}};
  const Graph g = build_undirected(edges);
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_EQ(g.out_degree(0), 1);
  EXPECT_EQ(g.out_degree(1), 1);
}

TEST(Builder, KeepsSelfLoopsWhenRequested) {
  BuilderOptions opts;
  opts.remove_self_loops = false;
  opts.remove_duplicates = false;
  EdgeList<NodeID> edges{{0, 0}, {0, 1}};
  const Graph g = Builder<NodeID>(opts).build(edges);
  // Self loop stored twice by symmetrization (0->0 emitted for u and v).
  EXPECT_EQ(g.out_degree(0), 3);
}

TEST(Builder, RemovesDuplicateEdges) {
  EdgeList<NodeID> edges{{0, 1}, {0, 1}, {1, 0}, {2, 1}};
  const Graph g = build_undirected(edges);
  EXPECT_EQ(g.out_degree(0), 1);
  EXPECT_EQ(g.out_degree(1), 2);
  EXPECT_EQ(g.num_edges(), 2);
}

TEST(Builder, KeepsDuplicatesWhenRequested) {
  BuilderOptions opts;
  opts.remove_duplicates = false;
  EdgeList<NodeID> edges{{0, 1}, {0, 1}};
  const Graph g = Builder<NodeID>(opts).build(edges);
  EXPECT_EQ(g.out_degree(0), 2);
}

TEST(Builder, DuplicateRemovalRequiresSortedRows) {
  BuilderOptions opts;
  opts.sort_neighbors = false;
  opts.remove_duplicates = true;
  EXPECT_THROW((void)Builder<NodeID>{opts}, std::invalid_argument);
}

TEST(Builder, InfersNumNodesFromMaxId) {
  EdgeList<NodeID> edges{{5, 9}};
  const Graph g = build_undirected(edges);
  EXPECT_EQ(g.num_nodes(), 10);
  EXPECT_EQ(g.out_degree(0), 0);
  EXPECT_EQ(g.out_degree(9), 1);
}

TEST(Builder, ExplicitNumNodesAddsIsolatedVertices) {
  EdgeList<NodeID> edges{{0, 1}};
  const Graph g = build_undirected(edges, 100);
  EXPECT_EQ(g.num_nodes(), 100);
  EXPECT_EQ(g.out_degree(99), 0);
}

TEST(Builder, OutOfRangeEdgeThrows) {
  EdgeList<NodeID> edges{{0, 5}};
  EXPECT_THROW(build_undirected(edges, 3), std::out_of_range);
}

TEST(Builder, NegativeVertexIdThrows) {
  EdgeList<NodeID> edges{{-1, 2}};
  EXPECT_THROW(build_undirected(edges, 3), std::out_of_range);
}

TEST(Builder, NarrowLabelTypeThrowsTypedOverflow) {
  // int16 ids cap at 32767: a 40000-vertex build is refused before any
  // allocation instead of wrapping row ids negative.
  using Narrow = std::int16_t;
  const EdgeList<Narrow> edges{{0, 1}, {1, 2}};
  try {
    (void)Builder<Narrow>{}.build(edges, 40000);
    FAIL() << "expected LabelWidthError";
  } catch (const LabelWidthError& e) {
    EXPECT_EQ(e.num_nodes(), 40000);
    EXPECT_EQ(e.max_label(), 32767);
  }
  // The widest representable shape builds.
  const CSRGraph<Narrow> g = Builder<Narrow>{}.build(edges, 32768);
  EXPECT_EQ(g.num_nodes(), 32768);
  EXPECT_EQ(g.out_degree(1), 2);
  EXPECT_EQ(g.out_degree(32767), 0);
}

TEST(Builder, EmptyEdgeListYieldsEdgelessGraph) {
  EdgeList<NodeID> edges;
  const Graph g = build_undirected(edges, 5);
  EXPECT_EQ(g.num_nodes(), 5);
  EXPECT_EQ(g.num_edges(), 0);
  for (NodeID v = 0; v < 5; ++v) EXPECT_EQ(g.out_degree(v), 0);
}

TEST(Builder, ZeroNodesGraph) {
  EdgeList<NodeID> edges;
  const Graph g = build_undirected(edges, 0);
  EXPECT_EQ(g.num_nodes(), 0);
  EXPECT_EQ(g.num_edges(), 0);
}

TEST(Builder, DirectedBuildDoesNotSymmetrize) {
  BuilderOptions opts;
  opts.symmetrize = false;
  EdgeList<NodeID> edges{{0, 1}, {2, 1}};
  const Graph g = Builder<NodeID>(opts).build(edges);
  EXPECT_TRUE(g.directed());
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_EQ(g.out_degree(0), 1);
  EXPECT_EQ(g.out_degree(1), 0);
  EXPECT_EQ(g.out_degree(2), 1);
}

TEST(Builder, SymmetryHoldsForEveryEdge) {
  // Each stored edge (u,v) must have a matching (v,u).
  EdgeList<NodeID> edges{{0, 3}, {1, 3}, {2, 3}, {0, 1}};
  const Graph g = build_undirected(edges);
  for (NodeID u = 0; u < g.num_nodes(); ++u) {
    for (NodeID v : g.out_neigh(u)) {
      const auto back = g.out_neigh(v);
      EXPECT_TRUE(std::binary_search(back.begin(), back.end(), u))
          << "missing reverse edge " << v << "->" << u;
    }
  }
}

TEST(Builder, OffsetsAreMonotoneAndComplete) {
  const Graph g = build_undirected(triangle_plus_pendant());
  const auto& off = g.offsets();
  EXPECT_EQ(off[0], 0);
  for (std::int64_t v = 0; v < g.num_nodes(); ++v)
    EXPECT_LE(off[v], off[v + 1]);
  EXPECT_EQ(off[g.num_nodes()], g.num_stored_edges());
}

}  // namespace
}  // namespace afforest
