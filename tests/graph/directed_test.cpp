// Directed-graph support: inverse adjacency construction and
// weakly-connected components via the directed-aware Afforest driver.
#include <gtest/gtest.h>

#include <algorithm>

#include "cc/afforest.hpp"
#include "cc/afforest_forest.hpp"
#include "cc/union_find.hpp"
#include "cc/verifier.hpp"
#include "graph/builder.hpp"
#include "graph/generators/uniform.hpp"

namespace afforest {
namespace {

using NodeID = std::int32_t;

TEST(DirectedBuilder, InDegreesMatchReversedEdges) {
  // 0->1, 2->1, 1->3
  const auto g = build_directed(EdgeList<NodeID>{{0, 1}, {2, 1}, {1, 3}}, 4);
  EXPECT_TRUE(g.directed());
  EXPECT_TRUE(g.has_in_edges());
  EXPECT_EQ(g.out_degree(0), 1);
  EXPECT_EQ(g.in_degree(0), 0);
  EXPECT_EQ(g.in_degree(1), 2);
  EXPECT_EQ(g.out_degree(1), 1);
  EXPECT_EQ(g.in_degree(3), 1);
}

TEST(DirectedBuilder, InNeighborsAreSortedAndCorrect) {
  const auto g = build_directed(EdgeList<NodeID>{{2, 1}, {0, 1}}, 3);
  const auto in = g.in_neigh(1);
  ASSERT_EQ(in.size(), 2);
  EXPECT_EQ(in[0], 0);
  EXPECT_EQ(in[1], 2);
  EXPECT_TRUE(std::is_sorted(in.begin(), in.end()));
}

TEST(DirectedBuilder, UndirectedInNeighFallsBackToOut) {
  const Graph g = build_undirected(EdgeList<NodeID>{{0, 1}}, 2);
  EXPECT_EQ(g.in_degree(0), g.out_degree(0));
  EXPECT_EQ(*g.in_neigh(0).begin(), 1);
}

TEST(DirectedBuilder, InverseConsistentAfterDedup) {
  // Duplicate arcs removed from out must also be absent from in.
  const auto g =
      build_directed(EdgeList<NodeID>{{0, 1}, {0, 1}, {0, 1}}, 2);
  EXPECT_EQ(g.out_degree(0), 1);
  EXPECT_EQ(g.in_degree(1), 1);
}

TEST(DirectedBuilder, OptOutOfInEdges) {
  BuilderOptions opts;
  opts.symmetrize = false;
  opts.build_in_edges = false;
  const auto g = Builder<NodeID>(opts).build(EdgeList<NodeID>{{0, 1}}, 2);
  EXPECT_TRUE(g.directed());
  EXPECT_FALSE(g.has_in_edges());
}

TEST(WeaklyCC, AfforestOnDirectedChain) {
  // Arcs 0->1<-2: weakly one component even though not strongly connected.
  const auto g = build_directed(EdgeList<NodeID>{{0, 1}, {2, 1}}, 3);
  const auto comp = afforest_cc(g);
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[1], comp[2]);
}

TEST(WeaklyCC, MatchesSymmetrizedUndirectedBuild) {
  const auto edges = generate_uniform_edges<NodeID>(2000, 5000, 77);
  EdgeList<NodeID> copy;
  for (const auto& e : edges) copy.push_back(e);
  const auto directed = build_directed(copy, 2000);
  const Graph undirected = build_undirected(edges, 2000);
  EXPECT_TRUE(labels_equivalent(afforest_cc(directed),
                                union_find_cc(undirected)));
}

TEST(WeaklyCC, SkippingStaysCorrectOnDirectedGraphs) {
  // Theorem 3's directed analogue: a skipped tail's arc is recovered via
  // the head's in-neighborhood.
  const auto edges = generate_uniform_edges<NodeID>(4000, 20000, 5);
  EdgeList<NodeID> copy;
  for (const auto& e : edges) copy.push_back(e);
  const auto g = build_directed(copy, 4000);
  const Graph sym = build_undirected(edges, 4000);
  for (bool skip : {true, false}) {
    AfforestOptions opts;
    opts.skip_largest = skip;
    ASSERT_TRUE(labels_equivalent(afforest_cc(g, opts), union_find_cc(sym)))
        << "skip=" << skip;
  }
}

TEST(WeaklyCC, NoSkipSolvesWithoutInEdges) {
  // Without the skip every arc is linked from its tail, so neither the
  // in-edge pass nor in-edges are needed.
  const auto edges = generate_uniform_edges<NodeID>(4000, 20000, 5);
  BuilderOptions build;
  build.symmetrize = false;
  build.build_in_edges = false;
  const auto g = Builder<NodeID>(build).build(edges, 4000);
  ASSERT_FALSE(g.has_in_edges());
  const auto want = union_find_cc(edges, 4000);
  const auto same = [&](const ComponentLabels<NodeID>& got) {
    return std::equal(got.begin(), got.end(), want.begin(), want.end());
  };
  for (const auto link : {decltype(AfforestOptions::link){RootHook{}},
                          decltype(AfforestOptions::link){RemSplice{}}}) {
    AfforestOptions opts;
    opts.link = link;
    opts.skip_largest = false;
    EXPECT_TRUE(same(afforest_cc(g, opts))) << "link " << link.index();
  }
  const auto forest = afforest_spanning_forest(g);
  EXPECT_TRUE(same(forest.labels));
  EXPECT_EQ(static_cast<std::int64_t>(forest.forest.size()),
            g.num_nodes() - count_components(want));
}

TEST(WeaklyCC, IsolatedAndSourceSinkVertices) {
  // 0->1, 2 isolated, 3->0 (3 is a pure source, 1 a pure sink).
  const auto g = build_directed(EdgeList<NodeID>{{0, 1}, {3, 0}}, 4);
  const auto comp = afforest_cc(g);
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[0], comp[3]);
  EXPECT_NE(comp[2], comp[0]);
}

}  // namespace
}  // namespace afforest
