// Parallel spanning forest via link witnesses (§IV-A dual): link() returns
// true iff its own CAS merged two trees.
#include <gtest/gtest.h>

#include "cc/afforest_forest.hpp"
#include "cc/spanning_forest.hpp"
#include "cc/union_find.hpp"
#include "cc/verifier.hpp"
#include "graph/builder.hpp"
#include "graph/generators/suite.hpp"

namespace afforest {
namespace {

using NodeID = std::int32_t;

TEST(LinkWitness, ReportsMergeExactlyOnce) {
  auto comp = identity_labels<NodeID>(4);
  EXPECT_TRUE(link<NodeID>(0, 1, comp));
  EXPECT_FALSE(link<NodeID>(0, 1, comp));
  EXPECT_FALSE(link<NodeID>(1, 0, comp));
}

TEST(LinkWitness, ChainOfMergesCountsVMinusC) {
  auto comp = identity_labels<NodeID>(8);
  int merges = 0;
  for (NodeID v = 1; v < 8; ++v)
    if (link<NodeID>(static_cast<NodeID>(v - 1), v, comp)) ++merges;
  EXPECT_EQ(merges, 7);
}

TEST(AfforestForest, SizeIsVMinusCOnSuite) {
  for (const auto* name : {"road", "osm-eur", "twitter", "web", "urand",
                           "kron"}) {
    const Graph g = make_suite_graph(name, 10);
    const auto result = afforest_spanning_forest(g);
    const auto c = count_components(result.labels);
    EXPECT_EQ(static_cast<std::int64_t>(result.forest.size()),
              g.num_nodes() - c)
        << name;
  }
}

TEST(AfforestForest, ForestIsValidSpanningForest) {
  const Graph g = make_suite_graph("web", 10);
  const auto result = afforest_spanning_forest(g);
  EXPECT_TRUE(is_spanning_forest(g, result.forest));
}

TEST(AfforestForest, LabelsMatchReference) {
  const Graph g = make_suite_graph("kron", 10);
  const auto result = afforest_spanning_forest(g);
  EXPECT_TRUE(labels_equivalent(result.labels, union_find_cc(g)));
}

TEST(AfforestForest, MatchesSerialForestSize) {
  const Graph g = make_suite_graph("twitter", 10);
  const auto parallel_forest = afforest_spanning_forest(g).forest;
  const auto serial_forest = spanning_forest(g);
  EXPECT_EQ(parallel_forest.size(), serial_forest.size());
}

TEST(AfforestForest, EmptyAndEdgelessGraphs) {
  const Graph empty = build_undirected(EdgeList<NodeID>{}, 0);
  EXPECT_TRUE(afforest_spanning_forest(empty).forest.empty());
  const Graph isolated = build_undirected(EdgeList<NodeID>{}, 10);
  EXPECT_TRUE(afforest_spanning_forest(isolated).forest.empty());
}

TEST(AfforestForest, ZeroNeighborRounds) {
  const Graph g = make_suite_graph("urand", 9);
  const auto result = afforest_spanning_forest(g, 0);
  EXPECT_TRUE(is_spanning_forest(g, result.forest));
}

}  // namespace
}  // namespace afforest
