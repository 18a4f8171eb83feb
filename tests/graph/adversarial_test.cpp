// §V-A worst-case constructions: correctness must hold on adversarial
// inputs, and the helpers must build the documented shapes.
#include <gtest/gtest.h>

#include "analysis/instrumented.hpp"
#include "cc/afforest.hpp"
#include "cc/registry.hpp"
#include "cc/union_find.hpp"
#include "cc/verifier.hpp"
#include "graph/builder.hpp"
#include "graph/generators/adversarial.hpp"

namespace afforest {
namespace {

using NodeID = std::int32_t;

TEST(AdversarialStar, ShapeIsHighHubDescendingLeaves) {
  const auto edges = adversarial_star_edges<NodeID>(6);
  ASSERT_EQ(edges.size(), 5u);
  EXPECT_EQ(edges[0].u, 5);
  EXPECT_EQ(edges[0].v, 4);  // highest leaf first
  EXPECT_EQ(edges[4].v, 0);  // lowest leaf last
}

TEST(AdversarialStar, AllAlgorithmsCorrect) {
  const Graph g = build_undirected(adversarial_star_edges<NodeID>(512), 512);
  const auto truth = union_find_cc(g);
  for (const auto& a : cc_algorithms())
    EXPECT_TRUE(labels_equivalent(a.run(g), truth)) << a.name;
}

TEST(AdversarialPath, HighToLowOrderStillCorrect) {
  const Graph g = build_undirected(adversarial_path_edges<NodeID>(1024), 1024);
  const auto comp = afforest_cc(g);
  EXPECT_EQ(count_components(comp), 1);
  EXPECT_TRUE(verify_cc(g, comp));
}

TEST(AdversarialStar, SequentialLinkOrderInducesWalks) {
  // Replay the §V-A scenario: process the adversarial star edge order
  // serially through link() with Table II's counting probe; total
  // iterations must exceed the edge count (some calls walk chains), yet
  // convergence holds.
  const std::int64_t n = 256;
  const auto edges = adversarial_star_edges<NodeID>(n);
  auto comp = identity_labels<NodeID>(n);
  LinkCounter counter;
  for (const auto& [u, v] : edges) link(u, v, comp, counter.probe());
  EXPECT_GT(counter.stats().local_iterations,
            static_cast<std::int64_t>(edges.size()));
  compress_all(comp);
  for (std::int64_t v = 0; v < n; ++v) ASSERT_EQ(comp[v], 0);
}

TEST(LinearDepthForest, ShapeIsChain) {
  const auto pi = linear_depth_forest<NodeID>(5);
  EXPECT_EQ(pi[0], 0);
  EXPECT_EQ(pi[4], 3);
  EXPECT_EQ(max_tree_depth(pi), 4);
}

TEST(LinearDepthForest, CompressFlattensWorstCase) {
  auto pi = linear_depth_forest<NodeID>(1 << 12);
  compress_all(pi);
  EXPECT_EQ(max_tree_depth(pi), 1);
  for (std::size_t v = 1; v < pi.size(); ++v) ASSERT_EQ(pi[v], 0);
}

TEST(LinearDepthForest, SingleVertex) {
  const auto pi = linear_depth_forest<NodeID>(1);
  EXPECT_EQ(pi[0], 0);
}

}  // namespace
}  // namespace afforest
