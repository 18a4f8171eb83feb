#include "analysis/instrumented.hpp"

#include <gtest/gtest.h>

#include "cc/union_find.hpp"
#include "cc/verifier.hpp"
#include "graph/builder.hpp"
#include "graph/generators/suite.hpp"

namespace afforest {
namespace {

using NodeID = std::int32_t;

TEST(MaxTreeDepth, SelfPointingForestIsZero) {
  const auto comp = identity_labels<NodeID>(10);
  EXPECT_EQ(max_tree_depth(comp), 0);
}

TEST(MaxTreeDepth, ChainDepth) {
  pvector<NodeID> comp{0, 0, 1, 2};  // 3 -> 2 -> 1 -> 0
  EXPECT_EQ(max_tree_depth(comp), 3);
}

TEST(MaxTreeDepth, EmptyForest) {
  pvector<NodeID> comp;
  EXPECT_EQ(max_tree_depth(comp), 0);
}

TEST(LinkCounted, TrivialEdgeCostsOneIteration) {
  auto comp = identity_labels<NodeID>(4);
  link<NodeID>(0, 1, comp);
  LinkCounter counter;
  link<NodeID>(0, 1, comp, counter.probe());  // already linked
  EXPECT_EQ(counter.stats().link_calls, 1);
  EXPECT_EQ(counter.stats().local_iterations, 1);
}

TEST(LinkCounted, MergeCountsWork) {
  auto comp = identity_labels<NodeID>(4);
  LinkCounter counter;
  link<NodeID>(0, 3, comp, counter.probe());
  EXPECT_GE(counter.stats().local_iterations, 1);
  EXPECT_EQ(comp[3], 0);
}

TEST(AfforestInstrumented, ProducesCorrectLabels) {
  const Graph g = make_suite_graph("web", 10);
  ComponentLabels<NodeID> labels;
  afforest_instrumented(g, &labels);
  EXPECT_TRUE(labels_equivalent(labels, union_find_cc(g)));
}

TEST(AfforestInstrumented, AverageLocalIterationsNearOne) {
  // The paper's Table II headline: most link calls run a single
  // validation iteration.
  for (const auto* name : {"road", "twitter", "web", "urand", "kron"}) {
    const Graph g = make_suite_graph(name, 10);
    const auto stats = afforest_instrumented(g);
    EXPECT_GE(stats.avg_local_iterations(), 1.0) << name;
    EXPECT_LT(stats.avg_local_iterations(), 2.0) << name;
  }
}

TEST(AfforestInstrumented, CountsEveryStoredEdgeWithoutSkip) {
  const Graph g = make_suite_graph("urand", 9);
  const auto stats = afforest_instrumented(g);
  // Without component skipping every stored (directed) edge is linked once.
  EXPECT_EQ(stats.link_calls, g.num_stored_edges());
}

TEST(AfforestInstrumented, TreeDepthIsModest) {
  const Graph g = make_suite_graph("web", 10);
  const auto stats = afforest_instrumented(g);
  EXPECT_GE(stats.max_tree_depth, 1);
  // §V-A: in practice tree depth stays near SV's, far below |V|.
  EXPECT_LT(stats.max_tree_depth, 64);
}

TEST(SVInstrumented, ProducesCorrectLabels) {
  const Graph g = make_suite_graph("kron", 10);
  ComponentLabels<NodeID> labels;
  const auto stats = shiloach_vishkin_instrumented(g, &labels);
  EXPECT_TRUE(labels_equivalent(labels, union_find_cc(g)));
  EXPECT_GE(stats.iterations, 1);
}

TEST(SVInstrumented, IterationCountMatchesPlainSV) {
  const Graph g = make_suite_graph("road", 10);
  std::int64_t plain_iters = 0;
  shiloach_vishkin(g, &plain_iters);
  const auto stats = shiloach_vishkin_instrumented(g);
  EXPECT_EQ(stats.iterations, plain_iters);
}

TEST(InstrumentedComparison, AfforestDoesLessPerEdgeWorkThanSVReprocessing) {
  // SV revisits all edges every iteration; Afforest touches each once.
  const Graph g = make_suite_graph("web", 10);
  const auto sv = shiloach_vishkin_instrumented(g);
  const auto aff = afforest_instrumented(g);
  const double sv_edge_work =
      static_cast<double>(sv.iterations) *
      static_cast<double>(g.num_stored_edges());
  EXPECT_LT(static_cast<double>(aff.local_iterations), sv_edge_work);
}

}  // namespace
}  // namespace afforest
