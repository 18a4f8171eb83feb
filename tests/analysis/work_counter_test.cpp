// Work accounting: the §IV-D edge-saving quantification, counted by a
// probe on afforest_cc (so it needs no telemetry and runs in every build).
#include <gtest/gtest.h>

#include <stdexcept>

#include "analysis/work_counter.hpp"
#include "cc/union_find.hpp"
#include "cc/verifier.hpp"
#include "graph/builder.hpp"
#include "graph/generators/suite.hpp"

namespace afforest {
namespace {

using NodeID = std::int32_t;

TEST(WorkCounter, AccountingIdentityCoversEveryStoredEdge) {
  // sampled + final + skipped must equal the stored (directed) edge count.
  for (const auto* name : {"road", "twitter", "urand", "kron"}) {
    const Graph g = make_suite_graph(name, 10);
    const auto stats = afforest_with_work_stats(g);
    EXPECT_EQ(stats.sampled_edges + stats.final_edges + stats.skipped_edges,
              g.num_stored_edges())
        << name;
  }
}

TEST(WorkCounter, NoSkipMeansNoSkippedEdges) {
  const Graph g = make_suite_graph("urand", 10);
  AfforestOptions opts;
  opts.skip_largest = false;
  const auto stats = afforest_with_work_stats(g, opts);
  EXPECT_EQ(stats.skipped_edges, 0);
  EXPECT_EQ(stats.skipped_vertices, 0);
  EXPECT_EQ(stats.total_linked(), g.num_stored_edges());
}

TEST(WorkCounter, GiantComponentGraphSkipsMostEdges) {
  // urand is one giant component: after two neighbor rounds nearly every
  // vertex sits in it, so the skip avoids the bulk of the final phase —
  // the paper's §IV-D claim.
  const Graph g = make_suite_graph("urand", 12);
  const auto stats = afforest_with_work_stats(g);
  EXPECT_GT(stats.skip_fraction(g.num_stored_edges()), 0.5);
}

TEST(WorkCounter, FragmentedGraphSkipsLittle) {
  // osm-eur's many medium components leave less to skip (still correct).
  const Graph g = make_suite_graph("osm-eur", 12);
  ComponentLabels<NodeID> labels;
  const auto stats = afforest_with_work_stats(g, {}, &labels);
  EXPECT_TRUE(labels_equivalent(labels, union_find_cc(g)));
  EXPECT_LT(stats.skip_fraction(g.num_stored_edges()), 0.99);
}

TEST(WorkCounter, SampledEdgesMatchNeighborRoundFormula) {
  const Graph g = make_suite_graph("kron", 10);
  AfforestOptions opts;
  opts.sampling = NeighborRounds{3};
  const auto stats = afforest_with_work_stats(g, opts);
  std::int64_t expected = 0;
  for (std::int64_t v = 0; v < g.num_nodes(); ++v)
    expected +=
        std::min<std::int64_t>(3, g.out_degree(static_cast<NodeID>(v)));
  EXPECT_EQ(stats.sampled_edges, expected);
}

TEST(WorkCounter, UniformSamplingRejected) {
  // Phase 3 re-links a uniform sample, so the accounting identity would not
  // hold.
  const Graph g = make_suite_graph("kron", 8);
  AfforestOptions opts;
  opts.sampling = UniformEdges{0.1};
  EXPECT_THROW(afforest_with_work_stats(g, opts), std::invalid_argument);
}

TEST(WorkCounter, SkipFractionZeroDenominatorSafe) {
  AfforestWorkStats stats;
  stats.skipped_edges = 0;
  EXPECT_DOUBLE_EQ(stats.skip_fraction(0), 0.0);
}

}  // namespace
}  // namespace afforest
