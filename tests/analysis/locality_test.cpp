#include "analysis/locality.hpp"

#include <gtest/gtest.h>

#include "cc/union_find.hpp"
#include "graph/generators/suite.hpp"

namespace afforest {
namespace {

TEST(Locality, EmptyTraceYieldsZeros) {
  MemTrace trace;
  trace.begin_phase("A");
  const auto m = compute_locality(trace, 0, 100);
  EXPECT_EQ(m.total_accesses, 0);
  EXPECT_EQ(m.footprint, 0);
  EXPECT_DOUBLE_EQ(m.sequential_fraction, 0.0);
}

TEST(Locality, PureSequentialScanIsFullySequential) {
  MemTrace trace;
  trace.begin_phase("A");
  for (int i = 0; i < 100; ++i) trace.record(i, false);
  const auto m = compute_locality(trace, 0, 100);
  EXPECT_DOUBLE_EQ(m.sequential_fraction, 1.0);
  EXPECT_EQ(m.footprint, 100);
  EXPECT_EQ(m.total_accesses, 100);
}

TEST(Locality, StridedScanIsNonSequential) {
  MemTrace trace;
  trace.begin_phase("A");
  for (int i = 0; i < 100; ++i) trace.record(i * 17 % 100, false);
  const auto m = compute_locality(trace, 0, 100);
  EXPECT_LT(m.sequential_fraction, 0.1);
}

TEST(Locality, RepeatedSameIndexCountsAsSequential) {
  MemTrace trace;
  trace.begin_phase("A");
  for (int i = 0; i < 10; ++i) trace.record(7, false);
  const auto m = compute_locality(trace, 0, 100);
  EXPECT_DOUBLE_EQ(m.sequential_fraction, 1.0);
  EXPECT_EQ(m.footprint, 1);
}

TEST(Locality, GiniZeroForUniformCounts) {
  MemTrace trace;
  trace.begin_phase("A");
  for (int rep = 0; rep < 3; ++rep)
    for (int i = 0; i < 10; ++i) trace.record(i, false);
  const auto m = compute_locality(trace, 0, 10);
  EXPECT_NEAR(m.gini_concentration, 0.0, 1e-12);
}

TEST(Locality, GiniHighForConcentratedCounts) {
  MemTrace trace;
  trace.begin_phase("A");
  for (int i = 0; i < 1000; ++i) trace.record(0, false);  // one hot index
  for (int i = 1; i <= 10; ++i) trace.record(i, false);   // cold tail
  const auto m = compute_locality(trace, 0, 11);
  EXPECT_GT(m.gini_concentration, 0.8);
}

TEST(Locality, PhaseFilterSeparatesPhases) {
  MemTrace trace;
  trace.begin_phase("A");
  trace.record(1, false);
  trace.begin_phase("B");
  trace.record(2, false);
  trace.record(3, false);
  EXPECT_EQ(compute_locality(trace, 0, 10).total_accesses, 1);
  EXPECT_EQ(compute_locality(trace, 1, 10).total_accesses, 2);
  EXPECT_EQ(compute_locality(trace, -1, 10).total_accesses, 3);
}

TEST(Locality, AfforestLinkRoundsMoreSequentialThanSVHooks) {
  // Quantitative §V-C: Afforest's neighbor rounds scan vertices in order,
  // SV's hooks chase labels.  Compare phase L1 vs H1 on the same graph.
  const Graph g = make_suite_graph("urand", 10);
  AfforestOptions fig3_cell;
  fig3_cell.link = RootHook{};
  const auto aff = run_traced_afforest(g, fig3_cell);
  const auto sv = run_traced_sv(g);
  auto phase_id = [](const MemTrace& t, const std::string& name) {
    const auto& names = t.phase_names();
    for (std::size_t i = 0; i < names.size(); ++i)
      if (names[i] == name) return static_cast<int>(i);
    return -1;
  };
  const auto aff_l1 =
      compute_locality(aff.trace, phase_id(aff.trace, "L1"), g.num_nodes());
  const auto sv_h1 =
      compute_locality(sv.trace, phase_id(sv.trace, "H1"), g.num_nodes());
  EXPECT_GT(aff_l1.sequential_fraction, sv_h1.sequential_fraction);
}

}  // namespace
}  // namespace afforest
