#include "analysis/memtrace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "cc/union_find.hpp"
#include "cc/verifier.hpp"
#include "graph/generators/suite.hpp"

namespace afforest {
namespace {

TEST(MemTrace, RecordBeforePhaseThrows) {
  MemTrace trace;
  EXPECT_THROW(trace.record(0, false), std::logic_error);
}

TEST(MemTrace, PhasesAccumulateInOrder) {
  MemTrace trace;
  EXPECT_EQ(trace.begin_phase("A"), 0);
  EXPECT_EQ(trace.begin_phase("B"), 1);
  ASSERT_EQ(trace.phase_names().size(), 2u);
  EXPECT_EQ(trace.phase_names()[0], "A");
  EXPECT_EQ(trace.phase_names()[1], "B");
}

TEST(MemTrace, EventsAttributedToCurrentPhase) {
  MemTrace trace;
  trace.begin_phase("A");
  trace.record(1, false);
  trace.record(2, true);
  trace.begin_phase("B");
  trace.record(3, false);
  EXPECT_EQ(trace.accesses_in_phase(0), 2);
  EXPECT_EQ(trace.accesses_in_phase(1), 1);
  EXPECT_EQ(trace.total_accesses(), 3);
}

TEST(MemTrace, EventsCarryWriteFlagAndIndex) {
  MemTrace trace;
  trace.begin_phase("A");
  trace.record(42, true);
  const auto events = trace.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].index, 42);
  EXPECT_TRUE(events[0].is_write);
}

TEST(MemTrace, HistogramBucketsCoverDomain) {
  MemTrace trace;
  trace.begin_phase("A");
  for (int i = 0; i < 100; ++i) trace.record(i, false);
  const auto hist = trace.access_histogram(0, 10, 100);
  ASSERT_EQ(hist.size(), 10u);
  for (auto c : hist) EXPECT_EQ(c, 10);
  EXPECT_EQ(std::accumulate(hist.begin(), hist.end(), std::int64_t{0}), 100);
}

TEST(MemTrace, HistogramClampsOutOfRangeIndices) {
  MemTrace trace;
  trace.begin_phase("A");
  trace.record(99999, false);
  const auto hist = trace.access_histogram(0, 4, 100);
  EXPECT_EQ(hist.back(), 1);
}

TEST(MemTrace, RenderHeatmapProducesRowPerPhase) {
  MemTrace trace;
  trace.begin_phase("X");
  trace.record(0, false);
  trace.begin_phase("Y");
  trace.record(1, true);
  std::ostringstream os;
  trace.render_heatmap(os, 8, 2);
  const std::string out = os.str();
  EXPECT_NE(out.find('X'), std::string::npos);
  EXPECT_NE(out.find('Y'), std::string::npos);
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 2);
}

TEST(TracedSV, ComputesCorrectComponents) {
  const Graph g = make_suite_graph("kron", 9);
  const auto result = run_traced_sv(g);
  EXPECT_TRUE(labels_equivalent(result.labels, union_find_cc(g)));
  EXPECT_GT(result.trace.total_accesses(), g.num_nodes());
}

TEST(TracedSV, PhasesFollowInitHookShortcutPattern) {
  const Graph g = make_suite_graph("urand", 8);
  const auto result = run_traced_sv(g);
  const auto& names = result.trace.phase_names();
  ASSERT_GE(names.size(), 3u);
  EXPECT_EQ(names[0], "I");
  EXPECT_EQ(names[1], "H1");
  EXPECT_EQ(names[2], "S1");
}

// The paper's Fig 3 cell, which Fig 7 traces.
AfforestOptions fig3_cell(bool skip = true) {
  AfforestOptions opts;
  opts.link = RootHook{};
  opts.skip_largest = skip;
  return opts;
}

TEST(TracedAfforest, ComputesCorrectComponents) {
  const Graph g = make_suite_graph("web", 9);
  const auto result = run_traced_afforest(g, fig3_cell());
  EXPECT_TRUE(labels_equivalent(result.labels, union_find_cc(g)));
}

TEST(TracedAfforest, SkippingVariantHasFPhase) {
  const Graph g = make_suite_graph("urand", 8);
  const auto with_skip = run_traced_afforest(g, fig3_cell());
  const auto& names = with_skip.trace.phase_names();
  EXPECT_NE(std::find(names.begin(), names.end(), "F"), names.end());

  const auto no_skip = run_traced_afforest(g, fig3_cell(false));
  const auto& names2 = no_skip.trace.phase_names();
  EXPECT_EQ(std::find(names2.begin(), names2.end(), "F"), names2.end());
}

TEST(TracedAfforest, SkippingReducesFinalLinkAccesses) {
  // The Fig 7b vs 7c contrast: component skipping shrinks the L* phase.
  const Graph g = make_suite_graph("urand", 10);
  const auto skip_run = run_traced_afforest(g, fig3_cell());
  const auto noskip_run = run_traced_afforest(g, fig3_cell(false));
  auto lstar_accesses = [](const TraceResult& r) {
    const auto& names = r.trace.phase_names();
    for (std::size_t i = 0; i < names.size(); ++i)
      if (names[i] == "L*") return r.trace.accesses_in_phase(static_cast<int>(i));
    return std::int64_t{-1};
  };
  EXPECT_LT(lstar_accesses(skip_run), lstar_accesses(noskip_run) / 10);
}

TEST(TracedComparison, SVTouchesPiMoreThanAfforest) {
  // Fig 7's headline: SV's repeated full-edge hooks dwarf Afforest's
  // accesses.
  const Graph g = make_suite_graph("urand", 9);
  const auto sv = run_traced_sv(g);
  const auto aff = run_traced_afforest(g, fig3_cell());
  EXPECT_GT(sv.trace.total_accesses(), aff.trace.total_accesses());
}

}  // namespace
}  // namespace afforest
