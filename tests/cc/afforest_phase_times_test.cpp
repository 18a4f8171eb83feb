// afforest_cc's AfforestPhaseTimes out-parameter: per-phase wall times from
// an unarmed solve.
#include <gtest/gtest.h>

#include "analysis/telemetry.hpp"
#include "cc/afforest.hpp"
#include "cc/union_find.hpp"
#include "cc/verifier.hpp"
#include "graph/builder.hpp"
#include "graph/generators/suite.hpp"

namespace afforest {
namespace {

TEST(AfforestTimed, LabelsMatchReference) {
  const Graph g = make_suite_graph("web", 10);
  AfforestPhaseTimes times;
  const auto labels = afforest_cc(g, {}, &times);
  EXPECT_TRUE(labels_equivalent(labels, union_find_cc(g)));
}

TEST(AfforestTimed, AllPhasesNonNegativeAndTotalConsistent) {
  const Graph g = make_suite_graph("kron", 10);
  AfforestPhaseTimes times;
  times.find_component_s = 42.0;  // stale values are reset at entry
  afforest_cc(g, {}, &times);
  EXPECT_GE(times.init_s, 0.0);
  EXPECT_GE(times.sampling_s, 0.0);
  EXPECT_GE(times.compress_s, 0.0);
  EXPECT_GE(times.find_component_s, 0.0);
  EXPECT_GE(times.final_link_s, 0.0);
  EXPECT_LT(times.find_component_s, 42.0);
  EXPECT_NEAR(times.total_s(),
              times.init_s + times.sampling_s + times.compress_s +
                  times.find_component_s + times.final_link_s,
              1e-12);
  EXPECT_GT(times.total_s(), 0.0);
}

TEST(AfforestTimed, FilledWhileTelemetryDormant) {
  // bench_phase_breakdown's table comes from unarmed solves: the times must
  // not depend on the counters (which would also skew the phase shares).
  const bool was_armed = telemetry::enabled();
  telemetry::set_enabled(false);
  telemetry::reset();
  AfforestPhaseTimes times;
  afforest_cc(make_suite_graph("kron", 10), {}, &times);
  telemetry::set_enabled(was_armed);
  EXPECT_GT(times.sampling_s, 0.0);
  EXPECT_GT(times.final_link_s, 0.0);
  EXPECT_TRUE(telemetry::phases().empty());
}

TEST(AfforestTimed, NoSkipHasNoFindPhase) {
  const Graph g = make_suite_graph("urand", 9);
  AfforestOptions opts;
  opts.skip_largest = false;
  AfforestPhaseTimes times;
  const auto labels = afforest_cc(g, opts, &times);
  EXPECT_DOUBLE_EQ(times.find_component_s, 0.0);
  EXPECT_TRUE(labels_equivalent(labels, union_find_cc(g)));
}

TEST(AfforestTimed, ZeroRoundsSkipsSamplingPhase) {
  const Graph g = make_suite_graph("road", 9);
  AfforestOptions opts;
  opts.sampling = NeighborRounds{0};
  AfforestPhaseTimes times;
  const auto labels = afforest_cc(g, opts, &times);
  EXPECT_DOUBLE_EQ(times.sampling_s, 0.0);
  EXPECT_TRUE(labels_equivalent(labels, union_find_cc(g)));
}

TEST(AfforestTimed, DirectedGraphSupported) {
  const auto g =
      build_directed(EdgeList<std::int32_t>{{0, 1}, {2, 1}, {3, 4}}, 5);
  AfforestPhaseTimes times;
  const auto labels = afforest_cc(g, {}, &times);
  EXPECT_EQ(labels[0], labels[2]);
  EXPECT_EQ(labels[3], labels[4]);
  EXPECT_NE(labels[0], labels[3]);
}

}  // namespace
}  // namespace afforest
