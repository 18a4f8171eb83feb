// The paper figures' counts on one thread, pinned exactly: Table II's link
// counters and SV columns, §V-A's serial adversarial star, and Fig 7's
// per-phase π access counts for Afforest and SV.  They are deterministic only on a one-thread team, which the
// fixture sets.  A change to the driver or its primitives that moves one
// of these numbers shows here first; update the pin with the reason.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>

#include "analysis/instrumented.hpp"
#include "analysis/memtrace.hpp"
#include "graph/generators/adversarial.hpp"
#include "graph/generators/suite.hpp"
#include "util/platform.hpp"

namespace afforest {
namespace {

using NodeID = std::int32_t;

class FigurePins : public ::testing::Test {
 protected:
  void SetUp() override { set_num_threads(1); }
  void TearDown() override { set_num_threads(saved_threads_); }
  int saved_threads_ = num_threads();
};

TEST_F(FigurePins, TableIICountsAtScale10) {
  struct Pin {
    const char* graph;
    std::int64_t link_calls, local_iterations, max_tree_depth;
  };
  for (const Pin& pin : {Pin{"road", 3862, 3862, 4},
                         Pin{"urand", 16226, 17130, 7},
                         Pin{"kron", 20942, 20942, 2}}) {
    const auto stats = afforest_instrumented(make_suite_graph(pin.graph, 10));
    EXPECT_EQ(stats.link_calls, pin.link_calls) << pin.graph;
    EXPECT_EQ(stats.local_iterations, pin.local_iterations) << pin.graph;
    EXPECT_EQ(stats.max_tree_depth, pin.max_tree_depth) << pin.graph;
  }
}

TEST_F(FigurePins, TableIISVCountsAtScale10) {
  struct Pin {
    const char* graph;
    std::int64_t iterations, max_tree_depth;
  };
  for (const Pin& pin :
       {Pin{"road", 2, 2}, Pin{"urand", 2, 5}, Pin{"kron", 2, 1}}) {
    const auto stats =
        shiloach_vishkin_instrumented(make_suite_graph(pin.graph, 10));
    EXPECT_EQ(stats.iterations, pin.iterations) << pin.graph;
    EXPECT_EQ(stats.max_tree_depth, pin.max_tree_depth) << pin.graph;
  }
}

TEST_F(FigurePins, SerialAdversarialStarIterationsAtScale10) {
  const std::int64_t n = 1024;
  auto comp = identity_labels<NodeID>(n);
  LinkCounter counter;
  for (const auto& [u, v] : adversarial_star_edges<NodeID>(n))
    link(u, v, comp, counter.probe());
  EXPECT_EQ(counter.stats().local_iterations, 262144);  // n^2 / 4
}

std::map<std::string, std::int64_t> phase_accesses(const TraceResult& r) {
  std::map<std::string, std::int64_t> out;
  const auto& names = r.trace.phase_names();
  for (std::size_t p = 0; p < names.size(); ++p)
    out[names[p]] = r.trace.accesses_in_phase(static_cast<int>(p));
  return out;
}

AfforestOptions fig3_cell(bool skip) {
  AfforestOptions opts;
  opts.link = RootHook{};
  opts.skip_largest = skip;
  return opts;
}

// compress(v) makes 2 + 2·hops π accesses: it loads π[v] and π[π[v]],
// then per hop stores π[v] and loads the next grandparent.  Over the 256
// vertices, C1 makes 18 hops (512 + 36 = 548) and C2 171 (512 + 342 =
// 854); C* finds depth-1 trees (512).  The serial Fig 7 copy this tracer
// replaced re-read π[v] on every hop, 2 + 3·hops, and gave 566 and 1025.
TEST_F(FigurePins, Fig7PhaseAccessesWithSkip) {
  const Graph g = make_suite_graph("urand", 8);
  const std::map<std::string, std::int64_t> want = {
      {"I", 256}, {"L1", 1010}, {"C1", 548}, {"L2", 1032},
      {"C2", 854}, {"F", 1024}, {"L*", 256}, {"C*", 512}};
  EXPECT_EQ(phase_accesses(run_traced_afforest(g, fig3_cell(true))), want);
}

TEST_F(FigurePins, Fig7PhaseAccessesWithoutSkip) {
  const Graph g = make_suite_graph("urand", 8);
  const std::map<std::string, std::int64_t> want = {
      {"I", 256}, {"L1", 1010}, {"C1", 548},  {"L2", 1032},
      {"C2", 854}, {"L*", 6900}, {"C*", 512}};
  EXPECT_EQ(phase_accesses(run_traced_afforest(g, fig3_cell(false))), want);
}

// SV's hook makes 2 accesses per edge, a third when the labels differ and
// a fourth when the higher one is a root and is hooked.  Its shortcut is
// compress_all: over the 256 vertices, S1 makes 140 hops (512 + 280 =
// 792) and S2 none (512).  The serial Fig 7 copy this probe replaced made
// 3 + 6·hops accesses per vertex, and gave 1608 and 768.
TEST_F(FigurePins, Fig7SVPhaseAccesses) {
  const Graph g = make_suite_graph("urand", 8);
  const std::map<std::string, std::int64_t> want = {
      {"I", 256}, {"H1", 10990}, {"S1", 792}, {"H2", 7924}, {"S2", 512}};
  EXPECT_EQ(phase_accesses(run_traced_sv(g)), want);
}

}  // namespace
}  // namespace afforest
