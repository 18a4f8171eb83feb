// The paper's qualitative claims, asserted on counted work (not wall
// time, so the suite is robust on loaded/serialized hosts).  Each test
// names the paper section it pins down.
#include <gtest/gtest.h>

#include "analysis/convergence.hpp"
#include "analysis/instrumented.hpp"
#include "analysis/locality.hpp"
#include "analysis/memtrace.hpp"
#include "analysis/work_counter.hpp"
#include "cc/union_find.hpp"
#include "cc/verifier.hpp"
#include "graph/builder.hpp"
#include "graph/generators/kronecker.hpp"
#include "graph/generators/suite.hpp"

namespace afforest {
namespace {

using NodeID = std::int32_t;

// §I / §V-A: Afforest processes each edge once; SV reprocesses all edges
// every iteration.  Counted edge-work must favor Afforest on every family.
TEST(PaperClaims, AfforestEdgeWorkBelowSV) {
  for (const auto& e : graph_suite_entries()) {
    const Graph g = make_suite_graph(e.name, 11);
    const auto sv = shiloach_vishkin_instrumented(g);
    const auto aff = afforest_instrumented(g);
    const double sv_work = static_cast<double>(sv.iterations) *
                           static_cast<double>(g.num_stored_edges());
    EXPECT_LT(static_cast<double>(aff.local_iterations), sv_work) << e.name;
  }
}

// §V-A Table II: the average local iteration count of link stays ~1.
TEST(PaperClaims, AverageLinkIterationsNearOne) {
  for (const auto& e : graph_suite_entries()) {
    const Graph g = make_suite_graph(e.name, 11);
    const auto aff = afforest_instrumented(g);
    EXPECT_LT(aff.avg_local_iterations(), 1.5) << e.name;
  }
}

// §V-B Fig 6: after two neighbor rounds, linkage beats every other
// strategy at the same processed-edge budget on the web graph.
TEST(PaperClaims, NeighborSamplingDominatesAtTwoRounds) {
  const Graph g = make_suite_graph("web", 11);
  const auto nbr = measure_convergence(
      g, {.strategy = PartitionStrategy::kNeighborRounds});
  ASSERT_GE(nbr.size(), 2u);
  const auto& two_rounds = nbr[1];
  for (auto strat : {PartitionStrategy::kRowPartition,
                     PartitionStrategy::kRandomEdges}) {
    const auto pts = measure_convergence(g, {.strategy = strat});
    double best = 0;
    for (const auto& p : pts)
      if (p.pct_edges_processed <= two_rounds.pct_edges_processed + 1e-9)
        best = std::max(best, p.linkage);
    EXPECT_GT(two_rounds.linkage, best) << to_string(strat);
  }
}

// §IV-D: on graphs dominated by one giant component, skipping avoids the
// majority of stored edges.
TEST(PaperClaims, SkipAvoidsMajorityOfEdgesOnGiantComponentGraphs) {
  for (const auto* name : {"urand", "web", "twitter", "kron"}) {
    const Graph g = make_suite_graph(name, 12);
    const auto stats = afforest_with_work_stats(g);
    EXPECT_GT(stats.skip_fraction(g.num_stored_edges()), 0.5) << name;
  }
}

// §V-C Fig 7: SV touches π strictly more than Afforest, and Afforest's
// accesses are more sequential.
TEST(PaperClaims, MemoryAccessAdvantage) {
  const Graph g = make_suite_graph("urand", 11);
  const auto sv = run_traced_sv(g);
  AfforestOptions fig3_cell;  // the cell Fig 7 traces
  fig3_cell.link = RootHook{};
  const auto aff = run_traced_afforest(g, fig3_cell);
  EXPECT_GT(sv.trace.total_accesses(), 2 * aff.trace.total_accesses());
  const auto sv_loc = compute_locality(sv.trace, -1, g.num_nodes());
  const auto aff_loc = compute_locality(aff.trace, -1, g.num_nodes());
  EXPECT_GT(aff_loc.sequential_fraction, sv_loc.sequential_fraction);
}

// §V-B Fig 6c: work (not time) of Afforest stays flat as average degree
// grows, while SV's grows linearly with it.
TEST(PaperClaims, DegreeSweepWorkShape) {
  std::vector<std::int64_t> aff_work, sv_work;
  for (int k : {2, 5}) {  // avg degree 4 vs 32
    const Graph g = build_undirected(
        generate_kronecker_edges<NodeID>(12, std::int64_t{1} << k, 42),
        std::int64_t{1} << 12);
    const auto aff = afforest_with_work_stats(g);
    aff_work.push_back(aff.total_linked());
    const auto sv = shiloach_vishkin_instrumented(g);
    sv_work.push_back(sv.iterations * g.num_stored_edges());
  }
  const double aff_growth = static_cast<double>(aff_work[1]) /
                            static_cast<double>(std::max<std::int64_t>(1, aff_work[0]));
  const double sv_growth = static_cast<double>(sv_work[1]) /
                           static_cast<double>(std::max<std::int64_t>(1, sv_work[0]));
  // 8x more edges: SV work scales with |E|; Afforest's linked-edge count
  // grows far slower (the extra edges land in the skipped giant).
  EXPECT_GT(sv_growth, 4.0);
  EXPECT_LT(aff_growth, sv_growth / 2.0);
}

// §VI headline: every algorithm, exact same partition, all families.
TEST(PaperClaims, ExactnessEverywhere) {
  for (const auto& e : graph_suite_entries()) {
    const Graph g = make_suite_graph(e.name, 10);
    const auto truth = union_find_cc(g);
    EXPECT_TRUE(labels_equivalent(afforest_cc(g), truth)) << e.name;
  }
}

}  // namespace
}  // namespace afforest
