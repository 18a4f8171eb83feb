// Correctness tests for all baseline algorithms (SV CSR/edge-list, LP both
// variants, BFS-CC, DOBFS-CC) against the union-find reference, and the
// phases the one SV fixpoint announces to a probe.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <utility>
#include <vector>

#include "analysis/telemetry.hpp"
#include "cc/bfs_cc.hpp"
#include "cc/dobfs_cc.hpp"
#include "cc/label_propagation.hpp"
#include "cc/shiloach_vishkin.hpp"
#include "cc/union_find.hpp"
#include "cc/verifier.hpp"
#include "graph/builder.hpp"
#include "graph/generators/suite.hpp"

namespace afforest {
namespace {

using NodeID = std::int32_t;

Graph two_triangles() {
  return build_undirected(
      EdgeList<NodeID>{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}}, 6);
}

// ----------------------------------------------------------------- SV CSR

TEST(ShiloachVishkin, TwoTriangles) {
  const Graph g = two_triangles();
  const auto comp = shiloach_vishkin(g);
  EXPECT_TRUE(verify_cc(g, comp));
  EXPECT_EQ(count_components(comp), 2);
}

TEST(ShiloachVishkin, ReportsIterationCount) {
  const Graph g = make_suite_graph("road", 10);
  std::int64_t iters = 0;
  const auto comp = shiloach_vishkin(g, &iters);
  EXPECT_GE(iters, 1);
  EXPECT_TRUE(labels_equivalent(comp, union_find_cc(g)));
}

TEST(ShiloachVishkin, EmptyAndSingleton) {
  const Graph empty = build_undirected(EdgeList<NodeID>{}, 0);
  EXPECT_EQ(shiloach_vishkin(empty).size(), 0u);
  const Graph one = build_undirected(EdgeList<NodeID>{}, 1);
  EXPECT_EQ(shiloach_vishkin(one)[0], 0);
}

TEST(ShiloachVishkin, PathGraphNeedsMultipleIterations) {
  // A long path forces label information to travel; SV must still finish.
  EdgeList<NodeID> edges;
  for (NodeID i = 1; i < 512; ++i)
    edges.push_back({static_cast<NodeID>(i - 1), i});
  const Graph g = build_undirected(edges, 512);
  std::int64_t iters = 0;
  const auto comp = shiloach_vishkin(g, &iters);
  EXPECT_EQ(count_components(comp), 1);
  EXPECT_GE(iters, 2);
}

// ------------------------------------------------------------ original SV

TEST(ShiloachVishkinOriginal, MatchesModernFormulation) {
  for (const auto* name : {"road", "twitter", "web", "urand", "kron"}) {
    const Graph g = make_suite_graph(name, 10);
    ASSERT_TRUE(
        labels_equivalent(shiloach_vishkin_original(g), shiloach_vishkin(g)))
        << name;
  }
}

TEST(ShiloachVishkinOriginal, StagnationStepBoundsAdversarialIterations) {
  // The adversarial star stalls the conditional hook; the stagnant-root
  // hook must keep the iteration count modest.
  EdgeList<NodeID> edges;
  for (NodeID i = 0; i < 255; ++i) edges.push_back({i, 255});
  const Graph g = build_undirected(edges, 256);
  std::int64_t iters = 0;
  const auto comp = shiloach_vishkin_original(g, &iters);
  EXPECT_EQ(count_components(comp), 1);
  EXPECT_LE(iters, 10);
}

TEST(ShiloachVishkinOriginal, EmptyGraph) {
  const Graph g = build_undirected(EdgeList<NodeID>{}, 0);
  EXPECT_EQ(shiloach_vishkin_original(g).size(), 0u);
}

// ----------------------------------------------------------- SV edge list

TEST(ShiloachVishkinEdgeList, MatchesCSRVariant) {
  const Graph g = make_suite_graph("kron", 10);
  EdgeList<NodeID> edges;
  for (std::int64_t u = 0; u < g.num_nodes(); ++u)
    for (NodeID v : g.out_neigh(static_cast<NodeID>(u)))
      if (static_cast<NodeID>(u) < v)
        edges.push_back({static_cast<NodeID>(u), v});
  const auto from_list = shiloach_vishkin_edgelist(edges, g.num_nodes());
  EXPECT_TRUE(labels_equivalent(from_list, shiloach_vishkin(g)));
}

TEST(ShiloachVishkinEdgeList, EmptyEdgeList) {
  EdgeList<NodeID> edges;
  const auto comp = shiloach_vishkin_edgelist(edges, 10);
  EXPECT_EQ(count_components(comp), 10);
}

// ------------------------------------------------------ the one SV driver

using PhaseLog = std::vector<std::pair<AfforestPhase, std::int32_t>>;

// Records every phase the SV fixpoint announces, in order.
struct PhaseRecorder : TelemetryProbe {
  PhaseLog* log;

  template <typename NodeID_>
  void phase(AfforestPhase which, std::int32_t iteration,
             const pvector<NodeID_>&) const {
    log->emplace_back(which, iteration);
  }
};

// The announcements of `iterations` iterations, each of them `passes`.
PhaseLog per_iteration(std::int64_t iterations,
                       std::initializer_list<AfforestPhase> passes) {
  PhaseLog want;
  for (std::int32_t i = 0; i < iterations; ++i)
    for (const AfforestPhase which : passes) want.emplace_back(which, i);
  return want;
}

// Two components, on which SV needs more than one iteration.
Graph two_paths() {
  EdgeList<NodeID> edges;
  for (NodeID i = 1; i < 100; ++i)
    edges.push_back({static_cast<NodeID>(i - 1), i});
  for (NodeID i = 101; i < 200; ++i)
    edges.push_back({i, static_cast<NodeID>(i - 1)});
  return build_undirected(edges, 200);
}

TEST(SVDriver, RowsAnnounceHookThenShortcutPerIteration) {
  for (const Graph& g : {two_paths(), make_suite_graph("road", 10)}) {
    PhaseLog log;
    std::int64_t iters = 0;
    const auto comp = shiloach_vishkin(g, &iters, PhaseRecorder{{}, &log});
    EXPECT_TRUE(labels_equivalent(comp, union_find_cc(g)));
    EXPECT_GE(iters, 2);
    EXPECT_EQ(log, per_iteration(iters, {AfforestPhase::kSVHook,
                                         AfforestPhase::kSVShortcut}));
  }
}

TEST(SVDriver, EdgeListAnnouncesHookThenShortcutPerIteration) {
  const Graph g = two_paths();
  PhaseLog log;
  std::int64_t iters = 0;
  const auto comp = shiloach_vishkin_edgelist(lower_edges(g), g.num_nodes(),
                                              &iters, PhaseRecorder{{}, &log});
  EXPECT_TRUE(labels_equivalent(comp, union_find_cc(g)));
  EXPECT_GE(iters, 2);
  EXPECT_EQ(log, per_iteration(iters, {AfforestPhase::kSVHook,
                                       AfforestPhase::kSVShortcut}));
}

TEST(SVDriver, OriginalAnnouncesTheStagnantPassBetween) {
  const Graph g = two_paths();
  PhaseLog log;
  std::int64_t iters = 0;
  const auto comp =
      shiloach_vishkin_original(g, &iters, PhaseRecorder{{}, &log});
  EXPECT_TRUE(labels_equivalent(comp, union_find_cc(g)));
  EXPECT_GE(iters, 2);
  EXPECT_EQ(log, per_iteration(iters, {AfforestPhase::kSVHook,
                                       AfforestPhase::kSVStagnant,
                                       AfforestPhase::kSVShortcut}));
}

TEST(SVDriver, HookReportsTheRootsItJoined) {
  auto comp = identity_labels<NodeID>(4);
  std::pair<NodeID, NodeID> joined{-1, -1};
  EXPECT_TRUE(sv_hook_edge<NodeID>(1, 3, comp, {}, &joined));
  EXPECT_EQ(joined, std::make_pair(NodeID{3}, NodeID{1}));
  EXPECT_EQ(comp[3], 1);
  joined = {-1, -1};
  EXPECT_FALSE(sv_hook_edge<NodeID>(3, 1, comp, {}, &joined));
  EXPECT_EQ(joined, std::make_pair(NodeID{-1}, NodeID{-1}));
}

// The default probe is selected once per call: dormant, the fixpoint
// reports nothing; armed, every shortcut counts a compress per vertex.
TEST(SVDriver, DefaultProbeCountsOnlyWhenArmed) {
  const Graph g = two_paths();
  const auto n = static_cast<std::uint64_t>(g.num_nodes());
  const EdgeList<NodeID> edges = lower_edges(g);
  const std::vector<std::pair<const char*, std::function<std::int64_t()>>>
      entry_points = {
          {"shiloach_vishkin",
           [&] {
             std::int64_t iters = 0;
             shiloach_vishkin(g, &iters);
             return iters;
           }},
          {"shiloach_vishkin_original",
           [&] {
             std::int64_t iters = 0;
             shiloach_vishkin_original(g, &iters);
             return iters;
           }},
          {"shiloach_vishkin_edgelist", [&] {
             std::int64_t iters = 0;
             shiloach_vishkin_edgelist(edges, g.num_nodes(), &iters);
             return iters;
           }}};
  for (const auto& [name, run] : entry_points) {
    telemetry::set_enabled(false);
    telemetry::reset();
    run();
    const telemetry::Counters dormant = telemetry::snapshot();
    EXPECT_EQ(dormant.iterations, 0u) << name;
    EXPECT_EQ(dormant.compress_calls, 0u) << name;
    if (!telemetry::compiled_in()) continue;

    const telemetry::ScopedEnable armed;
    const auto iters = static_cast<std::uint64_t>(run());
    const telemetry::Counters counted = telemetry::snapshot();
    EXPECT_EQ(counted.iterations, iters) << name;
    EXPECT_EQ(counted.compress_calls, iters * n) << name;
    EXPECT_EQ(counted.link_calls, 0u) << name;
    EXPECT_GE(counted.sv_hooks_fired, n - 2) << name;
  }
  telemetry::set_enabled(false);
}

// -------------------------------------------------------------------- LP

TEST(LabelPropagation, TwoTriangles) {
  const Graph g = two_triangles();
  EXPECT_TRUE(verify_cc(g, label_propagation(g)));
}

TEST(LabelPropagation, IterationCountTracksDiameter) {
  EdgeList<NodeID> edges;
  for (NodeID i = 1; i < 256; ++i)
    edges.push_back({static_cast<NodeID>(i - 1), i});
  const Graph g = build_undirected(edges, 256);
  std::int64_t iters = 0;
  const auto comp = label_propagation(g, &iters);
  EXPECT_EQ(count_components(comp), 1);
  // Min label must flow along the path; needs many rounds.
  EXPECT_GE(iters, 8);
}

TEST(LabelPropagationFrontier, MatchesTopologyDriven) {
  const Graph g = make_suite_graph("web", 10);
  EXPECT_TRUE(labels_equivalent(label_propagation_frontier(g),
                                label_propagation(g)));
}

TEST(LabelPropagationFrontier, EmptyGraph) {
  const Graph g = build_undirected(EdgeList<NodeID>{}, 0);
  EXPECT_EQ(label_propagation_frontier(g).size(), 0u);
}

TEST(LabelPropagationFrontier, LongPathCorrect) {
  EdgeList<NodeID> edges;
  for (NodeID i = 1; i < 1000; ++i)
    edges.push_back({static_cast<NodeID>(i - 1), i});
  const Graph g = build_undirected(edges, 1000);
  const auto comp = label_propagation_frontier(g);
  EXPECT_EQ(count_components(comp), 1);
  EXPECT_TRUE(verify_cc(g, comp));
}

// ------------------------------------------------------------------- BFS

TEST(BFSCC, TwoTriangles) {
  const Graph g = two_triangles();
  std::int64_t num_components = 0;
  const auto comp = bfs_cc(g, &num_components);
  EXPECT_TRUE(verify_cc(g, comp));
  EXPECT_EQ(num_components, 2);
}

TEST(BFSCC, LabelsAreDiscoveryRoots) {
  EdgeList<NodeID> edges{{1, 2}, {4, 5}};
  const Graph g = build_undirected(edges, 6);
  const auto comp = bfs_cc(g);
  EXPECT_EQ(comp[0], 0);
  EXPECT_EQ(comp[1], 1);
  EXPECT_EQ(comp[2], 1);
  EXPECT_EQ(comp[4], 4);
  EXPECT_EQ(comp[5], 4);
}

TEST(BFSCC, ManySingletonComponents) {
  const Graph g = build_undirected(EdgeList<NodeID>{}, 1000);
  std::int64_t num_components = 0;
  bfs_cc(g, &num_components);
  EXPECT_EQ(num_components, 1000);
}

// ----------------------------------------------------------------- DOBFS

TEST(DOBFSCC, TwoTriangles) {
  const Graph g = two_triangles();
  std::int64_t num_components = 0;
  const auto comp = dobfs_cc(g, {}, &num_components);
  EXPECT_TRUE(verify_cc(g, comp));
  EXPECT_EQ(num_components, 2);
}

TEST(DOBFSCC, BottomUpTriggersOnDenseGraph) {
  // A dense single-component graph forces the bottom-up path (alpha
  // heuristic); results must stay correct.
  const Graph g = make_suite_graph("urand", 11);
  DOBFSOptions opts;
  opts.alpha = 1;  // switch to bottom-up almost immediately
  EXPECT_TRUE(labels_equivalent(dobfs_cc(g, opts), union_find_cc(g)));
}

TEST(DOBFSCC, TopDownOnlyPath) {
  const Graph g = make_suite_graph("road", 10);
  DOBFSOptions opts;
  opts.alpha = 1 << 30;  // never switch
  EXPECT_TRUE(labels_equivalent(dobfs_cc(g, opts), union_find_cc(g)));
}

TEST(DOBFSCC, ExtremeBetaValues) {
  const Graph g = make_suite_graph("web", 10);
  for (std::int64_t beta : {1LL, 2LL, 1000000LL}) {
    DOBFSOptions opts;
    opts.beta = beta;
    ASSERT_TRUE(labels_equivalent(dobfs_cc(g, opts), union_find_cc(g)))
        << "beta=" << beta;
  }
}

TEST(DOBFSCC, EmptyGraph) {
  const Graph g = build_undirected(EdgeList<NodeID>{}, 0);
  EXPECT_EQ(dobfs_cc(g).size(), 0u);
}

}  // namespace
}  // namespace afforest
