#include "dist/partitioned_cc.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "cc/union_find.hpp"
#include "cc/verifier.hpp"
#include "graph/builder.hpp"
#include "graph/generators/suite.hpp"

namespace afforest {
namespace {

using NodeID = std::int32_t;

TEST(PartitionOf, BlocksAreContiguousAndCoverAll) {
  const std::int64_t n = 100;
  const int parts = 7;
  int prev = 0;
  for (std::int64_t v = 0; v < n; ++v) {
    const int p = partition_of(v, n, parts);
    ASSERT_GE(p, prev);  // non-decreasing => contiguous blocks
    ASSERT_LT(p, parts);
    prev = p;
  }
  EXPECT_EQ(partition_of(0, n, parts), 0);
  EXPECT_EQ(partition_of(n - 1, n, parts), parts - 1);
}

TEST(PartitionOf, SinglePartOwnsEverything) {
  for (std::int64_t v : {0, 5, 99})
    EXPECT_EQ(partition_of(v, 100, 1), 0);
}

TEST(PartitionOf, NonDivisibleBlockEdgesMatchPartitionFirst) {
  // 23 vertices over 7 parts does not divide evenly; partition_first must
  // be the exact inverse boundary map of partition_of on every block edge.
  const std::int64_t n = 23;
  const int parts = 7;
  EXPECT_EQ(partition_first(0, n, parts), 0);
  EXPECT_EQ(partition_first(parts, n, parts), n);
  for (int p = 0; p < parts; ++p) {
    const std::int64_t first = partition_first(p, n, parts);
    const std::int64_t next = partition_first(p + 1, n, parts);
    ASSERT_LT(first, next) << "empty block " << p;  // n > parts: all nonempty
    EXPECT_EQ(partition_of(first, n, parts), p);
    EXPECT_EQ(partition_of(next - 1, n, parts), p);
    if (p > 0) {
      EXPECT_EQ(partition_of(first - 1, n, parts), p - 1);
    }
  }
}

TEST(PartitionOf, ClampAtLastVertex) {
  // The p >= num_parts clamp is defensive: floor((n-1)·P/n) <= P-1 always,
  // so whenever n >= parts the last vertex lands exactly in the last part,
  // never beyond.  (With parts > n the tail blocks are empty; see
  // MorePartsThanVerticesYieldsEmptyTailBlocks.)
  for (const auto& [n, parts] :
       {std::pair<std::int64_t, int>{1, 1}, {7, 7}, {100, 7}, {100, 64},
        {(std::int64_t{1} << 40), 1024}}) {
    EXPECT_EQ(partition_of(n - 1, n, parts), parts - 1)
        << "n=" << n << " parts=" << parts;
    EXPECT_EQ(partition_of(0, n, parts), 0);
  }
}

TEST(PartitionOf, MorePartsThanVerticesYieldsEmptyTailBlocks) {
  const std::int64_t n = 3;
  const int parts = 50;
  for (std::int64_t v = 0; v < n; ++v) {
    const int p = partition_of(v, n, parts);
    ASSERT_GE(p, 0);
    ASSERT_LT(p, parts);
    // Consistency with the block map even when most blocks are empty.
    EXPECT_GE(v, partition_first(p, n, parts));
    EXPECT_LT(v, partition_first(p + 1, n, parts));
  }
}

TEST(PartitionOf, HugeNodeCountsDoNotOverflow) {
  // v * parts would overflow int64 near n = 2^62 without the 128-bit
  // intermediate; the map must stay monotone and in range.
  const std::int64_t n = std::int64_t{1} << 62;
  const int parts = 1024;
  EXPECT_EQ(partition_of(0, n, parts), 0);
  EXPECT_EQ(partition_of(n - 1, n, parts), parts - 1);
  EXPECT_EQ(partition_of(n / 2, n, parts), parts / 2);
}

TEST(PartitionedCC, InvalidPartCountThrows) {
  const Graph g = build_undirected(EdgeList<NodeID>{{0, 1}}, 2);
  EXPECT_THROW(partitioned_cc(g, 0), std::invalid_argument);
}

class PartitionSweep : public ::testing::TestWithParam<int> {};

TEST_P(PartitionSweep, MatchesReferenceOnSuite) {
  const int parts = GetParam();
  for (const auto* name : {"road", "osm-eur", "twitter", "urand", "kron"}) {
    const Graph g = make_suite_graph(name, 10);
    PartitionedCCStats stats;
    const auto comp = partitioned_cc(g, parts, &stats);
    ASSERT_TRUE(labels_equivalent(comp, union_find_cc(g)))
        << name << " parts=" << parts;
    EXPECT_EQ(stats.internal_edges + stats.boundary_edges, g.num_edges())
        << name;
  }
}

INSTANTIATE_TEST_SUITE_P(PartCounts, PartitionSweep,
                         ::testing::Values(1, 2, 3, 8, 16, 64));

TEST(PartitionedCC, OnePartHasNoBoundary) {
  const Graph g = make_suite_graph("web", 9);
  PartitionedCCStats stats;
  partitioned_cc(g, 1, &stats);
  EXPECT_EQ(stats.boundary_edges, 0);
  EXPECT_EQ(stats.quotient_edges, 0);
  EXPECT_DOUBLE_EQ(stats.communication_fraction(), 0.0);
}

TEST(PartitionedCC, BoundaryGrowsWithPartCount) {
  const Graph g = make_suite_graph("urand", 11);
  std::int64_t prev_boundary = -1;
  for (int parts : {2, 4, 16}) {
    PartitionedCCStats stats;
    partitioned_cc(g, parts, &stats);
    EXPECT_GT(stats.boundary_edges, prev_boundary) << parts;
    prev_boundary = stats.boundary_edges;
  }
}

TEST(PartitionedCC, QuotientIsSmallAfterLocalWork) {
  // The distributed-feasibility claim: local CC collapses each block, so
  // the merged (communicated) problem is far smaller than the edge cut.
  const Graph g = make_suite_graph("urand", 12);
  PartitionedCCStats stats;
  partitioned_cc(g, 8, &stats);
  EXPECT_GT(stats.boundary_edges, 0);
  EXPECT_LT(stats.quotient_edges, stats.boundary_edges);
  EXPECT_LE(stats.quotient_vertices, 2 * stats.quotient_edges);
}

TEST(PartitionedCC, MorePartsThanVertices) {
  const Graph g = build_undirected(EdgeList<NodeID>{{0, 1}, {1, 2}}, 3);
  const auto comp = partitioned_cc(g, 50);
  EXPECT_TRUE(verify_cc(g, comp));
}

TEST(PartitionedCC, Int64LabelsMatchInt32OnSameGraph) {
  // The label-width fix: the templatized kernel must produce identical
  // partitions (and identical min-id labels) at both widths.
  const auto g32 = make_suite_graph("urand", 9);
  EdgeList<std::int64_t> edges64;
  for (std::int64_t u = 0; u < g32.num_nodes(); ++u)
    for (const NodeID v : g32.out_neigh(static_cast<NodeID>(u)))
      if (u < v) edges64.push_back({u, v});
  const CSRGraph<std::int64_t> g64 =
      build_undirected(edges64, g32.num_nodes());
  const auto comp32 = partitioned_cc(g32, 5);
  const auto comp64 = partitioned_cc(g64, 5);
  ASSERT_EQ(comp32.size(), comp64.size());
  for (std::size_t v = 0; v < comp32.size(); ++v)
    EXPECT_EQ(static_cast<std::int64_t>(comp32[v]), comp64[v]) << v;
}

TEST(PartitionedCC, ExactLabelsAtWidestRepresentableBoundary) {
  // Regression for the int32 ceiling: at the widest representable shape
  // (ids touching the label type's max), labels must be EXACT min ids —
  // a silent truncation would wrap them.  int16 keeps the test cheap; the
  // guard logic is width-generic.
  using Narrow = std::int16_t;
  const std::int64_t n = 32768;  // ids 0..32767 == int16 max
  EdgeList<Narrow> edges;
  edges.push_back({0, 32767});       // min id with max id
  edges.push_back({32766, 32767});   // chain at the top boundary
  edges.push_back({16384, 16385});
  const CSRGraph<Narrow> g = build_undirected(edges, n);
  const auto comp = partitioned_cc(g, 7);
  EXPECT_EQ(comp[32767], 0);
  EXPECT_EQ(comp[32766], 0);
  EXPECT_EQ(comp[0], 0);
  EXPECT_EQ(comp[16385], 16384);
  EXPECT_EQ(comp[16383], 16383);
}

TEST(PartitionedCC, OverflowingNodeCountThrowsTypedError) {
  // One vertex past the widest representable shape must throw the typed
  // guard, not truncate.  The builder refuses this shape itself, so the
  // edgeless CSR is laid out by hand to reach partitioned_cc's own guard.
  using Narrow = std::int16_t;
  const std::int64_t n = 32769;
  const CSRGraph<Narrow> g(n, pvector<std::int64_t>(n + 1, 0),
                           pvector<Narrow>());
  try {
    (void)partitioned_cc(g, 2);
    FAIL() << "expected LabelWidthError";
  } catch (const LabelWidthError& e) {
    EXPECT_EQ(e.num_nodes(), 32769);
    EXPECT_EQ(e.max_label(), 32767);
  }
}

TEST(PartitionedCC, StatsIdenticalAcrossLabelWidths) {
  const auto g32 = make_suite_graph("road", 10);
  EdgeList<std::int64_t> edges64;
  for (std::int64_t u = 0; u < g32.num_nodes(); ++u)
    for (const NodeID v : g32.out_neigh(static_cast<NodeID>(u)))
      if (u < v) edges64.push_back({u, v});
  const CSRGraph<std::int64_t> g64 = build_undirected(edges64, g32.num_nodes());
  PartitionedCCStats s32, s64;
  partitioned_cc(g32, 6, &s32);
  partitioned_cc(g64, 6, &s64);
  EXPECT_EQ(s32.internal_edges, s64.internal_edges);
  EXPECT_EQ(s32.boundary_edges, s64.boundary_edges);
  EXPECT_EQ(s32.quotient_vertices, s64.quotient_vertices);
  EXPECT_EQ(s32.quotient_edges, s64.quotient_edges);
}

TEST(PartitionedCC, RoadGraphHasLowCommunication) {
  // Lattices under contiguous 1D blocks cut few edges — the topology a
  // distributed road-network deployment exploits.
  const Graph g = make_suite_graph("road", 12);
  PartitionedCCStats stats;
  partitioned_cc(g, 8, &stats);
  EXPECT_LT(stats.communication_fraction(), 0.1);
}

}  // namespace
}  // namespace afforest
