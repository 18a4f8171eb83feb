// The chunk planner behind afforest_cc's Chunked final-phase schedule.
// Labels on that schedule are checked by the driver matrix
// (tests/fuzz/driver_matrix_test.cpp).
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "cc/afforest.hpp"
#include "graph/builder.hpp"
#include "graph/generators/suite.hpp"

namespace afforest {
namespace {

using NodeID = std::int32_t;

Graph hub_graph(NodeID leaves) {
  EdgeList<NodeID> edges;
  for (NodeID i = 0; i < leaves; ++i)
    edges.push_back({i, leaves});  // hub is the last vertex
  return build_undirected(edges, leaves + 1);
}

TEST(PlanChunks, SplitsLargeNeighborhoods) {
  const Graph g = hub_graph(100);  // hub degree 100
  const auto chunks = plan_chunks(g, 32);
  // Hub contributes ceil(100/32)=4 chunks; each leaf 1 chunk.
  EXPECT_EQ(chunks.size(), 104u);
  std::int64_t hub_chunks = 0, hub_edges = 0;
  for (const auto& c : chunks) {
    EXPECT_LE(c.end - c.begin, 32);
    if (c.vertex == 100) {
      ++hub_chunks;
      hub_edges += c.end - c.begin;
    }
  }
  EXPECT_EQ(hub_chunks, 4);
  EXPECT_EQ(hub_edges, 100);
}

TEST(PlanChunks, StartOffsetSkipsPrefix) {
  const Graph g = hub_graph(10);
  const auto chunks = plan_chunks(g, 100, 2);
  // Leaves have degree 1 < offset 2, so only the hub (degree 10) remains.
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0].vertex, 10);
  EXPECT_EQ(chunks[0].begin, 2);
  EXPECT_EQ(chunks[0].end, 10);
}

TEST(PlanChunks, EmptyGraph) {
  const Graph g = build_undirected(EdgeList<NodeID>{}, 0);
  EXPECT_TRUE(plan_chunks(g, 16).empty());
}

TEST(PlanChunks, RejectsNonPositiveChunkSize) {
  // 0 would divide by zero and a negative size would never advance.
  const Graph g = hub_graph(10);
  EXPECT_THROW(plan_chunks(g, 0), std::invalid_argument);
  EXPECT_THROW(plan_chunks(g, -4), std::invalid_argument);
}

/// Iterates the plan the way the Chunked schedule does: visits[v][k] counts
/// how often the k-th neighbor of v was visited.
std::vector<std::vector<int>> visits_per_edge(const Graph& g,
                                              std::int64_t chunk_size,
                                              std::int64_t start_offset) {
  std::vector<std::vector<int>> visits(
      static_cast<std::size_t>(g.num_nodes()));
  for (std::int64_t v = 0; v < g.num_nodes(); ++v)
    visits[v].resize(
        static_cast<std::size_t>(g.out_degree(static_cast<NodeID>(v))));
  for (const auto& c : plan_chunks(g, chunk_size, start_offset))
    for (std::int64_t k = c.begin; k < c.end; ++k) ++visits[c.vertex][k];
  return visits;
}

TEST(ForEachEdgeChunked, VisitsEveryStoredEdgeOnce) {
  const Graph g = make_suite_graph("kron", 9);
  for (const auto& row : visits_per_edge(g, 16, 0))
    for (const int count : row) ASSERT_EQ(count, 1);
}

TEST(ForEachEdgeChunked, OffsetVisitsSuffixOnly) {
  const Graph g = make_suite_graph("urand", 8);
  for (const auto& row : visits_per_edge(g, 16, 2))
    for (std::size_t k = 0; k < row.size(); ++k)
      ASSERT_EQ(row[k], k < 2 ? 0 : 1) << "k=" << k;
}

}  // namespace
}  // namespace afforest
