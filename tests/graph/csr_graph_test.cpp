#include "graph/csr_graph.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "graph/builder.hpp"
#include "graph/edge_list.hpp"
#include "graph/generators/suite.hpp"
#include "util/platform.hpp"

namespace afforest {
namespace {

using NodeID = std::int32_t;

Graph star_graph(NodeID leaves) {
  EdgeList<NodeID> edges;
  for (NodeID i = 1; i <= leaves; ++i) edges.push_back({0, i});
  return build_undirected(edges);
}

TEST(CSRGraph, DegreesOfStar) {
  const Graph g = star_graph(5);
  EXPECT_EQ(g.out_degree(0), 5);
  for (NodeID v = 1; v <= 5; ++v) EXPECT_EQ(g.out_degree(v), 1);
}

TEST(CSRGraph, NeighborhoodIterationVisitsAll) {
  const Graph g = star_graph(4);
  std::vector<NodeID> seen;
  for (NodeID v : g.out_neigh(0)) seen.push_back(v);
  EXPECT_EQ(seen, (std::vector<NodeID>{1, 2, 3, 4}));
}

TEST(CSRGraph, NeighborhoodStartOffsetSkipsPrefix) {
  const Graph g = star_graph(4);
  std::vector<NodeID> seen;
  for (NodeID v : g.out_neigh(0, 2)) seen.push_back(v);
  EXPECT_EQ(seen, (std::vector<NodeID>{3, 4}));
}

TEST(CSRGraph, NeighborhoodFullOffsetIsEmpty) {
  const Graph g = star_graph(3);
  EXPECT_TRUE(g.out_neigh(0, 3).empty());
  EXPECT_EQ(g.out_neigh(0, 3).size(), 0);
}

TEST(CSRGraph, KthNeighborAccessor) {
  const Graph g = star_graph(4);
  EXPECT_EQ(g.neighbor(0, 0), 1);
  EXPECT_EQ(g.neighbor(0, 3), 4);
  EXPECT_EQ(g.neighbor(2, 0), 0);
}

TEST(CSRGraph, NeighborhoodIndexOperator) {
  const Graph g = star_graph(4);
  const auto nbrs = g.out_neigh(0);
  EXPECT_EQ(nbrs[1], 2);
}

TEST(CSRGraph, EdgeCountsUndirected) {
  const Graph g = star_graph(5);
  EXPECT_EQ(g.num_edges(), 5);
  EXPECT_EQ(g.num_stored_edges(), 10);
}

TEST(CSRGraph, AverageDegree) {
  const Graph g = star_graph(5);
  // 10 stored edges over 6 nodes.
  EXPECT_NEAR(g.average_degree(), 10.0 / 6.0, 1e-12);
}

TEST(CSRGraph, AverageDegreeEmptyGraphIsZero) {
  pvector<std::int64_t> off{0};
  pvector<NodeID> nbr;
  const Graph g(0, std::move(off), std::move(nbr));
  EXPECT_DOUBLE_EQ(g.average_degree(), 0.0);
}

TEST(CSRGraph, MoveConstructionPreservesContent) {
  Graph g = star_graph(3);
  const auto edges = g.num_stored_edges();
  Graph h(std::move(g));
  EXPECT_EQ(h.num_stored_edges(), edges);
  EXPECT_EQ(h.out_degree(0), 3);
}

TEST(CSRGraph, ManualConstructionFromArrays) {
  // Path 0-1-2 built by hand.
  pvector<std::int64_t> off{0, 1, 3, 4};
  pvector<NodeID> nbr{1, 0, 2, 1};
  const Graph g(3, std::move(off), std::move(nbr));
  EXPECT_EQ(g.num_nodes(), 3);
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_EQ(g.out_degree(1), 2);
  EXPECT_EQ(g.neighbor(1, 0), 0);
  EXPECT_EQ(g.neighbor(1, 1), 2);
}

// lower_edges counts, places and fills each row in parallel; the list must
// be the serial row-order scan's at every team size.
TEST(LowerEdges, MatchesTheSerialScanAtEveryTeam) {
  const int saved = num_threads();
  for (const char* family :
       {"road", "osm-eur", "twitter", "web", "urand", "kron"}) {
    const Graph g = make_suite_graph(family, 12);
    std::vector<EdgePair<NodeID>> want;
    for (NodeID u = 0; u < g.num_nodes(); ++u)
      for (NodeID v : g.out_neigh(u))
        if (u < v) want.push_back({u, v});
    for (const int team : {1, 3, 4}) {
      set_num_threads(team);
      const EdgeList<NodeID> got = lower_edges(g);
      EXPECT_TRUE(std::vector<EdgePair<NodeID>>(got.begin(), got.end()) ==
                  want)
          << family << " team=" << team;
    }
  }
  set_num_threads(saved);
}

}  // namespace
}  // namespace afforest
