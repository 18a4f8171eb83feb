#include "cc/rem.hpp"

#include <gtest/gtest.h>

#include "cc/union_find.hpp"
#include "cc/verifier.hpp"
#include "graph/builder.hpp"
#include "graph/generators/suite.hpp"
#include "graph/generators/uniform.hpp"

namespace afforest {
namespace {

using NodeID = std::int32_t;

TEST(RemUnite, MergesAndReportsChange) {
  auto parent = identity_labels<NodeID>(4);
  EXPECT_TRUE(rem_unite<NodeID>(0, 3, parent));
  EXPECT_FALSE(rem_unite<NodeID>(3, 0, parent));
}

TEST(RemUnite, MaintainsParentInvariant) {
  auto parent = identity_labels<NodeID>(64);
  Xoshiro256 rng(3);
  for (int e = 0; e < 300; ++e) {
    const auto u = static_cast<NodeID>(rng.next_bounded(64));
    const auto v = static_cast<NodeID>(rng.next_bounded(64));
    if (u != v) rem_unite(u, v, parent);
    for (std::size_t x = 0; x < parent.size(); ++x)
      ASSERT_LE(parent[x], static_cast<NodeID>(x));
  }
}

TEST(RemCC, MatchesReferenceOnSuite) {
  for (const auto* name : {"road", "osm-eur", "twitter", "web", "urand",
                           "kron"}) {
    const Graph g = make_suite_graph(name, 10);
    const auto truth = union_find_cc(g);
    EXPECT_TRUE(labels_equivalent(rem_cc(g), truth)) << "serial " << name;
    EXPECT_TRUE(labels_equivalent(rem_cc_parallel(g), truth))
        << "parallel " << name;
  }
}

TEST(RemCC, LabelsAreComponentMinima) {
  const Graph g = build_undirected(EdgeList<NodeID>{{5, 9}, {9, 7}}, 10);
  const auto comp = rem_cc(g);
  EXPECT_EQ(comp[9], 5);
  EXPECT_EQ(comp[7], 5);
}

TEST(RemCC, EmptyAndSingleton) {
  const Graph empty = build_undirected(EdgeList<NodeID>{}, 0);
  EXPECT_EQ(rem_cc(empty).size(), 0u);
  const Graph one = build_undirected(EdgeList<NodeID>{}, 1);
  EXPECT_EQ(rem_cc_parallel(one)[0], 0);
}

TEST(RemCC, DirectedInputsGetWeakComponents) {
  // Directed storage holds each arc once, in its tail's row: both variants
  // unite every stored arc, not only those with tail < head.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto edges = generate_uniform_edges<NodeID>(300, 300, seed);
    const Graph g = build_directed(edges, 300);
    const auto truth = union_find_cc(edges, 300);
    EXPECT_TRUE(labels_equivalent(rem_cc(g), truth)) << "serial " << seed;
    EXPECT_TRUE(labels_equivalent(rem_cc_parallel(g), truth))
        << "parallel " << seed;
  }
}

TEST(RemCCParallel, StressManySeeds) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const std::int64_t n = 1 << 11;
    const Graph g = build_undirected(
        generate_uniform_edges<NodeID>(n, 3 * n, seed), n);
    ASSERT_TRUE(labels_equivalent(rem_cc_parallel(g), union_find_cc(g)))
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace afforest
