// Unit tests for Afforest's primitives: link, rem_splice, compress, and
// sample_frequent_element — including the paper's invariants (Invariant 1,
// Lemmas 1–5, Theorem 2).
#include <gtest/gtest.h>

#include <set>

#include "analysis/telemetry.hpp"
#include "cc/afforest.hpp"
#include "cc/union_find.hpp"
#include "util/rng.hpp"

namespace afforest {
namespace {

using NodeID = std::int32_t;

bool invariant_holds(const pvector<NodeID>& comp) {
  for (std::size_t v = 0; v < comp.size(); ++v)
    if (comp[v] > static_cast<NodeID>(v)) return false;
  return true;
}

bool acyclic(const pvector<NodeID>& comp) {
  // Invariant 1 implies acyclicity (Lemma 1); verify directly by walking.
  for (std::size_t v = 0; v < comp.size(); ++v) {
    NodeID x = static_cast<NodeID>(v);
    std::size_t steps = 0;
    while (comp[x] != x) {
      x = comp[x];
      if (++steps > comp.size()) return false;
    }
  }
  return true;
}

NodeID root_of(const pvector<NodeID>& comp, NodeID v) {
  while (comp[v] != v) v = comp[v];
  return v;
}

TEST(Link, MergesTwoSingletons) {
  auto comp = identity_labels<NodeID>(4);
  link<NodeID>(1, 3, comp);
  EXPECT_EQ(root_of(comp, 1), root_of(comp, 3));
  EXPECT_TRUE(invariant_holds(comp));
}

TEST(Link, HooksHigherRootOntoLower) {
  auto comp = identity_labels<NodeID>(4);
  link<NodeID>(1, 3, comp);
  EXPECT_EQ(comp[3], 1);  // 3 (higher) points to 1 (lower)
  EXPECT_EQ(comp[1], 1);
}

TEST(Link, IdempotentOnSameEdge) {
  auto comp = identity_labels<NodeID>(4);
  link<NodeID>(1, 3, comp);
  const auto before = comp.clone();
  link<NodeID>(1, 3, comp);
  link<NodeID>(3, 1, comp);
  for (std::size_t i = 0; i < comp.size(); ++i)
    EXPECT_EQ(comp[i], before[i]);
}

TEST(Link, ChainsAcrossExistingTrees) {
  auto comp = identity_labels<NodeID>(6);
  link<NodeID>(4, 5, comp);  // tree {4,5}
  link<NodeID>(2, 3, comp);  // tree {2,3}
  link<NodeID>(5, 3, comp);  // merge them
  EXPECT_EQ(root_of(comp, 4), root_of(comp, 2));
  EXPECT_TRUE(invariant_holds(comp));
  EXPECT_TRUE(acyclic(comp));
}

TEST(Link, PreservesInvariantOnRandomSequences) {
  Xoshiro256 rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    auto comp = identity_labels<NodeID>(64);
    for (int e = 0; e < 200; ++e) {
      const auto u = static_cast<NodeID>(rng.next_bounded(64));
      const auto v = static_cast<NodeID>(rng.next_bounded(64));
      if (u != v) link(u, v, comp);
      ASSERT_TRUE(invariant_holds(comp)) << "trial " << trial;
    }
    ASSERT_TRUE(acyclic(comp));
  }
}

TEST(Link, ParallelStressConvergesToSingleTree) {
  // Hammer one big clique-ish edge set concurrently; afterwards all
  // vertices must share a root (Lemma 5 under contention).
  const std::int64_t n = 1 << 12;
  auto comp = identity_labels<NodeID>(n);
#pragma omp parallel for schedule(static)
  for (std::int64_t i = 0; i < n * 8; ++i) {
    Xoshiro256 rng(static_cast<std::uint64_t>(i));
    const auto u = static_cast<NodeID>(rng.next_bounded(n));
    const auto v = static_cast<NodeID>((u + 1) % n);
    link(u, v, comp);
  }
  const NodeID r = root_of(comp, 0);
  for (std::int64_t v = 0; v < n; ++v)
    ASSERT_EQ(root_of(comp, static_cast<NodeID>(v)), r);
  EXPECT_TRUE(invariant_holds(comp));
}

TEST(LinkSplice, MergesTwoSingletons) {
  auto comp = identity_labels<NodeID>(4);
  rem_splice<NodeID>(1, 3, comp);
  EXPECT_EQ(comp[3], 1);
  EXPECT_EQ(comp[1], 1);
}

TEST(LinkSplice, SplicesTheClimbedPathOntoTheLowerParent) {
  // 3 -> 2 -> 2 and 1 -> 0: link() would only hook root 2 onto 0; the
  // splice also re-points 3 at 0 on its way up.
  pvector<NodeID> comp{0, 0, 2, 2, 2};
  rem_splice<NodeID>(3, 1, comp);
  EXPECT_EQ(comp[3], 0);
  EXPECT_EQ(comp[2], 0);
  EXPECT_EQ(comp[4], 2);  // off the climbed path: untouched
  EXPECT_TRUE(invariant_holds(comp));
}

TEST(LinkSplice, IdempotentOnSameEdge) {
  auto comp = identity_labels<NodeID>(4);
  rem_splice<NodeID>(1, 3, comp);
  const auto before = comp.clone();
  rem_splice<NodeID>(1, 3, comp);
  rem_splice<NodeID>(3, 1, comp);
  for (std::size_t i = 0; i < comp.size(); ++i)
    EXPECT_EQ(comp[i], before[i]);
}

TEST(LinkSplice, PreservesInvariantOnRandomSequences) {
  // Invariant 1 after every call; after compress, every label is its
  // component's minimum, exactly as union-find labels it.
  Xoshiro256 rng(29);
  for (int trial = 0; trial < 20; ++trial) {
    auto comp = identity_labels<NodeID>(64);
    EdgeList<NodeID> edges;
    for (int e = 0; e < 60; ++e) {
      const auto u = static_cast<NodeID>(rng.next_bounded(64));
      const auto v = static_cast<NodeID>(rng.next_bounded(64));
      rem_splice(u, v, comp);
      edges.push_back({u, v});
      ASSERT_TRUE(invariant_holds(comp)) << "trial " << trial;
    }
    ASSERT_TRUE(acyclic(comp));
    compress_all(comp);
    const auto want = union_find_cc(edges, 64);
    for (std::size_t v = 0; v < comp.size(); ++v)
      ASSERT_EQ(comp[v], want[v]) << "trial " << trial << " v=" << v;
  }
}

TEST(LinkSplice, ParallelStressConvergesToSingleTree) {
  const std::int64_t n = 1 << 12;
  auto comp = identity_labels<NodeID>(n);
#pragma omp parallel for schedule(static)
  for (std::int64_t i = 0; i < n * 8; ++i) {
    Xoshiro256 rng(static_cast<std::uint64_t>(i));
    const auto u = static_cast<NodeID>(rng.next_bounded(n));
    const auto v = static_cast<NodeID>((u + 1) % n);
    rem_splice(u, v, comp);
  }
  // The same edge set as Link.ParallelStressConvergesToSingleTree.
  EXPECT_TRUE(invariant_holds(comp));
  const NodeID r = root_of(comp, 0);
  for (std::int64_t v = 0; v < n; ++v)
    ASSERT_EQ(root_of(comp, static_cast<NodeID>(v)), r);
  EXPECT_EQ(r, 0);
}

TEST(LinkSplice, ReportsOneLinkCallPerCall) {
  // The driver's edge identity (sampled + final + skipped == stored) and
  // perfbench's per-call ratios count one link_calls per union call.
  if (!telemetry::compiled_in()) GTEST_SKIP() << "telemetry compiled out";
  const telemetry::ScopedEnable armed;
  auto comp = identity_labels<NodeID>(64);
  Xoshiro256 rng(5);
  for (int e = 0; e < 100; ++e)
    rem_splice(static_cast<NodeID>(rng.next_bounded(64)),
               static_cast<NodeID>(rng.next_bounded(64)), comp);
  const auto c = telemetry::capture().counters;
  EXPECT_EQ(c.link_calls, 100u);
  EXPECT_EQ(c.cas_failures, 0u);  // one thread: no CAS can lose
  EXPECT_GE(c.cas_attempts, c.link_retries);
}

TEST(Compress, SingleVertexPathBecomesDepthOne) {
  // Build chain 3 -> 2 -> 1 -> 0 by hand.
  pvector<NodeID> comp{0, 0, 1, 2};
  compress<NodeID>(3, comp);
  EXPECT_EQ(comp[3], 0);
}

TEST(CompressAll, AllTreesReachDepthOne) {
  pvector<NodeID> comp{0, 0, 1, 2, 4, 4, 5, 6};
  compress_all(comp);
  for (std::size_t v = 0; v < comp.size(); ++v)
    EXPECT_EQ(comp[comp[v]], comp[v]) << "v=" << v;
  // Connectivity preserved (Theorem 2).
  EXPECT_EQ(comp[3], 0);
  EXPECT_EQ(comp[7], 4);
}

TEST(CompressAll, IdempotentOnCompressedForest) {
  pvector<NodeID> comp{0, 0, 0, 3, 3};
  const auto before = comp.clone();
  compress_all(comp);
  for (std::size_t i = 0; i < comp.size(); ++i)
    EXPECT_EQ(comp[i], before[i]);
}

TEST(CompressAll, EmptyArrayIsFine) {
  pvector<NodeID> comp;
  compress_all(comp);
  EXPECT_TRUE(comp.empty());
}

TEST(SampleFrequentElement, FindsGiantComponentLabel) {
  // 90% of entries labeled 7, rest unique.
  const std::int64_t n = 10000;
  pvector<NodeID> comp(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i)
    comp[i] = (i % 10 == 0) ? static_cast<NodeID>(i) : 7;
  EXPECT_EQ(sample_frequent_element(comp, 512), 7);
}

TEST(SampleFrequentElement, DeterministicForSeed) {
  pvector<NodeID> comp(1000, 3);
  EXPECT_EQ(sample_frequent_element(comp, 64, 99),
            sample_frequent_element(comp, 64, 99));
}

TEST(SampleFrequentElement, UniformLabelsReturnSomeLabel) {
  // No giant component: any returned label must at least be present.
  pvector<NodeID> comp(100);
  for (std::size_t i = 0; i < 100; ++i) comp[i] = static_cast<NodeID>(i);
  const NodeID s = sample_frequent_element(comp, 32);
  EXPECT_GE(s, 0);
  EXPECT_LT(s, 100);
}

TEST(IdentityLabels, EveryVertexSelfPointing) {
  const auto comp = identity_labels<NodeID>(100);
  for (std::size_t v = 0; v < comp.size(); ++v)
    EXPECT_EQ(comp[v], static_cast<NodeID>(v));
}

TEST(CountComponents, DistinctLabelCount) {
  pvector<NodeID> comp{0, 0, 2, 2, 4};
  EXPECT_EQ(count_components(comp), 3);
}

}  // namespace
}  // namespace afforest
