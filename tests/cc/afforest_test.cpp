// Correctness tests for the full Afforest driver across configurations and
// topologies, plus its documented label convention and edge cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <variant>
#include <vector>

#include "analysis/telemetry.hpp"
#include "cc/afforest.hpp"
#include "cc/union_find.hpp"
#include "cc/verifier.hpp"
#include "graph/builder.hpp"
#include "graph/generators/road.hpp"
#include "graph/generators/suite.hpp"
#include "graph/generators/uniform.hpp"
#include "util/platform.hpp"

namespace afforest {
namespace {

using NodeID = std::int32_t;

TEST(Afforest, EmptyGraph) {
  const Graph g = build_undirected(EdgeList<NodeID>{}, 0);
  const auto comp = afforest_cc(g);
  EXPECT_EQ(comp.size(), 0u);
}

TEST(Afforest, SingleVertex) {
  const Graph g = build_undirected(EdgeList<NodeID>{}, 1);
  const auto comp = afforest_cc(g);
  ASSERT_EQ(comp.size(), 1u);
  EXPECT_EQ(comp[0], 0);
}

TEST(Afforest, AllIsolatedVertices) {
  const Graph g = build_undirected(EdgeList<NodeID>{}, 50);
  const auto comp = afforest_cc(g);
  for (std::size_t v = 0; v < comp.size(); ++v)
    EXPECT_EQ(comp[v], static_cast<NodeID>(v));
  EXPECT_EQ(count_components(comp), 50);
}

TEST(Afforest, SingleEdge) {
  const Graph g = build_undirected(EdgeList<NodeID>{{0, 1}}, 2);
  const auto comp = afforest_cc(g);
  EXPECT_EQ(comp[0], comp[1]);
}

TEST(Afforest, PathGraph) {
  EdgeList<NodeID> edges;
  for (NodeID i = 1; i < 100; ++i)
    edges.push_back({static_cast<NodeID>(i - 1), i});
  const Graph g = build_undirected(edges, 100);
  const auto comp = afforest_cc(g);
  EXPECT_TRUE(verify_cc(g, comp));
  EXPECT_EQ(count_components(comp), 1);
}

TEST(Afforest, TwoComponents) {
  EdgeList<NodeID> edges{{0, 1}, {1, 2}, {3, 4}};
  const Graph g = build_undirected(edges, 5);
  const auto comp = afforest_cc(g);
  EXPECT_EQ(comp[0], comp[2]);
  EXPECT_EQ(comp[3], comp[4]);
  EXPECT_NE(comp[0], comp[3]);
}

TEST(Afforest, LabelsAreMinimumVertexIdOfComponent) {
  EdgeList<NodeID> edges{{5, 9}, {9, 7}, {2, 4}};
  const Graph g = build_undirected(edges, 10);
  const auto comp = afforest_cc(g);
  EXPECT_EQ(comp[5], 5);
  EXPECT_EQ(comp[9], 5);
  EXPECT_EQ(comp[7], 5);
  EXPECT_EQ(comp[2], 2);
  EXPECT_EQ(comp[4], 2);
  EXPECT_EQ(comp[0], 0);
}

TEST(Afforest, StarGraphWhereRootHasHighestId) {
  // The adversarial-ish shape from §V-A: hub has the highest index.
  EdgeList<NodeID> edges;
  for (NodeID i = 0; i < 63; ++i) edges.push_back({i, 63});
  const Graph g = build_undirected(edges, 64);
  const auto comp = afforest_cc(g);
  EXPECT_TRUE(verify_cc(g, comp));
  EXPECT_EQ(count_components(comp), 1);
}

// Sweep neighbor rounds x skip_largest over every suite family.
class AfforestConfigTest
    : public ::testing::TestWithParam<std::tuple<int, bool, std::string>> {};

TEST_P(AfforestConfigTest, MatchesReferenceOnSuiteGraph) {
  const auto [rounds, skip, family] = GetParam();
  const Graph g = make_suite_graph(family, 10);
  AfforestOptions opts;
  opts.sampling = NeighborRounds{rounds};
  opts.skip_largest = skip;
  const auto comp = afforest_cc(g, opts);
  EXPECT_TRUE(labels_equivalent(comp, union_find_cc(g)))
      << "rounds=" << rounds << " skip=" << skip << " family=" << family;
}

INSTANTIATE_TEST_SUITE_P(
    RoundsSkipFamily, AfforestConfigTest,
    ::testing::Combine(::testing::Values(0, 1, 2, 3, 8),
                       ::testing::Bool(),
                       ::testing::Values("road", "osm-eur", "twitter", "web",
                                         "urand", "kron")),
    [](const auto& info) {
      std::string name = "r" + std::to_string(std::get<0>(info.param)) +
                         (std::get<1>(info.param) ? "_skip_" : "_noskip_") +
                         std::get<2>(info.param);
      for (auto& ch : name)
        if (ch == '-') ch = '_';
      return name;
    });

TEST(Afforest, NegativeNeighborRoundsClampedToZero) {
  const Graph g = make_suite_graph("urand", 8);
  AfforestOptions opts;
  opts.sampling = NeighborRounds{-3};
  EXPECT_TRUE(verify_cc(g, afforest_cc(g, opts)));
}

TEST(Afforest, RejectsNonPositiveChunkSizeAtEntry) {
  // Size 0 would divide by zero in the chunk planner and a negative size
  // would never advance; the driver refuses both before phase 1.
  const Graph g = make_suite_graph("kron", 8);
  for (const std::int64_t size : {0, -1, -64}) {
    AfforestOptions opts;
    opts.schedule = Chunked{size};
    AfforestPhaseTimes times;
    times.init_s = -1.0;  // untouched iff the driver threw at entry
    EXPECT_THROW(afforest_cc(g, opts, &times), std::invalid_argument)
        << "size=" << size;
    EXPECT_EQ(times.init_s, -1.0) << "size=" << size;
  }
}

TEST(Afforest, TinySampleCountStillCorrect) {
  // Even a bad skip guess must not break correctness (Theorem 3 holds for
  // ANY intermediate component).
  const Graph g = make_suite_graph("kron", 10);
  AfforestOptions opts;
  opts.sample_count = 1;
  EXPECT_TRUE(labels_equivalent(afforest_cc(g, opts), union_find_cc(g)));
}

TEST(Afforest, NeighborRoundsBeyondMaxDegree) {
  const Graph g = build_undirected(EdgeList<NodeID>{{0, 1}, {1, 2}}, 3);
  AfforestOptions opts;
  opts.sampling = NeighborRounds{100};  // exceeds every degree
  EXPECT_TRUE(verify_cc(g, afforest_cc(g, opts)));
}

TEST(Afforest, DeterministicLabelsAcrossRuns) {
  // Labels are min-ids, so repeated runs agree exactly even with threads.
  const Graph g = make_suite_graph("twitter", 11);
  const auto a = afforest_cc(g);
  const auto b = afforest_cc(g);
  for (std::size_t v = 0; v < a.size(); ++v) ASSERT_EQ(a[v], b[v]);
}

TEST(AfforestNoSkip, MatchesSkippingVariant) {
  const Graph g = make_suite_graph("web", 11);
  EXPECT_TRUE(labels_equivalent(afforest_cc(g), afforest_no_skip(g)));
}

TEST(AfforestNoInterleave, RunsOnlyTheFinalCompress) {
  // The ablation drops the compress after each sampling round, so the
  // probe sees the rounds, the final link and one compress; the labels are
  // still the component minima.
  struct Phases : TelemetryProbe {
    std::vector<AfforestPhase>* seen;

    void phase(AfforestPhase which, std::int32_t,
               const pvector<NodeID>&) const {
      seen->push_back(which);
    }
  };
  const std::vector<AfforestPhase> want = {
      AfforestPhase::kSample, AfforestPhase::kSample,
      AfforestPhase::kFinalLink, AfforestPhase::kFinalCompress};
  for (const auto* name : {"road", "web", "kron"}) {
    const Graph g = make_suite_graph(name, 10);
    std::vector<AfforestPhase> seen;
    const auto labels = afforest_no_interleave(g, 2, Phases{{}, &seen});
    const auto truth = union_find_cc(g);
    EXPECT_TRUE(std::equal(labels.begin(), labels.end(), truth.begin(),
                           truth.end()))
        << name;
    EXPECT_EQ(seen, want) << name;
  }
}

TEST(AfforestUniformSampling, ThresholdSaturatesAtFullSampling) {
  // Regression: sample_p >= 1.0 used to cast sample_p * 2^64 to uint64,
  // which is UB ([conv.fpint]) — under -O3 the result could collapse to 0
  // and silently sample NOTHING in phase 1.  The saturated threshold must
  // accept every possible edge hash, i.e. p=1.0 links every edge.
  EXPECT_EQ(uniform_sample_threshold(1.0),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(uniform_sample_threshold(1.5),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(uniform_sample_threshold(100.0),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(uniform_sample_threshold(0.0), 0u);
  EXPECT_EQ(uniform_sample_threshold(-0.25), 0u);
  // Monotone in between, and ~p·2^64 at the midpoint.
  EXPECT_LT(uniform_sample_threshold(0.25), uniform_sample_threshold(0.75));
  EXPECT_NEAR(static_cast<double>(uniform_sample_threshold(0.5)),
              0.5 * static_cast<double>(std::numeric_limits<std::uint64_t>::max()),
              1e13);
  // Every edge-hash value passes the p=1.0 acceptance predicate — the
  // "links every edge" guarantee phase 1 relies on.
  SplitMix64 hash(0xFEEDFACE);
  for (int i = 0; i < 4096; ++i)
    ASSERT_LE(hash.next(), uniform_sample_threshold(1.0));
}

TEST(AfforestUniformSampling, OversamplingProbabilityStaysCorrect) {
  // p > 1.0 (saturated) must behave exactly like p = 1.0: the previous
  // cast was UB for any p >= 1.0, so this doubles as the UBSan regression.
  for (const double p : {1.0, 2.0, 64.0}) {
    const Graph g = make_suite_graph("urand", 10);
    AfforestOptions opts;
    opts.sampling = UniformEdges{p};
    EXPECT_TRUE(labels_equivalent(afforest_cc(g, opts), union_find_cc(g)))
        << "p=" << p;
  }
}

TEST(AfforestUniformSampling, DeterministicForSeed) {
  const Graph g = make_suite_graph("kron", 10);
  AfforestOptions opts;
  opts.sampling = UniformEdges{0.1};
  const auto a = afforest_cc(g, opts);
  const auto b = afforest_cc(g, opts);
  for (std::size_t v = 0; v < a.size(); ++v) ASSERT_EQ(a[v], b[v]);
}

TEST(Afforest, DenseCliqueCorrect) {
  EdgeList<NodeID> edges;
  const NodeID k = 40;
  for (NodeID i = 0; i < k; ++i)
    for (NodeID j = static_cast<NodeID>(i + 1); j < k; ++j)
      edges.push_back({i, j});
  const Graph g = build_undirected(edges, k);
  const auto comp = afforest_cc(g);
  EXPECT_EQ(count_components(comp), 1);
  EXPECT_TRUE(verify_cc(g, comp));
}

// Under RemSplice the k neighbor rounds run as one pass and one compress;
// RootHook keeps the paper's compress after every round.  Both unite every
// vertex's first min(k, deg) neighbors, so the sampled forest, c and the
// phase-3 work agree.
using PhaseMark = std::pair<AfforestPhase, std::int32_t>;
using Link = decltype(AfforestOptions::link);

// Records each phase boundary, and π as phase 2 begins.
struct PhaseLog : TelemetryProbe {
  std::vector<PhaseMark>* seen;
  std::vector<NodeID>* sampled;

  void phase(AfforestPhase which, std::int32_t round,
             const pvector<NodeID>& comp) const {
    seen->emplace_back(which, round);
    if (which == AfforestPhase::kFindLargest)
      sampled->assign(comp.begin(), comp.end());
  }
};

struct NamedGraph {
  std::string name;
  Graph graph;
};

// The six suite families at scales 10–12, and one directed input.
std::vector<NamedGraph> fused_inputs() {
  std::vector<NamedGraph> out;
  for (const auto& [family, scale] :
       std::vector<std::pair<std::string, int>>{{"road", 12},
                                                {"osm-eur", 12},
                                                {"twitter", 11},
                                                {"web", 11},
                                                {"urand", 10},
                                                {"kron", 10}})
    out.push_back({family + "/s" + std::to_string(scale),
                   make_suite_graph(family, scale)});
  out.push_back({"urand/directed",
                 build_directed(generate_uniform_edges<NodeID>(4096, 8192, 5),
                                4096)});
  return out;
}

const std::vector<std::int32_t> kFusedRounds = {0, 1, 2, 3, 5};

const char* link_name(const Link& link) {
  return std::holds_alternative<RemSplice>(link) ? "rem-splice" : "root-hook";
}

AfforestOptions rounds_cell(std::int32_t k, Link link) {
  AfforestOptions opts;
  opts.sampling = NeighborRounds{k};
  opts.link = link;
  return opts;
}

TEST(AfforestFusedSampling, RemSpliceSamplesInOnePass) {
  const Graph g = make_suite_graph("kron", 10);
  for (const std::int32_t k : kFusedRounds) {
    for (const Link link : {Link{RootHook{}}, Link{RemSplice{}}}) {
      const std::int32_t passes =
          std::holds_alternative<RemSplice>(link) ? std::min(k, 1) : k;
      std::vector<PhaseMark> want;
      for (std::int32_t r = 0; r < passes; ++r) {
        want.emplace_back(AfforestPhase::kSample, r);
        want.emplace_back(AfforestPhase::kCompress, r);
      }
      want.emplace_back(AfforestPhase::kFindLargest, 0);
      want.emplace_back(AfforestPhase::kFinalLink, 0);
      want.emplace_back(AfforestPhase::kFinalCompress, 0);
      std::vector<PhaseMark> seen;
      std::vector<NodeID> sampled;
      afforest_cc(g, rounds_cell(k, link), nullptr,
                  PhaseLog{{}, &seen, &sampled});
      EXPECT_EQ(seen, want) << link_name(link) << " k=" << k;

      // Armed telemetry times the same scopes.
      if (!telemetry::compiled_in()) continue;
      const telemetry::ScopedEnable armed;
      afforest_cc(g, rounds_cell(k, link));
      std::uint64_t samples = 0, compresses = 0;
      for (const auto& row : telemetry::phases()) {
        if (row.name == "afforest.sampling") samples = row.count;
        if (row.name == "afforest.compress") compresses = row.count;
      }
      const auto want_passes = static_cast<std::uint64_t>(passes);
      EXPECT_EQ(samples, want_passes) << link_name(link) << " k=" << k;
      EXPECT_EQ(compresses, want_passes + 1) << link_name(link) << " k=" << k;
    }
  }
}

TEST(AfforestFusedSampling, SampledForestMatchesTheRounds) {
  for (const auto& [name, g] : fused_inputs()) {
    for (const std::int32_t k : kFusedRounds) {
      std::vector<PhaseMark> seen;
      std::vector<NodeID> rounds, fused;
      afforest_cc(g, rounds_cell(k, RootHook{}), nullptr,
                  PhaseLog{{}, &seen, &rounds});
      afforest_cc(g, rounds_cell(k, RemSplice{}), nullptr,
                  PhaseLog{{}, &seen, &fused});
      ASSERT_EQ(rounds.size(), static_cast<std::size_t>(g.num_nodes()));
      EXPECT_TRUE(fused == rounds) << name << " k=" << k;
    }
  }
}

// The fused pass must leave phase 3 the work the k splice rounds left it:
// the same unions and the same skips.  The rounds are rebuilt from the
// primitives, in the order afforest_cc ran them under RemSplice before the
// fusion.  One thread makes phase 3 repeatable, since its skip reads race
// its unions.  RootHook is no reference here: phase 3 runs the link too,
// and a splice can carry a vertex not yet checked into or out of c's
// label, so the two links' skip counts differ on road, osm-eur and urand.
TEST(AfforestFusedSampling, ArmedCountsMatchTheSpliceRounds) {
  if (!telemetry::compiled_in()) GTEST_SKIP() << "telemetry compiled out";
  const int saved = num_threads();
  set_num_threads(1);
  for (const auto& [name, g] : fused_inputs()) {
    const std::int64_t n = g.num_nodes();
    for (const std::int32_t k : kFusedRounds) {
      const AfforestOptions opts = rounds_cell(k, RemSplice{});
      telemetry::Counters fused, rounds;
      {
        const telemetry::ScopedEnable armed;
        afforest_cc(g, opts);
        fused = telemetry::snapshot();
      }
      {
        const telemetry::ScopedEnable armed;
        auto comp = identity_labels<NodeID>(n);
        for (std::int32_t r = 0; r < k; ++r) {
          for (std::int64_t v = 0; v < n; ++v)
            if (r < g.out_degree(static_cast<NodeID>(v)))
              rem_splice(static_cast<NodeID>(v),
                         g.neighbor(static_cast<NodeID>(v), r), comp);
          compress_all(comp);
        }
        const NodeID c = sample_frequent_element(comp, opts.sample_count,
                                                 opts.sample_seed);
        link_remaining<RemSplice>(g, comp, k, opts, c);
        rounds = telemetry::snapshot();
      }
      EXPECT_GT(fused.link_calls, 0u) << name << " k=" << k;
      EXPECT_EQ(fused.link_calls, rounds.link_calls) << name << " k=" << k;
      EXPECT_EQ(fused.phase3_edges_skipped, rounds.phase3_edges_skipped)
          << name << " k=" << k;
      EXPECT_EQ(fused.phase3_vertices_skipped,
                rounds.phase3_vertices_skipped)
          << name << " k=" << k;
    }
  }
  set_num_threads(saved);
}

// Under RemSplice a solve whose sampled neighbors mostly lie in their
// vertex's block of ids runs the owner pass: each thread writes its own
// block with plain stores and keeps the climb pair of any union that must
// write outside it, for a CAS finish after the barrier.  Whichever pass
// runs, π after the compress holds each sampled component's minimum id.

// π after a serial rem_splice pass over every vertex's first min(k, deg)
// neighbors, then compress_all.
template <typename NodeID_>
std::vector<NodeID_> serial_sampled_forest(const CSRGraph<NodeID_>& g,
                                           std::int32_t k) {
  auto comp = identity_labels<NodeID_>(g.num_nodes());
  for (NodeID_ v = 0; v < g.num_nodes(); ++v)
    for (std::int64_t i = 0; i < std::min<std::int64_t>(k, g.out_degree(v));
         ++i)
      rem_splice(v, g.neighbor(v, i), comp);
  compress_all(comp);
  return {comp.begin(), comp.end()};
}

// π at kFindLargest of a RemSplice solve.
std::vector<NodeID> solved_sampled_forest(const Graph& g, std::int32_t k) {
  std::vector<PhaseMark> seen;
  std::vector<NodeID> sampled;
  afforest_cc(g, rounds_cell(k, RemSplice{}), nullptr,
              PhaseLog{{}, &seen, &sampled});
  return sampled;
}

// The owner pass with blocks of `block` ids, whatever the locality test
// says, then compress_all.
template <typename NodeID_>
std::vector<NodeID_> owner_sampled_forest(const CSRGraph<NodeID_>& g,
                                          std::int32_t k, std::int64_t block) {
  auto comp = identity_labels<NodeID_>(g.num_nodes());
  detail::sample_owned_blocks(g, comp, k, block, TelemetryProbe{});
  compress_all(comp);
  return {comp.begin(), comp.end()};
}

// The owner pass at int16 and int64 ids, on a 128 x 128 lattice.
template <typename NodeID_>
void expect_owner_pass_matches_at_width(std::int32_t k, int team) {
  const auto g = build_undirected<NodeID_>(
      generate_road_edges<NodeID_>(128, 128, 7, {.keep_prob = 0.6}));
  const auto want = serial_sampled_forest(g, k);
  for (const std::int64_t block :
       {detail::owner_block_size(g.num_nodes(), team), std::int64_t{64}})
    EXPECT_TRUE(owner_sampled_forest(g, k, block) == want)
        << sizeof(NodeID_) << "-byte ids k=" << k << " team=" << team
        << " block=" << block;
}

TEST(AfforestOwnerSampling, ForestMatchesTheCasPass) {
  const int saved = num_threads();
  for (const char* family :
       {"road", "osm-eur", "twitter", "web", "urand", "kron"}) {
    const Graph g = make_suite_graph(family, 14);
    for (const std::int32_t k : {1, 2, 3, 5}) {
      const auto want = serial_sampled_forest(g, k);
      for (const int team : {1, 2, 3, 4}) {
        set_num_threads(team);
        const std::int64_t block =
            detail::owner_block_size(g.num_nodes(), team);
        EXPECT_GE(g.num_nodes(), 4 * block) << family;
        EXPECT_TRUE(solved_sampled_forest(g, k) == want)
            << family << " k=" << k << " team=" << team;
        // The owner pass on every family, and on 64-id blocks, whose
        // unions leave their block far more often.
        EXPECT_TRUE(owner_sampled_forest(g, k, block) == want)
            << family << " k=" << k << " team=" << team;
        EXPECT_TRUE(owner_sampled_forest(g, k, 64) == want)
            << family << " k=" << k << " team=" << team << " block=64";
      }
    }
  }
  for (const std::int32_t k : {1, 2, 3, 5}) {
    for (const int team : {1, 2, 3, 4}) {
      set_num_threads(team);
      expect_owner_pass_matches_at_width<std::int16_t>(k, team);
      expect_owner_pass_matches_at_width<std::int64_t>(k, team);
    }
  }
  set_num_threads(saved);
}

// A union that splices inside its block before its climb leaves it has
// already moved its endpoint's subtree out of the old tree.  Only the kept
// pair still joins what is left of that tree: the original edge's
// endpoints share a tree by then, so re-running it would leave the rest
// apart.  osm-eur at scale 14, seed 7 has such unions at k = 2.
TEST(AfforestOwnerSampling, KeptPairFinishesASplitClimb) {
  const Graph g = make_suite_graph("osm-eur", 14, 7);
  const std::int64_t n = g.num_nodes();
  const std::int32_t k = 2;
  const int saved = num_threads();
  set_num_threads(1);
  const std::int64_t block = detail::owner_block_size(n, 1);
  ASSERT_TRUE(detail::samples_stay_in_blocks(g, k, block, AfforestOptions{}));
  // The blocks in the order one thread takes them: some kept pair is not
  // its edge, so its climb spliced before it paused.
  std::int64_t split = 0;
  auto comp = identity_labels<NodeID>(n);
  for (std::int64_t lo = 0; lo < n; lo += block) {
    const OwnedBlock owned{lo, std::min(n, lo + block)};
    for (auto v = static_cast<NodeID>(owned.lo); v < owned.hi; ++v) {
      for (std::int64_t i = 0; i < std::min<std::int64_t>(k, g.out_degree(v));
           ++i) {
        const NodeID w = g.neighbor(v, i);
        if (const auto kept = rem_splice(v, w, comp, TelemetryProbe{}, owned))
          split += *kept != std::pair{v, w} && *kept != std::pair{w, v};
      }
    }
  }
  EXPECT_GT(split, 0);
  EXPECT_TRUE(solved_sampled_forest(g, k) == serial_sampled_forest(g, k));
  set_num_threads(saved);
}

// The locality test sends road, whose sampled neighbors lie in their
// vertex's block, to the owner pass, whose stores are not CAS attempts;
// urand, whose neighbors are spread over every block, takes the CAS pass
// and makes exactly the CAS attempts of that pass rebuilt from the
// primitives.  One thread makes the counts repeatable.
TEST(AfforestOwnerSampling, LocalityTestPicksThePass) {
  if (!telemetry::compiled_in()) GTEST_SKIP() << "telemetry compiled out";
  const int saved = num_threads();
  set_num_threads(1);
  const AfforestOptions opts;
  const std::int32_t k = std::get<NeighborRounds>(opts.sampling).k;
  for (const char* family : {"road", "urand"}) {
    const Graph g = make_suite_graph(family, 14);
    const std::int64_t n = g.num_nodes();
    const bool owner = std::string(family) == "road";
    EXPECT_EQ(detail::samples_stay_in_blocks(
                  g, k, detail::owner_block_size(n, 1), opts),
              owner)
        << family;
    telemetry::Counters solve, cas_pass;
    {
      const telemetry::ScopedEnable armed;
      afforest_cc(g, opts);
      solve = telemetry::snapshot();
    }
    {
      const telemetry::ScopedEnable armed;
      auto comp = identity_labels<NodeID>(n);
      for (NodeID v = 0; v < n; ++v)
        for (std::int64_t i = 0;
             i < std::min<std::int64_t>(k, g.out_degree(v)); ++i)
          rem_splice(v, g.neighbor(v, i), comp);
      compress_all(comp);
      const NodeID c = sample_frequent_element(comp, opts.sample_count,
                                               opts.sample_seed);
      link_remaining<RemSplice>(g, comp, k, opts, c);
      cas_pass = telemetry::snapshot();
    }
    EXPECT_EQ(solve.link_calls, cas_pass.link_calls) << family;
    if (owner)
      EXPECT_LT(solve.cas_attempts, cas_pass.cas_attempts) << family;
    else
      EXPECT_EQ(solve.cas_attempts, cas_pass.cas_attempts) << family;
  }
  set_num_threads(saved);
}

}  // namespace
}  // namespace afforest
