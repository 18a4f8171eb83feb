// select_probe: every entry point with a parallel union or compress loop
// reads telemetry::enabled() once and runs the hook-free NullProbe while
// dormant, ArmedTelemetryProbe (no per-hook check) while armed, and any
// other probe as itself.
// Built with -DAFFOREST_TELEMETRY=OFF, NullProbe is the only selection.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "analysis/telemetry.hpp"
#include "cc/afforest.hpp"
#include "cc/rem.hpp"
#include "dist/partitioned_cc.hpp"
#include "graph/generators/suite.hpp"
#include "serve/query_engine.hpp"
#include "util/parallel.hpp"

namespace afforest {
namespace {

using NodeID = std::int32_t;

template <typename Want, typename Probe>
bool selects(Probe probe) {
  return select_probe(probe, [](auto selected) {
    return std::is_same_v<decltype(selected), Want>;
  });
}

// A non-default probe with state, as LinkCounter's and the tracer's are.
struct TaggedProbe : TelemetryProbe {
  int* tag;
};

std::vector<std::pair<std::string, std::uint64_t>> rows(
    const telemetry::Counters& c) {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  telemetry::for_each_counter(c, [&out](const char* name, std::uint64_t v) {
    out.emplace_back(name, v);
  });
  return out;
}

TEST(ProbeSelection, DefaultProbeIsHookFreeWhileDormant) {
  telemetry::set_enabled(false);
  EXPECT_TRUE(selects<NullProbe>(TelemetryProbe{}));
  EXPECT_FALSE(NullProbe{}.counts_skips());
}

TEST(ProbeSelection, DefaultProbeIsTelemetryProbeWhileArmed) {
  const telemetry::ScopedEnable armed;
  if (telemetry::compiled_in())
    EXPECT_TRUE(selects<ArmedTelemetryProbe>(TelemetryProbe{}));
  else
    EXPECT_TRUE(selects<NullProbe>(TelemetryProbe{}));
}

TEST(ProbeSelection, OtherProbesAreSelectedAsThemselves) {
  int tag = 0;
  for (const bool arm : {false, true}) {
    telemetry::set_enabled(arm);
    EXPECT_TRUE(selects<TaggedProbe>(TaggedProbe{{}, &tag})) << arm;
    EXPECT_TRUE(selects<NullProbe>(NullProbe{})) << arm;
    const int* kept = select_probe(TaggedProbe{{}, &tag},
                                   [](auto selected) { return selected.tag; });
    EXPECT_EQ(kept, &tag) << arm;
  }
  telemetry::set_enabled(false);
}

// perfbench's traced order: untraced warm-up solves, then arming, then the
// measured solve.  The selection is made per call, so the armed solve
// counts what a solve armed from the start counts.
TEST(ProbeSelection, ArmingAfterDormantSolvesCountsLikeALoneArmedSolve) {
  if (!telemetry::compiled_in()) GTEST_SKIP() << "telemetry compiled out";
  const int saved = num_threads();
  set_num_threads(1);
  for (const auto* name : {"road", "kron"}) {
    const Graph g = make_suite_graph(name, 11);
    telemetry::Counters traced, lone;
    telemetry::set_enabled(false);
    afforest_cc(g);
    afforest_cc(g);
    {
      const telemetry::ScopedEnable armed;
      afforest_cc(g);
      traced = telemetry::snapshot();
    }
    {
      const telemetry::ScopedEnable armed;
      afforest_cc(g);
      lone = telemetry::snapshot();
    }
    EXPECT_GT(traced.link_calls, 0u) << name;
    EXPECT_EQ(rows(traced), rows(lone)) << name;
  }
  set_num_threads(saved);
}

// Each entry point reports through ArmedTelemetryProbe when armed at entry
// and reports nothing when dormant.
TEST(ProbeSelection, EveryEntryPointCountsOnlyWhenArmed) {
  const Graph g = make_suite_graph("kron", 10);
  const std::int64_t n = g.num_nodes();
  std::uint64_t lower_edges = 0;  // rem_cc_parallel unites u < v only
  for (std::int64_t u = 0; u < n; ++u)
    for (NodeID v : g.out_neigh(static_cast<NodeID>(u)))
      if (static_cast<NodeID>(u) < v) ++lower_edges;
  EdgeList<NodeID> batch;
  for (NodeID v = 1; v < 64; ++v)
    batch.push_back({static_cast<NodeID>(v - 1), v});
  // partitioned_cc links each internal edge and each quotient pair.
  PartitionedCCStats stats;
  partitioned_cc(g, 4, &stats);
  const auto partitioned_links =
      static_cast<std::uint64_t>(stats.internal_edges + stats.quotient_edges);

  struct Case {
    const char* name;
    std::function<void()> run;
    std::uint64_t link_calls;
    std::uint64_t compress_calls;
  };
  const auto nodes = static_cast<std::uint64_t>(n);
  const std::vector<Case> cases = {
      {"compress_all",
       [&] {
         auto comp = identity_labels<NodeID>(n);
         compress_all(comp);
       },
       0, nodes},
      {"rem_cc_parallel", [&] { rem_cc_parallel(g); }, lower_edges, nodes},
      {"afforest_no_interleave", [&] { afforest_no_interleave(g); },
       static_cast<std::uint64_t>(g.num_stored_edges()), nodes},
      {"apply_batch",
       [&] {
         serve::QueryEngine<NodeID> engine(64);
         engine.apply_batch(batch);
       },
       batch.size(), 0},
      {"partitioned_cc", [&] { partitioned_cc(g, 4); }, partitioned_links,
       2 * nodes},
  };
  for (const Case& c : cases) {
    telemetry::set_enabled(false);
    telemetry::reset();
    c.run();
    const telemetry::Counters dormant = telemetry::snapshot();
    EXPECT_EQ(dormant.link_calls, 0u) << c.name;
    EXPECT_EQ(dormant.compress_calls, 0u) << c.name;
    if (!telemetry::compiled_in()) continue;

    const telemetry::ScopedEnable armed;
    c.run();
    const telemetry::Counters counted = telemetry::snapshot();
    EXPECT_EQ(counted.link_calls, c.link_calls) << c.name;
    EXPECT_EQ(counted.compress_calls, c.compress_calls) << c.name;
  }
  telemetry::set_enabled(false);
}

}  // namespace
}  // namespace afforest
