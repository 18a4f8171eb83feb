// Ingestion-path differential oracle: for every fuzz family x seed, feeding
// a corpus through the IngestPipeline with FULL compaction enabled
// (coalescing + no-op filtering) must leave the engine with labels
// bit-identical to direct apply of the same batches — on all four serving
// engines (QueryEngine, DynamicCC, DurableEngine, ShardedEngine).  Both
// sides publish min-vertex-id labels deterministically, so the comparison
// is exact equality, not partition equivalence: any edge the compactor
// wrongly drops (or invents) flips at least one label.
//
// Teeth: the final tests flip the pipeline's deliberately-broken-coalescer
// knob (drops one NON-no-op survivor per pump) on a path input where every
// edge is load-bearing, and assert the oracle CATCHES the divergence — the
// suite fails when compaction is broken, not just passing by vacuity.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>

#include <unistd.h>

#include "cc/common.hpp"
#include "graph/edge_list.hpp"
#include "serve/durable_engine.hpp"
#include "serve/dynamic_cc.hpp"
#include "serve/ingest.hpp"
#include "serve/query_engine.hpp"
#include "shard/sharded_engine.hpp"

#include "fuzz/fuzz_common.hpp"

namespace afforest {
namespace {

using NodeID = std::int32_t;
using serve::IngestOptions;
using serve::IngestPipeline;

constexpr int kScale = 7;
constexpr std::size_t kBatch = 64;

/// Direct-apply reference path: the same seam the pipeline composes over,
/// invoked without any compaction in between.
template <typename Engine>
void direct_apply(Engine& engine, const EdgeList<NodeID>& batch) {
  if constexpr (requires { engine.apply_batch(batch); }) {
    engine.apply_batch(batch);
    engine.publish();
  } else if constexpr (requires { engine.apply_inserts(batch); }) {
    engine.apply_inserts(batch);
    engine.publish();
  } else {
    engine.insert(batch);
  }
}

/// Replays `in.edges` in kBatch-sized slices: reference engine by direct
/// apply, subject engine through the fully-compacted pipeline (round-robin
/// across queues, one pump per slice).  Returns true iff final labels are
/// bit-identical.
template <typename Engine>
bool labels_match(Engine& ref, Engine& subject, const fuzz::FuzzInput& in,
                  bool break_coalescer) {
  IngestPipeline<Engine, NodeID> pipe(
      subject, IngestOptions{.queues = 3, .queue_capacity = kBatch});
  if (break_coalescer) pipe.testing_drop_one_survivor_per_pump(true);

  std::size_t rr = 0;
  EdgeList<NodeID> slice;
  const auto flush = [&] {
    if (slice.empty()) return;
    direct_apply(ref, slice);
    for (const auto& e : slice) pipe.enqueue_to(rr++ % 3, e);
    pipe.pump();
    slice.clear();
  };
  for (const auto& e : in.edges) {
    slice.push_back(e);
    if (slice.size() == kBatch) flush();
  }
  flush();

  const ComponentLabels<NodeID> want = ref.labels();
  const ComponentLabels<NodeID> got = subject.labels();
  if (want.size() != got.size()) return false;
  for (std::size_t i = 0; i < want.size(); ++i)
    if (want[i] != got[i]) return false;
  return true;
}

/// The full corpus sweep for one engine maker (a callable invoking `body`
/// with two freshly constructed engines per cell).
template <typename WithEngines>
void sweep(WithEngines with_engines) {
  for (const std::string& family : fuzz::fuzz_families()) {
    for (int seed = 0; seed < fuzz::seeds_per_cell(); ++seed) {
      const fuzz::FuzzInput in = fuzz::make_fuzz_input(
          family, kScale, static_cast<std::uint64_t>(seed));
      with_engines(in, [&](auto& ref, auto& subject) {
        EXPECT_TRUE(labels_match(ref, subject, in, false))
            << family << " seed " << seed;
      });
    }
  }
}

TEST(IngestDifferentialTest, QueryEngineMatchesDirectApply) {
  sweep([](const fuzz::FuzzInput& in, auto body) {
    serve::QueryEngine<NodeID> ref(in.num_nodes);
    serve::QueryEngine<NodeID> subject(in.num_nodes);
    body(ref, subject);
  });
}

TEST(IngestDifferentialTest, DynamicCCMatchesDirectApply) {
  sweep([](const fuzz::FuzzInput& in, auto body) {
    serve::DynamicCC<NodeID> ref(in.num_nodes);
    serve::DynamicCC<NodeID> subject(in.num_nodes);
    body(ref, subject);
  });
}

TEST(IngestDifferentialTest, DurableEngineMatchesDirectApply) {
  const auto base = std::filesystem::temp_directory_path() /
                    ("afforest_ingest_diff_" + std::to_string(::getpid()));
  std::filesystem::create_directories(base);
  sweep([&](const fuzz::FuzzInput& in, auto body) {
    // Fresh directories per cell; kNone sync keeps the sweep I/O-light
    // (durability of the files is not what this oracle checks).
    std::filesystem::remove_all(base / "ref");
    std::filesystem::remove_all(base / "subject");
    serve::DurableOptions opts;
    opts.sync = serve::WalSync::kNone;
    opts.dir = (base / "ref").string();
    serve::DurableEngine<NodeID> ref(in.num_nodes, opts);
    opts.dir = (base / "subject").string();
    serve::DurableEngine<NodeID> subject(in.num_nodes, opts);
    body(ref, subject);
  });
  std::filesystem::remove_all(base);
}

TEST(IngestDifferentialTest, ShardedEngineMatchesDirectApply) {
  sweep([](const fuzz::FuzzInput& in, auto body) {
    shard::ShardedEngine<NodeID> ref(in.num_nodes, 3);
    shard::ShardedEngine<NodeID> subject(in.num_nodes, 3);
    body(ref, subject);
  });
}

/// A path graph: every edge is a bridge, so a coalescer that drops ANY
/// non-no-op edge must diverge from the reference.
fuzz::FuzzInput path_input(std::int64_t n) {
  fuzz::FuzzInput in;
  in.family = "teeth-path";
  in.num_nodes = n;
  for (NodeID u = 0; u + 1 < n; ++u)
    in.edges.push_back({u, static_cast<NodeID>(u + 1)});
  return in;
}

TEST(IngestDifferentialTeethTest, BrokenCoalescerIsCaught) {
  const fuzz::FuzzInput in = path_input(256);
  serve::QueryEngine<NodeID> ref(in.num_nodes);
  serve::QueryEngine<NodeID> subject(in.num_nodes);
  EXPECT_FALSE(labels_match(ref, subject, in, /*break_coalescer=*/true))
      << "oracle failed to catch a coalescer that drops a live edge";
}

TEST(IngestDifferentialTeethTest, IntactCoalescerPassesTheSameInput) {
  const fuzz::FuzzInput in = path_input(256);
  serve::QueryEngine<NodeID> ref(in.num_nodes);
  serve::QueryEngine<NodeID> subject(in.num_nodes);
  EXPECT_TRUE(labels_match(ref, subject, in, /*break_coalescer=*/false));
}

}  // namespace
}  // namespace afforest
