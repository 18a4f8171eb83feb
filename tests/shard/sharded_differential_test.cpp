// Differential suite for the sharded tier: after EVERY published batch,
// a ShardedEngine must answer EXACTLY like a single-shard QueryEngine
// oracle fed the same edge stream — identical labels (both sides use the
// min-vertex-id convention), identical component counts/sizes, identical
// batch answers, identical pinned-view answers (also from views pinned
// before the publish) — across the fuzz generator families, multiple
// seeds, and shard counts {1, 2, 4, 7}.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/fuzz_common.hpp"
#include "serve/query_batch.hpp"
#include "serve/query_engine.hpp"
#include "shard/sharded_engine.hpp"
#include "util/rng.hpp"

namespace afforest {
namespace {

using NodeID = std::int32_t;

constexpr int kShardCounts[] = {1, 2, 4, 7};
constexpr std::uint64_t kSeeds[] = {1, 2, 3};

/// Asserts that two pinned views answer alike: same epoch, same component
/// count, and the same connected / component_of / component_size on every
/// query pair in `pairs`.
void expect_views_agree(const shard::ShardedEngine<NodeID>::View& got,
                        const serve::QueryEngine<NodeID>::View& want,
                        const serve::QueryBatch<NodeID>& pairs) {
  ASSERT_EQ(got.epoch(), want.epoch());
  ASSERT_EQ(got.component_count(), want.component_count());
  for (std::size_t q = 0; q < pairs.count(); ++q) {
    const NodeID u = pairs.u[q];
    const NodeID v = pairs.v[q];
    ASSERT_EQ(got.connected(u, v), want.connected(u, v)) << "query " << q;
    ASSERT_EQ(got.component_of(u), want.component_of(u)) << "query " << q;
    ASSERT_EQ(got.component_size(u), want.component_size(u))
        << "query " << q;
  }
}

/// Streams `in`'s edges through both engines in `batches` slices,
/// publishing and cross-checking after every slice.
void run_differential(const fuzz::FuzzInput& in, int num_shards,
                      int batches) {
  SCOPED_TRACE("family=" + in.family + " seed=" + std::to_string(in.seed) +
               " shards=" + std::to_string(num_shards));
  shard::ShardedEngine<NodeID> sharded(in.num_nodes, num_shards);
  serve::QueryEngine<NodeID> oracle(in.num_nodes);
  Xoshiro256 rng(in.seed ^ 0xD1FFE6E471A1ULL);

  const std::size_t total = in.edges.size();
  const std::size_t chunk = total / static_cast<std::size_t>(batches) + 1;
  for (std::size_t start = 0; start < total || start == 0; start += chunk) {
    const std::size_t count = std::min(chunk, total - start);
    sharded.apply_batch(in.edges.data() + start, count);
    oracle.apply_batch(in.edges.data() + start, count);
    // Pinned before the publish: these must keep answering their own epoch.
    const auto sharded_before = sharded.acquire();
    const auto oracle_before = oracle.acquire();
    sharded.publish();
    oracle.publish();

    // Exact global labels, not just partition equivalence.
    const auto got = sharded.labels();
    const auto want = oracle.labels();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t v = 0; v < got.size(); ++v)
      ASSERT_EQ(got[v], want[v]) << "vertex " << v;

    ASSERT_EQ(sharded.component_count(), oracle.component_count());

    // A random query batch answered by both engines.
    if (in.num_nodes > 0) {
      serve::QueryBatch<NodeID> qs, qo;
      const auto nn = static_cast<std::uint64_t>(in.num_nodes);
      for (int q = 0; q < 64; ++q) {
        const auto u = static_cast<NodeID>(rng.next_bounded(nn));
        const auto v = static_cast<NodeID>(rng.next_bounded(nn));
        qs.add(u, v);
        qo.add(u, v);
      }
      sharded.answer(qs);
      oracle.answer(qo);
      for (std::size_t q = 0; q < qs.count(); ++q) {
        ASSERT_EQ(qs.connected[q], qo.connected[q]) << "query " << q;
        ASSERT_EQ(qs.component[q], qo.component[q]) << "query " << q;
        ASSERT_EQ(qs.component_size[q], qo.component_size[q])
            << "query " << q;
      }

      // The same pairs through views pinned after the publish, and through
      // the views pinned before it.
      const auto sharded_after = sharded.acquire();
      ASSERT_EQ(sharded_after.epoch(), sharded_before.epoch() + 1);
      ASSERT_NO_FATAL_FAILURE(
          expect_views_agree(sharded_after, oracle.acquire(), qs));
      ASSERT_NO_FATAL_FAILURE(
          expect_views_agree(sharded_before, oracle_before, qs));
    }
    if (total == 0) break;
  }
}

class ShardDifferential : public ::testing::TestWithParam<int> {};

TEST_P(ShardDifferential, MatchesSingleShardOracleOnFuzzCorpus) {
  const int num_shards = GetParam();
  const int scale = 7;
  for (const std::string& family : fuzz::fuzz_families())
    for (const std::uint64_t seed : kSeeds)
      run_differential(fuzz::make_fuzz_input(family, scale, seed),
                       num_shards, /*batches=*/4);
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, ShardDifferential,
                         ::testing::ValuesIn(kShardCounts));

TEST(ShardDifferential, DeeperSingleFamilySmoke) {
  // One larger input per shard count so block boundaries land mid-component.
  for (const int num_shards : kShardCounts)
    run_differential(fuzz::make_fuzz_input("urand", 10, 42), num_shards,
                     /*batches=*/6);
}

TEST(ShardDifferential, Int64InstantiationMatchesOracle) {
  // The label-width fix's payoff: the same differential harness through
  // 64-bit labels.
  const auto in = fuzz::make_fuzz_input("kron", 8, 7);
  shard::ShardedEngine<std::int64_t> sharded(in.num_nodes, 4);
  serve::QueryEngine<std::int64_t> oracle(in.num_nodes);
  EdgeList<std::int64_t> wide;
  wide.reserve(in.edges.size());
  for (const auto& [u, v] : in.edges) wide.push_back({u, v});
  sharded.apply_and_publish(wide);
  oracle.apply_and_publish(wide);
  const auto got = sharded.labels();
  const auto want = oracle.labels();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t v = 0; v < got.size(); ++v)
    ASSERT_EQ(got[v], want[v]) << "vertex " << v;
  EXPECT_EQ(sharded.component_count(), oracle.component_count());
}

}  // namespace
}  // namespace afforest
