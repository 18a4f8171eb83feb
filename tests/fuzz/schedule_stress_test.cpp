// Schedule stress: shakes ordering and interleaving assumptions out of the
// lock-free kernels.
//
// Three axes (tentpole item 2):
//   - OpenMP thread counts (chunk sizes of afforest_cc's Chunked schedule
//     are swept by driver_matrix_test.cpp);
//   - deliberate edge-order shuffles: the CSR is rebuilt UNSORTED from a
//     permuted edge list, so Afforest's neighbor-round sampling sees a
//     different edge subset every time — the partition must not care;
//   - std::thread phase drivers: unlike libgomp (which GCC does not
//     TSan-instrument), std::thread is fully intercepted, so these tests
//     are the ones that let the TSan preset actually observe the
//     concurrent link/link, compress/compress, and Rem-splice histories,
//     including phase 3's skip check racing splices.
//     They are the regression tests for the data races fixed in this PR
//     (plain reads/writes in compress() and the SV hook, see afforest.hpp
//     and shiloach_vishkin.hpp).
//
// OpenMP sweeps are skipped under TSan: gcc's libgomp has no TSan
// annotations, so multi-threaded OpenMP regions produce false positives
// (documented in docs/TESTING.md; the TSan preset pins OMP_NUM_THREADS=1).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "cc/afforest.hpp"
#include "cc/multistep.hpp"
#include "cc/registry.hpp"
#include "cc/rem.hpp"
#include "cc/shiloach_vishkin.hpp"
#include "cc/union_find.hpp"
#include "cc/verifier.hpp"
#include "fuzz/fuzz_common.hpp"
#include "graph/builder.hpp"
#include "util/platform.hpp"
#include "util/rng.hpp"

namespace afforest {
namespace {

using fuzz::NodeID;

#if defined(__SANITIZE_THREAD__)
constexpr bool kUnderTSan = true;
#else
constexpr bool kUnderTSan = false;
#endif

/// Seeded Fisher–Yates over an edge list.
EdgeList<NodeID> shuffled(const EdgeList<NodeID>& edges, std::uint64_t seed) {
  EdgeList<NodeID> out = edges.clone();
  Xoshiro256 rng(seed);
  for (std::size_t i = out.size(); i > 1; --i)
    std::swap(out[i - 1], out[rng.next_bounded(i)]);
  return out;
}

/// Runs fn(begin, end) on `nthreads` std::threads over a static partition
/// of [0, n) — an OpenMP-free "parallel for" whose synchronization TSan
/// fully understands.
template <typename Fn>
void run_on_threads(int nthreads, std::int64_t n, Fn fn) {
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nthreads));
  const std::int64_t per = (n + nthreads - 1) / nthreads;
  for (int t = 0; t < nthreads; ++t) {
    const std::int64_t begin = t * per;
    const std::int64_t end = std::min(n, begin + per);
    threads.emplace_back([=] {
      if (begin < end) fn(begin, end);
    });
  }
  for (auto& t : threads) t.join();
}

// ---------------------------------------------------------------------------
// OpenMP schedule sweeps (skipped under TSan, see header comment).
// ---------------------------------------------------------------------------

class ThreadSweep : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    if (kUnderTSan && GetParam() > 1)
      GTEST_SKIP() << "libgomp is not TSan-instrumented";
    original_threads_ = num_threads();
    set_num_threads(GetParam());
  }
  void TearDown() override {
    if (original_threads_ > 0) set_num_threads(original_threads_);
  }
  int original_threads_ = 0;
};

TEST_P(ThreadSweep, EveryAlgorithmMatchesOracle) {
  const auto in = fuzz::make_fuzz_input("kron", 11, 7);
  const Graph g = build_undirected(in.edges, in.num_nodes);
  const auto truth = union_find_cc(g);
  for (const auto& algo : cc_algorithms())
    EXPECT_TRUE(labels_equivalent(algo.run(g), truth))
        << algo.name << " at " << GetParam() << " threads";
}

TEST_P(ThreadSweep, AfforestLabelsBitwiseStable) {
  // Min-id labeling makes the output independent of the schedule, not just
  // the partition — assert the stronger property across thread counts.
  const auto in = fuzz::make_fuzz_input("web", 10, 11);
  const Graph g = build_undirected(in.edges, in.num_nodes);
  const auto labels = afforest_cc(g);
  const auto oracle = union_find_cc(g);
  for (std::size_t v = 0; v < labels.size(); ++v)
    ASSERT_EQ(labels[v], oracle[v]) << "v=" << v;
}

TEST_P(ThreadSweep, MultistepMatchesOracle) {
  // Regression: multistep's step-2 read of comp[u] now uses atomic_load —
  // it races with concurrent atomic_fetch_min hooks otherwise.
  const auto in = fuzz::make_fuzz_input("component-mix", 11, 3);
  const Graph g = build_undirected(in.edges, in.num_nodes);
  EXPECT_TRUE(labels_equivalent(multistep_cc(g), union_find_cc(g)));
}

INSTANTIATE_TEST_SUITE_P(Threads, ThreadSweep,
                         ::testing::Values(1, 2, 3, 4, 7, 8),
                         [](const auto& info) {
                           const std::string team = std::to_string(info.param);
                           return "t" + team;
                         });

// ---------------------------------------------------------------------------
// Edge-order shuffles: the CSR is rebuilt UNSORTED from permuted edges, so
// neighbor order (and hence the sampled subgraph) changes per shuffle.
// ---------------------------------------------------------------------------

TEST(EdgeOrderShuffle, PartitionIndependentOfEdgeOrder) {
  const auto base = fuzz::make_fuzz_input("urand", 11, 21);
  const auto truth = union_find_cc(base.edges, base.num_nodes);
  BuilderOptions opts;
  opts.sort_neighbors = false;  // preserve the shuffled order in the CSR
  opts.remove_duplicates = false;
  const int shuffles = std::max(2, 6 * fuzz::fuzz_budget() / 100);
  for (int s = 0; s < shuffles; ++s) {
    const auto edges = shuffled(base.edges, 0xDEAD + s);
    const Graph g = Builder<NodeID>(opts).build(edges, base.num_nodes);
    for (std::int32_t rounds : {0, 1, 2, 5}) {
      AfforestOptions aopts;
      aopts.sampling = NeighborRounds{rounds};
      EXPECT_TRUE(labels_equivalent(afforest_cc(g, aopts), truth))
          << "shuffle=" << s << " rounds=" << rounds;
    }
    EXPECT_TRUE(labels_equivalent(rem_cc_parallel(g), truth)) << s;
    EXPECT_TRUE(labels_equivalent(shiloach_vishkin(g), truth)) << s;
  }
}

TEST(EdgeOrderShuffle, AdversarialOrdersStayCorrect) {
  // §V-A worst-case orders, plus their reversals and shuffles.
  for (const char* family : {"star-reversed", "path-reversed"}) {
    const auto base = fuzz::make_fuzz_input(family, 11, 0);
    const auto truth = union_find_cc(base.edges, base.num_nodes);
    BuilderOptions opts;
    opts.sort_neighbors = false;
    opts.remove_duplicates = false;
    for (std::uint64_t s : {1u, 2u, 3u}) {
      const Graph g =
          Builder<NodeID>(opts).build(shuffled(base.edges, s), base.num_nodes);
      EXPECT_TRUE(labels_equivalent(afforest_cc(g), truth))
          << family << " shuffle " << s;
      EXPECT_TRUE(labels_equivalent(shiloach_vishkin_original(g), truth))
          << family << " shuffle " << s;
    }
  }
}

// ---------------------------------------------------------------------------
// std::thread phase drivers — the TSan-visible stress tests.
// ---------------------------------------------------------------------------

TEST(StdThreadStress, LinkThenCompressAnyShardingConvergesToOracle) {
  // Regression for the compress() data race: concurrent compress used plain
  // reads/writes of comp[] while sibling threads wrote the same entries.
  const std::int64_t n = 1 << 12;
  const int rounds = std::max(2, 6 * fuzz::fuzz_budget() / 100);
  for (int round = 0; round < rounds; ++round) {
    const auto edges =
        shuffled(generate_uniform_edges<NodeID>(n, 4 * n, 77 + round),
                 991 * round + 5);
    const auto truth = union_find_cc(edges, n);
    auto comp = identity_labels<NodeID>(n);
    const auto m = static_cast<std::int64_t>(edges.size());
    // Interleave link and compress phases (joins are the only barriers —
    // exactly the phase discipline afforest_cc uses).
    const std::int64_t stride = m / 3 + 1;
    for (std::int64_t start = 0; start < m; start += stride) {
      const std::int64_t end = std::min(m, start + stride);
      run_on_threads(4, end - start, [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = start + lo; i < start + hi; ++i)
          link(edges[i].u, edges[i].v, comp);
      });
      run_on_threads(4, n, [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t v = lo; v < hi; ++v)
          compress(static_cast<NodeID>(v), comp);
      });
    }
    run_on_threads(2, n, [&](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t v = lo; v < hi; ++v)
        compress(static_cast<NodeID>(v), comp);
    });
    EXPECT_TRUE(labels_equivalent(comp, truth)) << "round " << round;
  }
}

TEST(StdThreadStress, InterleavedShardsOnAdversarialStar) {
  // Maximal contention: every edge fights over the hub's root.
  const auto in = fuzz::make_fuzz_input("star-reversed", 13, 0);
  const auto truth = union_find_cc(in.edges, in.num_nodes);
  auto comp = identity_labels<NodeID>(in.num_nodes);
  const auto m = static_cast<std::int64_t>(in.edges.size());
  run_on_threads(8, m, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i)
      link(in.edges[i].u, in.edges[i].v, comp);
  });
  run_on_threads(8, in.num_nodes, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t v = lo; v < hi; ++v)
      compress(static_cast<NodeID>(v), comp);
  });
  EXPECT_TRUE(labels_equivalent(comp, truth));
}

TEST(StdThreadStress, SvHookRoundsConvergeToOracle) {
  // Regression for the SV data races: the hook read comp[u]/comp[v] with
  // plain loads (racing the atomic_store hooks) and flagged `change` with a
  // plain shared write.  sv_hook_edge is the shared fixed primitive.
  const std::int64_t n = 1 << 12;
  const auto edges =
      shuffled(generate_uniform_edges<NodeID>(n, 4 * n, 123), 55);
  const auto truth = union_find_cc(edges, n);
  auto comp = identity_labels<NodeID>(n);
  const auto m = static_cast<std::int64_t>(edges.size());
  bool change = true;
  while (change) {
    std::atomic<bool> any{false};
    run_on_threads(4, m, [&](std::int64_t lo, std::int64_t hi) {
      bool local = false;
      for (std::int64_t i = lo; i < hi; ++i)
        if (sv_hook_edge(edges[i].u, edges[i].v, comp)) local = true;
      if (local) any.store(true, std::memory_order_relaxed);
    });
    run_on_threads(4, n, [&](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t v = lo; v < hi; ++v)
        compress(static_cast<NodeID>(v), comp);
    });
    change = any.load();
  }
  EXPECT_TRUE(labels_equivalent(comp, truth));
}

TEST(StdThreadStress, RemSpliceConvergesToOracle) {
  const std::int64_t n = 1 << 12;
  const auto edges =
      shuffled(generate_uniform_edges<NodeID>(n, 4 * n, 321), 99);
  const auto truth = union_find_cc(edges, n);
  auto parent = identity_labels<NodeID>(n);
  const auto m = static_cast<std::int64_t>(edges.size());
  run_on_threads(4, m, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i)
      rem_splice(edges[i].u, edges[i].v, parent);
  });
  run_on_threads(4, n, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t v = lo; v < hi; ++v)
      compress(static_cast<NodeID>(v), parent);
  });
  EXPECT_TRUE(labels_equivalent(parent, truth));
}

TEST(StdThreadStress, SpliceFinalPhaseSkipIsSound) {
  // afforest_cc's phases with the splice link, on std::threads: two
  // sampling rounds, compress, the giant label c, then phase 3 with the
  // skip check racing splices.  A vertex spliced under c before its old
  // root is hooked is skipped; Theorem 3 must still hold, so the labels
  // equal union-find's.
  for (const char* family : {"urand", "kron", "star-reversed"}) {
    const auto in = fuzz::make_fuzz_input(family, 12, 3);
    const Graph g = build_undirected(in.edges, in.num_nodes);
    const std::int64_t n = g.num_nodes();
    const auto truth = union_find_cc(g);
    const auto compress_on_threads = [&](pvector<NodeID>& comp) {
      run_on_threads(4, n, [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t v = lo; v < hi; ++v)
          compress(static_cast<NodeID>(v), comp);
      });
    };
    const int rounds = std::max(2, 6 * fuzz::fuzz_budget() / 100);
    for (int round = 0; round < rounds; ++round) {
      auto comp = identity_labels<NodeID>(n);
      constexpr std::int32_t kRounds = 2;
      for (std::int32_t r = 0; r < kRounds; ++r) {
        run_on_threads(4, n, [&](std::int64_t lo, std::int64_t hi) {
          for (std::int64_t v = lo; v < hi; ++v)
            if (r < g.out_degree(static_cast<NodeID>(v)))
              rem_splice(static_cast<NodeID>(v),
                         g.neighbor(static_cast<NodeID>(v), r), comp);
        });
        compress_on_threads(comp);
      }
      AfforestOptions opts;
      const NodeID c = sample_frequent_element(comp, opts.sample_count,
                                               opts.sample_seed + round);
      // Interleaved ownership: thread t takes every 4th vertex starting
      // at t, so skipped and linking vertices sit side by side.
      std::vector<std::thread> threads;
      for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&, t] {
          for (std::int64_t v = t; v < n; v += 4) {
            const auto x = static_cast<NodeID>(v);
            if (should_skip(x, comp, opts, c)) continue;
            for (std::int64_t k = kRounds; k < g.out_degree(x); ++k)
              rem_splice(x, g.neighbor(x, k), comp);
          }
        });
      }
      for (auto& t : threads) t.join();
      compress_on_threads(comp);
      for (std::int64_t v = 0; v < n; ++v)
        ASSERT_EQ(comp[v], truth[v])
            << family << " round " << round << " v=" << v;
    }
  }
}

TEST(StdThreadStress, SpliceFusedSamplingSkipIsSound) {
  // afforest_cc's RemSplice order on std::threads: one splice pass over
  // every vertex's first k neighbors with no compress between them, one
  // compress, the giant label c, then phase 3 with the skip check racing
  // splices.  The pass climbs trees that no per-round compress flattened;
  // the labels must still equal union-find's.
  for (const char* family : {"urand", "kron", "star-reversed"}) {
    const auto in = fuzz::make_fuzz_input(family, 12, 3);
    const Graph g = build_undirected(in.edges, in.num_nodes);
    const std::int64_t n = g.num_nodes();
    const auto truth = union_find_cc(g);
    const auto compress_on_threads = [&](pvector<NodeID>& comp) {
      run_on_threads(4, n, [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t v = lo; v < hi; ++v)
          compress(static_cast<NodeID>(v), comp);
      });
    };
    const int rounds = std::max(2, 6 * fuzz::fuzz_budget() / 100);
    for (int round = 0; round < rounds; ++round) {
      const std::int32_t k = 1 + round % 3;
      auto comp = identity_labels<NodeID>(n);
      run_on_threads(4, n, [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t v = lo; v < hi; ++v) {
          const auto x = static_cast<NodeID>(v);
          const std::int64_t end = std::min<std::int64_t>(k, g.out_degree(x));
          for (std::int64_t i = 0; i < end; ++i)
            rem_splice(x, g.neighbor(x, i), comp);
        }
      });
      compress_on_threads(comp);
      AfforestOptions opts;
      const NodeID c = sample_frequent_element(comp, opts.sample_count,
                                               opts.sample_seed + round);
      // Interleaved ownership, as in SpliceFinalPhaseSkipIsSound.
      std::vector<std::thread> threads;
      for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&, t] {
          for (std::int64_t v = t; v < n; v += 4) {
            const auto x = static_cast<NodeID>(v);
            if (should_skip(x, comp, opts, c)) continue;
            for (std::int64_t i = k; i < g.out_degree(x); ++i)
              rem_splice(x, g.neighbor(x, i), comp);
          }
        });
      }
      for (auto& t : threads) t.join();
      compress_on_threads(comp);
      for (std::int64_t v = 0; v < n; ++v)
        ASSERT_EQ(comp[v], truth[v])
            << family << " k=" << k << " round " << round << " v=" << v;
    }
  }
}

TEST(StdThreadStress, OwnerSamplingMatchesCasPass) {
  // afforest_cc's owner pass on std::threads: threads claim blocks of ids
  // from an atomic counter and unite each vertex's first k neighbors by
  // rem_splice in the block's write mode, storing plainly inside the block
  // while the other owners read it.  After the join, each thread's kept
  // climb pairs are finished by the CAS rem_splice, again on std::threads.
  // π after compress must equal a serial splice pass's.
  constexpr int kThreads = 4;
  for (const char* family : {"road", "urand", "kron", "star-reversed"}) {
    const auto in = fuzz::make_fuzz_input(family, 12, 3);
    const Graph g = build_undirected(in.edges, in.num_nodes);
    const std::int64_t n = g.num_nodes();
    for (const std::int32_t k : {1, 2, 3}) {
      auto want = identity_labels<NodeID>(n);
      for (NodeID v = 0; v < n; ++v)
        for (std::int64_t i = 0;
             i < std::min<std::int64_t>(k, g.out_degree(v)); ++i)
          rem_splice(v, g.neighbor(v, i), want);
      compress_all(want);
      for (const std::int64_t block : {64, 512}) {
        auto comp = identity_labels<NodeID>(n);
        std::atomic<std::int64_t> next{0};
        std::vector<std::vector<std::pair<NodeID, NodeID>>> kept(kThreads);
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; ++t) {
          threads.emplace_back([&, t] {
            for (std::int64_t lo; (lo = block * next.fetch_add(1)) < n;) {
              const OwnedBlock owned{lo, std::min(n, lo + block)};
              for (auto v = static_cast<NodeID>(owned.lo); v < owned.hi; ++v)
                for (std::int64_t i = 0;
                     i < std::min<std::int64_t>(k, g.out_degree(v)); ++i)
                  if (const auto pair = rem_splice(v, g.neighbor(v, i), comp,
                                                   TelemetryProbe{}, owned))
                    kept[t].push_back(*pair);
            }
          });
        }
        for (auto& t : threads) t.join();
        threads.clear();
        for (int t = 0; t < kThreads; ++t)
          threads.emplace_back([&, t] {
            for (const auto& [u, w] : kept[t]) rem_splice(u, w, comp);
          });
        for (auto& t : threads) t.join();
        run_on_threads(kThreads, n, [&](std::int64_t lo, std::int64_t hi) {
          for (std::int64_t v = lo; v < hi; ++v)
            compress(static_cast<NodeID>(v), comp);
        });
        for (std::int64_t v = 0; v < n; ++v)
          ASSERT_EQ(comp[v], want[v]) << family << " k=" << k
                                      << " block=" << block << " v=" << v;
      }
    }
  }
}

}  // namespace
}  // namespace afforest
