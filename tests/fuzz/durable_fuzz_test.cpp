// Durability byte-corruption fuzzer: builds a pristine durable directory
// (checkpoint + WAL suffix + manifest), then per round corrupts ONE file —
// bit flips, byte overwrites, truncation, appended junk, zeroed ranges,
// and (WAL-specific) a duplicated tail — and attempts recovery.  The
// contract under test is "typed error or a correct prefix, never a silent
// wrong answer": recovery must either throw IoError or come up on some
// prefix of the journaled ops whose labels exactly match the from-scratch
// union-find oracle at the recovered seq.
//
// Deterministic (seeded Xoshiro256).  AFFOREST_FUZZ_BUDGET scales rounds;
// failing rounds dump the corrupted directory under AFFOREST_FUZZ_DUMP_DIR
// (default ".") for offline inspection with apps/durable --recover-only.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "fuzz/fuzz_common.hpp"
#include "serve/durable_engine.hpp"
#include "serve/durable_test_util.hpp"
#include "util/rng.hpp"

namespace afforest::serve {
namespace {

using ::afforest::serve::testing::DurableOp;
using ::afforest::serve::testing::make_workload;
using ::afforest::serve::testing::oracle_labels;
using ::afforest::serve::testing::to_edge_list;
using NodeID = std::int32_t;

constexpr std::int64_t kNodes = 40;
constexpr std::size_t kOps = 14;

std::vector<unsigned char> slurp(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<unsigned char>(std::istreambuf_iterator<char>(in),
                                    std::istreambuf_iterator<char>());
}

void spit(const std::filesystem::path& path,
          const std::vector<unsigned char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// One seeded corruption.  Ops 0-4 mirror the io_fuzz mutator; op 5 is the
/// WAL-shaped attack the seq chain exists for — duplicating a tail slice
/// so CRC-valid records repeat.
void corrupt(std::vector<unsigned char>& bytes, Xoshiro256& rng) {
  const auto op = rng.next() % 6;
  switch (op) {
    case 0:  // flip one bit
      if (!bytes.empty()) {
        const auto i = rng.next() % bytes.size();
        bytes[i] ^= static_cast<unsigned char>(1u << (rng.next() % 8));
      }
      break;
    case 1:  // overwrite one byte
      if (!bytes.empty())
        bytes[rng.next() % bytes.size()] =
            static_cast<unsigned char>(rng.next() & 0xFF);
      break;
    case 2:  // truncate
      if (!bytes.empty()) bytes.resize(rng.next() % bytes.size());
      break;
    case 3: {  // append junk
      const auto extra = 1 + rng.next() % 24;
      for (std::uint64_t i = 0; i < extra; ++i)
        bytes.push_back(static_cast<unsigned char>(rng.next() & 0xFF));
      break;
    }
    case 4:  // zero a short range
      if (!bytes.empty()) {
        const auto start = rng.next() % bytes.size();
        const auto len = std::min<std::size_t>(bytes.size() - start,
                                               1 + rng.next() % 8);
        std::fill(bytes.begin() + static_cast<std::ptrdiff_t>(start),
                  bytes.begin() + static_cast<std::ptrdiff_t>(start + len),
                  0);
      }
      break;
    default:  // duplicate a tail slice
      if (bytes.size() > 1) {
        const auto from = rng.next() % bytes.size();
        bytes.insert(bytes.end(),
                     bytes.begin() + static_cast<std::ptrdiff_t>(from),
                     bytes.end());
      }
      break;
  }
}

class DurableFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = std::filesystem::temp_directory_path() /
            ("afforest_durable_fuzz_" + std::to_string(::getpid()));
    std::filesystem::remove_all(root_);
    pristine_ = root_ / "pristine";
    victim_ = root_ / "victim";
    std::filesystem::create_directories(root_);
  }
  void TearDown() override { std::filesystem::remove_all(root_); }

  static int rounds() { return std::max(30, 300 * fuzz::fuzz_budget() / 100); }

  DurableOptions victim_opts(std::uint64_t window) const {
    DurableOptions o;
    o.dir = victim_.string();
    o.window = window;
    o.sync = WalSync::kNone;
    return o;
  }

  /// Builds the pristine directory: the seeded workload with a mid-run
  /// checkpoint, so the manifest names a real checkpoint AND a WAL suffix
  /// with records — every durability file class is present to corrupt.
  std::vector<DurableOp> build_pristine(std::uint64_t window,
                                        std::uint64_t seed) {
    std::filesystem::remove_all(pristine_);
    std::filesystem::create_directories(pristine_);
    const auto ops = make_workload(kNodes, kOps, seed, window > 0);
    DurableOptions o;
    o.dir = pristine_.string();
    o.window = window;
    o.sync = WalSync::kNone;
    DurableEngine<NodeID> engine(kNodes, o);
    for (std::size_t i = 0; i < ops.size(); ++i) {
      switch (ops[i].type) {
        case WalRecordType::kInsert:
          engine.insert(to_edge_list(ops[i].edges));
          break;
        case WalRecordType::kDelete:
          engine.erase(to_edge_list(ops[i].edges));
          break;
        case WalRecordType::kTick:
          engine.tick();
          break;
      }
      if (i == kOps / 2) engine.checkpoint();
    }
    return ops;
  }

  void reset_victim() const {
    std::filesystem::remove_all(victim_);
    std::filesystem::copy(pristine_, victim_);
  }

  /// Preserves the corrupted directory for offline replay and returns the
  /// dump location (mentioned in the failure message).
  std::string dump_reproducer(const std::string& tag, int round) const {
    const std::string dump = fuzz::dump_dir() + "/durable-fuzz-repro-" +
                             tag + "-r" + std::to_string(round);
    std::filesystem::remove_all(dump);
    std::filesystem::copy(victim_, dump);
    return dump;
  }

  /// One fuzz campaign over a single file class of the pristine directory.
  void fuzz_file(const std::string& name, const std::string& tag,
                 std::uint64_t window, const std::vector<DurableOp>& ops) {
    const std::vector<unsigned char> baseline = slurp(pristine_ / name);
    ASSERT_FALSE(baseline.empty()) << tag << ": missing baseline file";
    Xoshiro256 rng(0xD07AB1E5ull ^ std::hash<std::string>{}(tag));
    int recovered_count = 0;
    int rejected_count = 0;
    for (int round = 0; round < rounds(); ++round) {
      reset_victim();
      std::vector<unsigned char> mutated = baseline;
      const auto mutations = 1 + rng.next() % 3;
      for (std::uint64_t k = 0; k < mutations; ++k) corrupt(mutated, rng);
      spit(victim_ / name, mutated);
      try {
        DurableEngine<NodeID> engine(kNodes, victim_opts(window));
        // Recovery accepted the directory: the state it came up on must be
        // EXACTLY the oracle at the seq it claims — a wrong answer here is
        // the one unforgivable outcome.
        const std::uint64_t seq = engine.last_seq();
        ASSERT_LE(seq, ops.size())
            << tag << " round " << round << ": recovered seq " << seq
            << " beyond the journaled workload; repro: "
            << dump_reproducer(tag, round);
        const ComponentLabels<NodeID> got = engine.live_labels();
        const ComponentLabels<NodeID> want =
            oracle_labels(ops, static_cast<std::size_t>(seq), kNodes, window);
        for (std::size_t v = 0; v < got.size(); ++v)
          ASSERT_EQ(got[v], want[v])
              << tag << " round " << round << ": silent wrong answer at "
              << "vertex " << v << " (recovered seq " << seq
              << "); repro: " << dump_reproducer(tag, round);
        // Return to service: a recovered engine still journals.
        engine.insert(EdgeList<NodeID>{{0, 1}});
        ++recovered_count;
      } catch (const IoError&) {
        ++rejected_count;  // typed rejection: the other acceptable outcome
      } catch (const std::exception& e) {
        FAIL() << tag << " round " << round
               << ": non-IoError escaped recovery: " << e.what()
               << "; repro: " << dump_reproducer(tag, round);
      }
    }
    // Both branches must be exercised, otherwise the campaign is vacuous
    // (e.g. a renamed file would make every round throw kOpenFailed).
    EXPECT_GT(rejected_count, 0) << tag;
    // WAL corruption usually survives via torn-tail truncation; manifest
    // and checkpoint corruption is usually fatal (full validation), so a
    // recovery count of zero is only suspicious for the WAL campaign.
    if (tag.rfind("wal", 0) == 0) {
      EXPECT_GT(recovered_count, 0) << tag;
    }
  }

  std::filesystem::path root_;
  std::filesystem::path pristine_;
  std::filesystem::path victim_;
};

TEST_F(DurableFuzzTest, WalCorruptionIsTypedOrCleanTruncation) {
  const auto ops = build_pristine(/*window=*/0, /*seed=*/71);
  // The live segment after the mid-run checkpoint is wal-(kOps/2 + 2).log.
  const std::string wal =
      "wal-" + std::to_string(kOps / 2 + 2) + ".log";
  ASSERT_TRUE(std::filesystem::exists(pristine_ / wal));
  fuzz_file(wal, "wal", 0, ops);
}

TEST_F(DurableFuzzTest, CheckpointCorruptionIsTypedOrExact) {
  const auto ops = build_pristine(/*window=*/0, /*seed=*/72);
  const std::string ckpt =
      "ckpt-" + std::to_string(kOps / 2 + 1) + ".afck";
  ASSERT_TRUE(std::filesystem::exists(pristine_ / ckpt));
  fuzz_file(ckpt, "ckpt", 0, ops);
}

TEST_F(DurableFuzzTest, ManifestCorruptionIsTypedOrExact) {
  const auto ops = build_pristine(/*window=*/0, /*seed=*/73);
  fuzz_file("MANIFEST", "manifest", 0, ops);
}

TEST_F(DurableFuzzTest, WindowedWalCorruptionIsTypedOrCleanTruncation) {
  const auto ops = build_pristine(/*window=*/3, /*seed=*/74);
  const std::string wal =
      "wal-" + std::to_string(kOps / 2 + 2) + ".log";
  ASSERT_TRUE(std::filesystem::exists(pristine_ / wal));
  fuzz_file(wal, "wal-windowed", 3, ops);
}

}  // namespace
}  // namespace afforest::serve
