// Differential fuzzing: every registry algorithm vs the serial union-find
// oracle, over the full generator corpus (family × scale × seed grid).
//
// A failure message contains the minimized reproducer's dump path and the
// exact replay command; see docs/TESTING.md ("Fuzz harness").
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "fuzz/fuzz_common.hpp"
#include "graph/io.hpp"
#include "util/env.hpp"

namespace afforest {
namespace {

using fuzz::FuzzInput;
using fuzz::Mismatch;

class DifferentialFuzz
    : public fuzz::SmallTeamTest,
      public ::testing::WithParamInterface<std::tuple<std::string, int>> {};

TEST_P(DifferentialFuzz, AllAlgorithmsMatchOracle) {
  const auto& [family, scale] = GetParam();
  for (int s = 0; s < fuzz::seeds_per_cell(); ++s) {
    // Distinct fixed seeds per cell; nothing time- or host-dependent.
    const std::uint64_t seed = 0xFA57 + 1000003ULL * static_cast<std::uint64_t>(s);
    const FuzzInput in = fuzz::make_fuzz_input(family, scale, seed);
    for (const Mismatch& m : fuzz::run_differential(in))
      ADD_FAILURE() << m.report();
  }
}

std::string cell_name(
    const ::testing::TestParamInfo<DifferentialFuzz::ParamType>& info) {
  std::string family = std::get<0>(info.param);
  for (char& c : family)
    if (c == '-') c = '_';
  return family + "_s" + std::to_string(std::get<1>(info.param));
}

// 14 families × 3 sizes (acceptance floor: ≥ 6 families × ≥ 3 sizes).
INSTANTIATE_TEST_SUITE_P(
    Corpus, DifferentialFuzz,
    ::testing::Combine(::testing::ValuesIn(fuzz::fuzz_families()),
                       ::testing::Values(7, 9, 11)),
    cell_name);

// Tiny scales get their own sweep: off-by-one bugs live at n ∈ {1, 2, 4}.
INSTANTIATE_TEST_SUITE_P(
    CorpusTiny, DifferentialFuzz,
    ::testing::Combine(::testing::ValuesIn(fuzz::fuzz_families()),
                       ::testing::Values(0, 1, 2)),
    cell_name);

// Replay mode: AFFOREST_FUZZ_REPLAY=<dump.el> re-runs the full differential
// check on a dumped reproducer.  Skipped when the variable is unset.
TEST(DifferentialFuzzReplay, ReplaysDumpedReproducer) {
  const std::string path = env::as_string("AFFOREST_FUZZ_REPLAY");
  if (path.empty())
    GTEST_SKIP() << "set AFFOREST_FUZZ_REPLAY=<file.el> to replay a dump";
  FuzzInput in;
  in.family = "replay";
  in.seed = 0;
  in.edges = read_edge_list(path);
  in.num_nodes = fuzz::reproducer_num_nodes(in.edges);
  for (const Mismatch& m : fuzz::run_differential(in))
    ADD_FAILURE() << m.report();
}

}  // namespace
}  // namespace afforest
