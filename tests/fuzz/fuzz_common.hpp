// Differential fuzzing harness for the CC algorithm registry.
//
// The oracle is the serial union-find (union_find_cc): every registered
// algorithm must produce the SAME PARTITION on every input the generator
// corpus can draw.  The corpus spans all generator families in
// graph/generators/ plus degenerate/adversarial shapes the randomized
// families never emit (isolated vertices, self loops, duplicated edges,
// worst-case edge orders from §V-A).
//
// On a mismatch the harness shrinks the edge list with ddmin (keeping the
// "this algorithm disagrees with the oracle" property) and dumps the
// minimized reproducer as a text .el file, replayable either through
// AFFOREST_FUZZ_REPLAY (see differential_fuzz_test.cpp) or the apps/
// driver.  Everything is seeded; no run depends on wall clock or
// std::random_device.
//
// Budget control: AFFOREST_FUZZ_BUDGET is a percentage (1..100, default
// 100) that scales the number of seeds per (family, scale) cell, so the
// sanitizer CI jobs can run the same grid at reduced depth.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <stdexcept>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cc/registry.hpp"
#include "cc/union_find.hpp"
#include "cc/verifier.hpp"
#include "graph/builder.hpp"
#include "graph/edge_list.hpp"
#include "graph/generators/adversarial.hpp"
#include "graph/generators/component_mix.hpp"
#include "graph/generators/geometric.hpp"
#include "graph/generators/kronecker.hpp"
#include "graph/generators/regular.hpp"
#include "graph/generators/road.hpp"
#include "graph/generators/smallworld.hpp"
#include "graph/generators/uniform.hpp"
#include "graph/generators/webgraph.hpp"
#include "graph/io.hpp"
#include "serve/dynamic_cc.hpp"
#include "util/env.hpp"
#include "util/platform.hpp"
#include "util/rng.hpp"

namespace afforest::fuzz {

using NodeID = std::int32_t;

/// Runs each test on an OpenMP team of at most two threads.  Two threads
/// keep every schedule concurrent while staying fast when ctest runs
/// several OpenMP test processes at once: with three concurrent processes
/// on a 4-core host, 4-thread teams spent most of each test in barrier
/// waits (the tiny-scale differential cells took 40–174 s per process, 39 ms
/// alone), 2-thread teams 25–51 ms.  min() keeps the TSan preset's single
/// thread (libgomp is not TSan-instrumented).
class SmallTeamTest : public ::testing::Test {
 protected:
  void SetUp() override { set_num_threads(std::min(saved_threads_, 2)); }
  void TearDown() override { set_num_threads(saved_threads_); }
  int saved_threads_ = num_threads();
};

/// AFFOREST_FUZZ_BUDGET as a percentage, clamped to [1, 100].
inline int fuzz_budget() {
  const auto v = env::as_int64("AFFOREST_FUZZ_BUDGET");
  if (!v) return 100;
  return static_cast<int>(std::clamp<std::int64_t>(*v, 1, 100));
}

/// Seeds fuzzed per (family, scale) cell at the current budget.
inline int seeds_per_cell() { return std::max(1, 3 * fuzz_budget() / 100); }

/// One drawn corpus entry: a seeded edge list plus its vertex-count bound.
struct FuzzInput {
  std::string family;
  int scale = 0;  ///< log2 of the vertex count
  std::uint64_t seed = 0;
  std::int64_t num_nodes = 0;
  EdgeList<NodeID> edges;
};

/// All corpus families.  The first six mirror the paper's Table III suite;
/// the rest are extended/degenerate shapes a randomized family never draws.
inline const std::vector<std::string>& fuzz_families() {
  static const std::vector<std::string> families = {
      "road",         "lattice-sparse", "kron",          "web",
      "urand",        "smallworld",     "rgg",           "regular",
      "component-mix", "star-reversed", "path-reversed", "isolated",
      "self-loops",   "multi-edges",
  };
  return families;
}

inline FuzzInput make_fuzz_input(const std::string& family, int scale,
                                 std::uint64_t seed) {
  FuzzInput in;
  in.family = family;
  in.scale = scale;
  in.seed = seed;
  const std::int64_t n = std::int64_t{1} << scale;
  in.num_nodes = n;
  if (family == "road") {
    const auto side =
        static_cast<std::int64_t>(std::max(1.0, std::sqrt(static_cast<double>(n))));
    in.num_nodes = side * side;
    in.edges = generate_road_edges<NodeID>(
        side, side, seed, {.keep_prob = 0.97, .shortcut_per_node = 0.005});
  } else if (family == "lattice-sparse") {
    const auto side =
        static_cast<std::int64_t>(std::max(1.0, std::sqrt(static_cast<double>(n))));
    in.num_nodes = side * side;
    in.edges = generate_road_edges<NodeID>(
        side, side, seed, {.keep_prob = 0.60, .shortcut_per_node = 0.0});
  } else if (family == "kron") {
    in.edges = generate_kronecker_edges<NodeID>(scale, 16, seed);
  } else if (family == "web") {
    in.edges = generate_web_edges<NodeID>(n, seed);
  } else if (family == "urand") {
    in.edges = generate_uniform_edges<NodeID>(n, 8 * n, seed);
  } else if (family == "smallworld") {
    // Ring degree must stay below n; n = 1 has no valid ring at all.
    if (n > 1)
      in.edges =
          generate_small_world_edges<NodeID>(n, std::min<std::int64_t>(4, n - 1),
                                             0.1, seed);
  } else if (family == "rgg") {
    // Threshold radius; clamped into the generator's (0, 1] domain (the
    // formula yields 0 at n = 1 and can exceed 1 at tiny n).
    const double r = 1.5 * std::sqrt(std::log(static_cast<double>(n)) /
                                     (3.14159265 * static_cast<double>(n)));
    in.edges = generate_geometric_edges<NodeID>(n, std::clamp(r, 0.05, 1.0),
                                                seed);
  } else if (family == "regular") {
    in.edges = generate_regular_edges<NodeID>(n, 8, seed);
  } else if (family == "component-mix") {
    // Clamp the fraction so tiny scales keep ≥ 1 vertex per component
    // (generate_component_mix_edges rejects empty components).
    const double fraction = std::max(0.05, 1.0 / static_cast<double>(n));
    in.edges = generate_component_mix_edges<NodeID>(n, 4.0, fraction, seed);
  } else if (family == "star-reversed") {
    // §V-A link worst case: hub is the highest index, leaves descending.
    in.edges = adversarial_star_edges<NodeID>(n);
  } else if (family == "path-reversed") {
    in.edges = adversarial_path_edges<NodeID>(n);
  } else if (family == "isolated") {
    // Pure isolated vertices: every label must stay a singleton.
    in.edges = EdgeList<NodeID>{};
  } else if (family == "self-loops") {
    // A path with a self loop on every vertex; the builder strips the
    // loops, and stripping must not change the partition.
    for (std::int64_t v = 0; v < n; ++v) {
      in.edges.push_back({static_cast<NodeID>(v), static_cast<NodeID>(v)});
      if (v + 1 < n)
        in.edges.push_back(
            {static_cast<NodeID>(v), static_cast<NodeID>(v + 1)});
    }
  } else if (family == "multi-edges") {
    // Uniform edges, each duplicated in both orientations: dedup pressure.
    const auto base = generate_uniform_edges<NodeID>(n, 2 * n, seed);
    for (const auto& [u, v] : base) {
      in.edges.push_back({u, v});
      in.edges.push_back({u, v});
      in.edges.push_back({v, u});
    }
  } else {
    throw std::invalid_argument("unknown fuzz family: " + family);
  }
  return in;
}

/// True iff `algo` disagrees with the serial oracle on (edges, num_nodes).
/// An exception thrown by the algorithm counts as a disagreement so the
/// minimizer also shrinks crashing inputs.
inline bool algorithm_disagrees(const AlgorithmEntry& algo,
                                const EdgeList<NodeID>& edges,
                                std::int64_t num_nodes) {
  try {
    const Graph g = build_undirected(edges, num_nodes);
    const auto oracle = union_find_cc(g);
    const auto got = algo.run(g);
    return !labels_equivalent(got, oracle);
  } catch (...) {
    return true;
  }
}

/// ddmin over the edge list: returns the smallest found edge subset on
/// which `algo` still disagrees with the oracle.  Bounded by `max_checks`
/// oracle evaluations so pathological cases cannot hang a test run.
inline EdgeList<NodeID> minimize_reproducer(const AlgorithmEntry& algo,
                                            const FuzzInput& in,
                                            int max_checks = 512) {
  EdgeList<NodeID> current = in.edges.clone();
  int checks = 0;
  std::size_t granularity = 2;
  while (current.size() >= 2 && checks < max_checks) {
    const std::size_t chunk =
        std::max<std::size_t>(1, current.size() / granularity);
    bool reduced = false;
    for (std::size_t start = 0; start < current.size() && checks < max_checks;
         start += chunk) {
      const std::size_t end = std::min(current.size(), start + chunk);
      EdgeList<NodeID> candidate;
      candidate.reserve(current.size() - (end - start));
      for (std::size_t i = 0; i < current.size(); ++i)
        if (i < start || i >= end) candidate.push_back(current[i]);
      ++checks;
      if (algorithm_disagrees(algo, candidate, in.num_nodes)) {
        current = std::move(candidate);
        granularity = std::max<std::size_t>(2, granularity - 1);
        reduced = true;
        break;
      }
    }
    if (!reduced) {
      if (granularity >= current.size()) break;
      granularity = std::min(current.size(), granularity * 2);
    }
  }
  return current;
}

/// Number of vertices a replay needs: max referenced id + 1 (so dumped
/// reproducers stay minimal even when the original input was mostly
/// isolated vertices).
inline std::int64_t reproducer_num_nodes(const EdgeList<NodeID>& edges) {
  NodeID max_id = 0;
  for (const auto& [u, v] : edges) max_id = std::max({max_id, u, v});
  return static_cast<std::int64_t>(max_id) + 1;
}

/// A confirmed oracle disagreement, minimized and dumped for replay.
struct Mismatch {
  std::string algorithm;
  std::string family;
  int scale = 0;
  std::uint64_t seed = 0;
  std::size_t original_edges = 0;
  std::size_t minimized_edges = 0;
  std::string dump_path;  ///< empty if the dump could not be written

  [[nodiscard]] std::string report() const {
    std::ostringstream os;
    os << "algorithm '" << algorithm << "' disagrees with the union-find "
       << "oracle on family=" << family << " scale=" << scale
       << " seed=" << seed << " (" << original_edges
       << " edges, minimized to " << minimized_edges << ")";
    if (!dump_path.empty())
      os << "\nreproducer dumped to: " << dump_path
         << "\nreplay with: AFFOREST_FUZZ_REPLAY=" << dump_path
         << " ./tests/test_fuzz --gtest_filter='DifferentialFuzzReplay.*'";
    return os.str();
  }
};

/// Directory reproducers are dumped into (AFFOREST_FUZZ_DUMP_DIR, default
/// current working directory).
inline std::string dump_dir() { return env::as_string("AFFOREST_FUZZ_DUMP_DIR", "."); }

/// Runs one algorithm differentially; on disagreement minimizes + dumps.
inline std::optional<Mismatch> check_algorithm(const AlgorithmEntry& algo,
                                               const FuzzInput& in) {
  if (!algorithm_disagrees(algo, in.edges, in.num_nodes)) return std::nullopt;
  Mismatch m;
  m.algorithm = algo.name;
  m.family = in.family;
  m.scale = in.scale;
  m.seed = in.seed;
  m.original_edges = in.edges.size();
  const EdgeList<NodeID> minimized = minimize_reproducer(algo, in);
  m.minimized_edges = minimized.size();
  std::ostringstream path;
  path << dump_dir() << "/fuzz-repro-" << in.family << "-s" << in.scale
       << "-seed" << in.seed << "-" << algo.name << ".el";
  try {
    write_edge_list(path.str(), minimized);
    m.dump_path = path.str();
  } catch (...) {
    m.dump_path.clear();  // report still carries the (family, scale, seed)
  }
  return m;
}

/// Runs EVERY registered algorithm against the oracle on one input.
/// Returns all mismatches (empty = the input is clean).
inline std::vector<Mismatch> run_differential(const FuzzInput& in) {
  std::vector<Mismatch> out;
  for (const auto& algo : cc_algorithms())
    if (auto m = check_algorithm(algo, in)) out.push_back(std::move(*m));
  return out;
}

// ---- dynamic (mixed insert/delete) mutation mode --------------------------
// Same harness discipline as the static oracle above, aimed at the
// decremental engine (serve/dynamic_cc.hpp): a seeded corpus input is
// mutated into an operation SCRIPT — interleaved inserts and deletes —
// replayed through DynamicCC in batches, with the live labels compared
// against a from-scratch union-find over the surviving edge multiset after
// EVERY batch.  Deletes target previously-scripted edges (so re-deletions
// exercise the absent path) plus a sprinkle of never-inserted pairs.
// Mismatching scripts shrink with the same ddmin loop (any op subset is a
// valid script: deleting an absent edge is a defined no-op) and dump as a
// "+/- u v" text file replayable via AFFOREST_FUZZ_REPLAY_DYN.

/// One scripted operation: insert or delete of a single edge.
struct DynOp {
  bool is_delete = false;
  EdgePair<NodeID> e{0, 0};
};

using DynScript = std::vector<DynOp>;

/// A seeded dynamic scenario: the script plus its replay parameters.
struct DynInput {
  std::string family;
  int scale = 0;
  std::uint64_t seed = 0;
  std::int64_t num_nodes = 0;
  std::size_t batch_size = 32;
  DynScript ops;
};

/// Mutates a static corpus input into an interleaved insert/delete script.
inline DynInput make_dynamic_input(const std::string& family, int scale,
                                   std::uint64_t seed) {
  const FuzzInput base = make_fuzz_input(family, scale, seed);
  DynInput in;
  in.family = family;
  in.scale = scale;
  in.seed = seed;
  in.num_nodes = base.num_nodes;
  Xoshiro256 rng(seed ^ 0x9e3779b97f4a7c15ULL);
  std::vector<EdgePair<NodeID>> pool;  // every edge the script has inserted
  for (const auto& e : base.edges) {
    in.ops.push_back({false, e});
    pool.push_back(e);
    const std::uint64_t roll = rng.next_bounded(8);
    if (roll < 3) {
      // Delete a previously scripted edge (possibly already deleted →
      // duplicate-copy and absent paths both get exercised).
      in.ops.push_back({true, pool[rng.next_bounded(pool.size())]});
    } else if (roll == 3 && in.num_nodes > 0) {
      // Delete a random pair that was most likely never inserted.
      const auto nn = static_cast<std::uint64_t>(in.num_nodes);
      in.ops.push_back({true,
                        {static_cast<NodeID>(rng.next_bounded(nn)),
                         static_cast<NodeID>(rng.next_bounded(nn))}});
    }
  }
  // Decremental tail: tear down half the pool so late batches are
  // delete-heavy (tree cuts and rebuilds, not just churn).
  for (std::size_t k = 0; k + 1 < pool.size(); k += 2)
    in.ops.push_back({true, pool[rng.next_bounded(pool.size())]});
  return in;
}

/// Replays `ops` through DynamicCC in batches and checks the live labels
/// against a from-scratch union-find over the surviving edge multiset after
/// every batch.  Labels must match EXACTLY (both sides use the min-vertex-id
/// convention), not just as partitions.  Exceptions count as disagreement so
/// the minimizer also shrinks crashing scripts.  `break_certification`
/// flips the engine's deliberate mis-certification knob — used by the
/// harness self-test to prove this oracle has teeth.
inline bool dynamic_disagrees(const DynScript& ops, std::int64_t num_nodes,
                              std::size_t batch_size,
                              bool break_certification = false) {
  if (num_nodes <= 0 || batch_size == 0) return false;
  try {
    serve::DynamicCC<NodeID> engine(num_nodes);
    engine.testing_certify_all_deletes_free(break_certification);
    std::map<std::pair<NodeID, NodeID>, std::uint32_t> surviving;
    for (std::size_t start = 0; start < ops.size(); start += batch_size) {
      const std::size_t stop = std::min(ops.size(), start + batch_size);
      EdgeList<NodeID> inserts;
      EdgeList<NodeID> deletes;
      for (std::size_t i = start; i < stop; ++i)
        (ops[i].is_delete ? deletes : inserts).push_back(ops[i].e);
      // A batch is one stream tick: ALL its inserts land first, then its
      // deletes — and the reference multiset follows the same order (an
      // in-op-order reference would disagree whenever a batch deletes an
      // edge it also inserts).
      for (const auto& [u, v] : inserts)
        ++surviving[std::pair<NodeID, NodeID>(std::minmax(u, v))];
      for (const auto& [u, v] : deletes) {
        const auto it =
            surviving.find(std::pair<NodeID, NodeID>(std::minmax(u, v)));
        if (it != surviving.end() && --(it->second) == 0) surviving.erase(it);
      }
      engine.apply_inserts(inserts);
      engine.apply_deletes(deletes);
      EdgeList<NodeID> edges;
      for (const auto& [key, copies] : surviving)
        edges.push_back({key.first, key.second});
      const auto oracle = union_find_cc(edges, num_nodes);
      const auto live = engine.live_labels();
      for (std::int64_t v = 0; v < num_nodes; ++v)
        if (live[static_cast<std::size_t>(v)] !=
            oracle[static_cast<std::size_t>(v)])
          return true;
    }
  } catch (...) {
    return true;
  }
  return false;
}

/// ddmin over the op script (same loop as minimize_reproducer; any subset
/// of a script is itself a valid script).
inline DynScript minimize_dyn_reproducer(const DynInput& in,
                                         int max_checks = 512) {
  DynScript current = in.ops;
  int checks = 0;
  std::size_t granularity = 2;
  while (current.size() >= 2 && checks < max_checks) {
    const std::size_t chunk =
        std::max<std::size_t>(1, current.size() / granularity);
    bool reduced = false;
    for (std::size_t start = 0; start < current.size() && checks < max_checks;
         start += chunk) {
      const std::size_t end = std::min(current.size(), start + chunk);
      DynScript candidate;
      candidate.reserve(current.size() - (end - start));
      for (std::size_t i = 0; i < current.size(); ++i)
        if (i < start || i >= end) candidate.push_back(current[i]);
      ++checks;
      if (dynamic_disagrees(candidate, in.num_nodes, in.batch_size)) {
        current = std::move(candidate);
        granularity = std::max<std::size_t>(2, granularity - 1);
        reduced = true;
        break;
      }
    }
    if (!reduced) {
      if (granularity >= current.size()) break;
      granularity = std::min(current.size(), granularity * 2);
    }
  }
  return current;
}

/// Vertices a dynamic replay needs: max referenced id + 1.
inline std::int64_t reproducer_num_nodes_dyn(const DynScript& ops) {
  NodeID max_id = 0;
  for (const auto& op : ops) max_id = std::max({max_id, op.e.u, op.e.v});
  return static_cast<std::int64_t>(max_id) + 1;
}

/// Dumps a script as text: one op per line, "+ u v" (insert) or "- u v"
/// (delete), with a header comment carrying num_nodes and batch_size.
inline bool write_dyn_script(const std::string& path, const DynInput& in,
                             const DynScript& ops) {
  std::ofstream out(path);
  if (!out) return false;
  out << "# afforest dynamic fuzz script\n"
      << "# nodes " << in.num_nodes << " batch " << in.batch_size << "\n";
  for (const auto& op : ops)
    out << (op.is_delete ? '-' : '+') << ' ' << op.e.u << ' ' << op.e.v
        << '\n';
  return static_cast<bool>(out);
}

/// Parses a dumped script.  Returns std::nullopt on any malformed line.
inline std::optional<DynInput> read_dyn_script(const std::string& path) {
  std::ifstream stream(path);
  if (!stream) return std::nullopt;
  DynInput in;
  in.family = "replay";
  std::string line;
  while (std::getline(stream, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      std::istringstream header(line.substr(1));
      std::string word;
      if (header >> word && word == "nodes") {
        if (!(header >> in.num_nodes >> word >> in.batch_size))
          return std::nullopt;
      }
      continue;
    }
    std::istringstream fields(line);
    char sign = 0;
    DynOp op;
    if (!(fields >> sign >> op.e.u >> op.e.v)) return std::nullopt;
    if (sign != '+' && sign != '-') return std::nullopt;
    op.is_delete = sign == '-';
    in.ops.push_back(op);
  }
  if (in.num_nodes <= 0) in.num_nodes = reproducer_num_nodes_dyn(in.ops);
  if (in.batch_size == 0) in.batch_size = 32;
  return in;
}

/// A confirmed dynamic-oracle disagreement, minimized and dumped.
struct DynMismatch {
  std::string family;
  int scale = 0;
  std::uint64_t seed = 0;
  std::size_t original_ops = 0;
  std::size_t minimized_ops = 0;
  std::string dump_path;

  [[nodiscard]] std::string report() const {
    std::ostringstream os;
    os << "DynamicCC disagrees with the from-scratch union-find oracle on "
       << "family=" << family << " scale=" << scale << " seed=" << seed
       << " (" << original_ops << " ops, minimized to " << minimized_ops
       << ")";
    if (!dump_path.empty())
      os << "\nreproducer dumped to: " << dump_path
         << "\nreplay with: AFFOREST_FUZZ_REPLAY_DYN=" << dump_path
         << " ./tests/test_fuzz --gtest_filter='DynamicFuzzReplay.*'";
    return os.str();
  }
};

/// Runs the dynamic oracle on one scenario; on disagreement minimizes and
/// dumps the script.
inline std::optional<DynMismatch> check_dynamic(const DynInput& in) {
  if (!dynamic_disagrees(in.ops, in.num_nodes, in.batch_size))
    return std::nullopt;
  DynMismatch m;
  m.family = in.family;
  m.scale = in.scale;
  m.seed = in.seed;
  m.original_ops = in.ops.size();
  const DynScript minimized = minimize_dyn_reproducer(in);
  m.minimized_ops = minimized.size();
  std::ostringstream path;
  path << dump_dir() << "/fuzz-repro-dyn-" << in.family << "-s" << in.scale
       << "-seed" << in.seed << ".ops";
  if (write_dyn_script(path.str(), in, minimized)) m.dump_path = path.str();
  return m;
}

}  // namespace afforest::fuzz
