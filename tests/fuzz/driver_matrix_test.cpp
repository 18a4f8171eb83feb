// afforest_cc's option matrix, checked differentially: every sampling ×
// schedule × skip × link cell must return exactly the labels of a serial
// union-find over the symmetrized graph (both label a component by its
// minimum vertex id), on undirected and directed inputs.  Directed inputs
// check phase 3's in-edge pass: an arc u->v whose tail u is skipped is
// reached only from v's in-edges.  Cells without a link suffix use the
// default link, RemSplice; "_roothook" cells use the paper's link().
//
// Inputs: every fuzz-corpus family at scales {0, 2, 9}, built undirected
// and directed; 120 directed G(n, m) graphs; and the graphs the former
// per-variant suites used (suite families at scale 10 and 9, a 5000-leaf
// hub, the scale-11 kron fuzz draw).  The Fig 7 tracer runs every cell on
// a small subset of these.
//
// The same cells also pin the telemetry contract perfbench and the docs
// read: an armed solve records only the afforest.* phase names, and every
// stored edge is either linked or skipped, once — on undirected graphs,
// and on directed ones without the skip (with it, phase 3's in-edge pass
// links some arcs a second time).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <ostream>
#include <set>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "analysis/memtrace.hpp"
#include "analysis/telemetry.hpp"
#include "cc/afforest.hpp"
#include "cc/union_find.hpp"
#include "fuzz/fuzz_common.hpp"
#include "graph/builder.hpp"
#include "graph/generators/suite.hpp"
#include "graph/generators/uniform.hpp"

namespace afforest {
namespace {

using fuzz::NodeID;

struct Cell {
  std::string name;
  AfforestOptions opts;
};

void PrintTo(const Cell& cell, std::ostream* os) { *os << cell.name; }

std::vector<Cell> driver_cells() {
  const std::vector<std::pair<std::string, decltype(AfforestOptions::sampling)>>
      samplings = {{"k0", NeighborRounds{0}},
                   {"k2", NeighborRounds{2}},
                   {"p0", UniformEdges{0.0}},
                   {"p0_1", UniformEdges{0.1}},
                   {"p1", UniformEdges{1.0}}};
  const std::vector<std::pair<std::string, decltype(AfforestOptions::schedule)>>
      schedules = {{"vertex", PerVertex{}},
                   {"chunk1", Chunked{1}},
                   {"chunk64", Chunked{64}}};
  const std::vector<std::pair<std::string, decltype(AfforestOptions::link)>>
      links = {{"", RemSplice{}}, {"_roothook", RootHook{}}};
  std::vector<Cell> cells;
  for (const auto& [link_name, link] : links) {
    for (const auto& [sampling_name, sampling] : samplings) {
      for (const auto& [schedule_name, schedule] : schedules) {
        for (const bool skip : {true, false}) {
          Cell cell;
          cell.name = sampling_name + "_" + schedule_name +
                      (skip ? "_skip" : "_noskip") + link_name;
          cell.opts.sampling = sampling;
          cell.opts.schedule = schedule;
          cell.opts.skip_largest = skip;
          cell.opts.link = link;
          cells.push_back(std::move(cell));
        }
      }
    }
  }
  return cells;
}

struct MatrixInput {
  std::string name;
  Graph graph;
  ComponentLabels<NodeID> want;  ///< union-find of the symmetrized graph
};

MatrixInput from_edges(std::string name, const EdgeList<NodeID>& edges,
                       std::int64_t num_nodes, bool directed) {
  return {std::move(name),
          directed ? build_directed(edges, num_nodes)
                   : build_undirected(edges, num_nodes),
          union_find_cc(edges, num_nodes)};
}

MatrixInput from_graph(std::string name, Graph g) {
  auto want = union_find_cc(g);
  return {std::move(name), std::move(g), std::move(want)};
}

Graph hub_graph(NodeID leaves) {
  EdgeList<NodeID> edges;
  for (NodeID i = 0; i < leaves; ++i) edges.push_back({i, leaves});
  return build_undirected(edges, leaves + 1);
}

// Every fuzz-corpus family at each scale, built undirected and directed.
void add_fuzz_families(std::vector<MatrixInput>& out,
                       std::initializer_list<int> scales) {
  for (const auto& family : fuzz::fuzz_families()) {
    for (const int scale : scales) {
      const auto in = fuzz::make_fuzz_input(family, scale, 1);
      const std::string name = family + "/s" + std::to_string(scale);
      out.push_back(from_edges(name, in.edges, in.num_nodes, false));
      out.push_back(
          from_edges(name + "/directed", in.edges, in.num_nodes, true));
    }
  }
}

// Directed G(n, m) for m in {n, 2n, 5n}, seeds 1..seeds.
void add_directed_urand(std::vector<MatrixInput>& out, std::int64_t n,
                        std::uint64_t seeds) {
  for (const std::int64_t m : {n, 2 * n, 5 * n}) {
    for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
      out.push_back(from_edges(
          "urand/n" + std::to_string(n) + "_m" + std::to_string(m) +
              "_seed" + std::to_string(seed) + "/directed",
          generate_uniform_edges<NodeID>(n, m, seed), n, true));
    }
  }
}

const std::vector<MatrixInput>& matrix_inputs() {
  static const std::vector<MatrixInput> inputs = [] {
    std::vector<MatrixInput> out;
    add_fuzz_families(out, {0, 2, 9});
    for (const std::int64_t n : {200, 4000}) add_directed_urand(out, n, 20);
    for (const auto* family : {"road", "twitter", "web", "urand", "kron"})
      out.push_back(from_graph(std::string("suite/") + family + "/s10",
                               make_suite_graph(family, 10)));
    for (const auto* family : {"twitter", "kron"})
      out.push_back(from_graph(std::string("suite/") + family + "/s9",
                               make_suite_graph(family, 9)));
    out.push_back(from_graph("hub5000", hub_graph(5000)));
    const auto kron = fuzz::make_fuzz_input("kron", 11, 5);
    out.push_back(from_edges("kron/s11_seed5", kron.edges, kron.num_nodes,
                             false));
    return out;
  }();
  return inputs;
}

// The traced solve records every π access as a 16-byte event, so it runs
// on the small inputs only.
const std::vector<MatrixInput>& traced_inputs() {
  static const std::vector<MatrixInput> inputs = [] {
    std::vector<MatrixInput> out;
    add_fuzz_families(out, {0, 2});
    add_directed_urand(out, 200, 2);
    return out;
  }();
  return inputs;
}

std::int64_t mismatches(const ComponentLabels<NodeID>& got,
                        const ComponentLabels<NodeID>& want) {
  if (got.size() != want.size()) return -1;
  std::int64_t bad = 0;
  for (std::size_t v = 0; v < got.size(); ++v) bad += got[v] != want[v];
  return bad;
}

class DriverMatrix : public fuzz::SmallTeamTest,
                     public ::testing::WithParamInterface<Cell> {};

TEST_P(DriverMatrix, MatchesSymmetrizedUnionFind) {
  const AfforestOptions& opts = GetParam().opts;
  for (const auto& in : matrix_inputs())
    EXPECT_EQ(mismatches(afforest_cc(in.graph, opts), in.want), 0) << in.name;
}

TEST_P(DriverMatrix, TracedSolveMatchesSymmetrizedUnionFind) {
  const AfforestOptions& opts = GetParam().opts;
  for (const auto& in : traced_inputs())
    EXPECT_EQ(mismatches(run_traced_afforest(in.graph, opts).labels, in.want),
              0)
        << in.name;
}

TEST_P(DriverMatrix, ArmedSolveKeepsPhaseNamesAndEdgeIdentity) {
  if (!telemetry::compiled_in()) GTEST_SKIP() << "telemetry compiled out";
  const AfforestOptions& opts = GetParam().opts;
  const auto* rounds = std::get_if<NeighborRounds>(&opts.sampling);
  for (const auto& in : matrix_inputs()) {
    const Graph& g = in.graph;
    // Skipping on a directed graph, the in-edge pass links arcs a second
    // time, so the identity holds only without the skip there.
    if (g.directed() && opts.skip_largest) continue;
    const telemetry::ScopedEnable armed;
    afforest_cc(g, opts);
    const telemetry::Report report = telemetry::capture();

    // Phases a cell does not run (no rounds, no skip) are absent, never
    // renamed: the five afforest.* names are the whole vocabulary.
    std::set<std::string> want = {"afforest.init", "afforest.compress",
                                  "afforest.final_link"};
    if (rounds == nullptr || rounds->k > 0) want.insert("afforest.sampling");
    if (opts.skip_largest) want.insert("afforest.find_largest");
    std::set<std::string> got;
    for (const auto& phase : report.phases) got.insert(phase.name);
    EXPECT_EQ(got, want) << in.name;

    if (rounds == nullptr) continue;
    std::int64_t sampled = 0;
    for (std::int64_t v = 0; v < g.num_nodes(); ++v)
      sampled += std::min<std::int64_t>(rounds->k,
                                        g.out_degree(static_cast<NodeID>(v)));
    const auto final_links =
        static_cast<std::int64_t>(report.counters.link_calls) - sampled;
    const auto skipped =
        static_cast<std::int64_t>(report.counters.phase3_edges_skipped);
    EXPECT_EQ(sampled + final_links + skipped, g.num_stored_edges())
        << in.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Cells, DriverMatrix,
                         ::testing::ValuesIn(driver_cells()),
                         [](const auto& info) { return info.param.name; });

}  // namespace
}  // namespace afforest
