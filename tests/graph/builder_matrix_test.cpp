// Builder differential matrix: every BuilderOptions cell × OpenMP team sizes
// {1, 2, 3, 4, 7} × a corpus of messy inputs, each build checked for CSR
// structure and compared byte for byte against a serial reference that
// sorts all (row, value) pairs, removes duplicates and lays out the CSR.
//
// Cells with unsorted rows are first compared row by row as multisets; the
// byte comparison then pins the order the builder promises for them: every
// row lists its entries in edge-list order, identical at every team size.
// Directed cells with in-edges compare the inverse arrays too.
//
// Inputs: the randomized messy edge lists (the BuilderFuzz suites), the
// fuzz corpus families at scales {0, 2, 9}, and hand-built corner shapes —
// an empty list, vertices without edges, all self loops, all duplicates, a
// star whose hub row holds more than half the entries, and fewer vertices
// than threads.  Long-row shapes drive the radix sort: rows at its cutoff,
// ids needing one, two and three digit passes (odd counts end in scratch),
// a directed in-star through Builder::invert, a row past the scratch cap,
// and int16 / int64 ids.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "fuzz/fuzz_common.hpp"
#include "graph/builder.hpp"
#include "util/platform.hpp"
#include "util/rng.hpp"

namespace afforest {
namespace {

using NodeID = std::int32_t;
using OffsetT = std::int64_t;

constexpr int kTeamSizes[] = {1, 2, 3, 4, 7};

/// Every valid BuilderOptions combination (remove_duplicates requires
/// sort_neighbors, so 24 of the 32 bit patterns).
std::vector<BuilderOptions> all_option_cells() {
  std::vector<BuilderOptions> cells;
  for (int bits = 0; bits < 32; ++bits) {
    BuilderOptions o;
    o.symmetrize = (bits & 1) != 0;
    o.sort_neighbors = (bits & 2) != 0;
    o.remove_self_loops = (bits & 4) != 0;
    o.remove_duplicates = (bits & 8) != 0;
    o.build_in_edges = (bits & 16) != 0;
    if (o.remove_duplicates && !o.sort_neighbors) continue;
    cells.push_back(o);
  }
  return cells;
}

std::string describe(const BuilderOptions& o) {
  return std::string("symmetrize=") + (o.symmetrize ? "1" : "0") +
         " sort=" + (o.sort_neighbors ? "1" : "0") +
         " drop_loops=" + (o.remove_self_loops ? "1" : "0") +
         " dedup=" + (o.remove_duplicates ? "1" : "0") +
         " in_edges=" + (o.build_in_edges ? "1" : "0");
}

template <typename Id = NodeID>
struct ReferenceRows {
  std::vector<OffsetT> offsets;
  std::vector<Id> neighbors;
};

template <typename Id = NodeID>
using Pairs = std::vector<std::pair<Id, Id>>;

template <typename Id>
ReferenceRows<Id> lay_out(const Pairs<Id>& sorted_pairs, std::int64_t n) {
  ReferenceRows<Id> rows;
  rows.offsets.assign(static_cast<std::size_t>(n) + 1, 0);
  for (const auto& [row, value] : sorted_pairs) {
    ++rows.offsets[static_cast<std::size_t>(row) + 1];
    rows.neighbors.push_back(value);
  }
  for (std::size_t v = 0; v < static_cast<std::size_t>(n); ++v)
    rows.offsets[v + 1] += rows.offsets[v];
  return rows;
}

template <typename Id = NodeID>
struct ReferenceCSR {
  ReferenceRows<Id> out;
  ReferenceRows<Id> in;  ///< directed cells with in-edges only
};

/// Serial reference.  Entries are listed in edge-list order; sorted cells
/// sort all pairs, unsorted cells sort stably by row alone, which leaves
/// each row in edge-list order.  In-rows are always sorted.
template <typename Id>
ReferenceCSR<Id> reference_csr(const EdgeList<Id>& edges, std::int64_t n,
                               const BuilderOptions& o) {
  Pairs<Id> pairs;
  for (const auto& [u, v] : edges) {
    if (o.remove_self_loops && u == v) continue;
    pairs.emplace_back(u, v);
    if (o.symmetrize) pairs.emplace_back(v, u);
  }
  if (o.sort_neighbors)
    std::sort(pairs.begin(), pairs.end());
  else
    std::stable_sort(pairs.begin(), pairs.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
  if (o.remove_duplicates)
    pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());

  ReferenceCSR<Id> ref;
  ref.out = lay_out(pairs, n);
  if (!o.symmetrize && o.build_in_edges) {
    Pairs<Id> inverse;
    for (const auto& [u, v] : pairs) inverse.emplace_back(v, u);
    std::sort(inverse.begin(), inverse.end());
    ref.in = lay_out(inverse, n);
  }
  return ref;
}

template <typename T>
std::vector<T> to_vector(const pvector<T>& p) {
  return std::vector<T>(p.begin(), p.end());
}

/// Offsets start at 0, never decrease and end at the entry count; every id
/// is in range; no self loop survives when they are dropped; deduplicated
/// rows are strictly increasing, sorted rows non-decreasing.
template <typename Id>
void expect_structure(const CSRGraph<Id>& g, const BuilderOptions& o) {
  const std::int64_t n = g.num_nodes();
  const auto& off = g.offsets();
  ASSERT_EQ(static_cast<std::int64_t>(off.size()), n + 1);
  ASSERT_EQ(off[0], 0);
  ASSERT_EQ(off[n], g.num_stored_edges());
  for (std::int64_t v = 0; v < n; ++v) {
    ASSERT_LE(off[v], off[v + 1]) << "offsets decrease at " << v;
    const auto row = g.out_neigh(static_cast<Id>(v));
    for (const Id* w = row.begin(); w != row.end(); ++w) {
      ASSERT_GE(*w, 0);
      ASSERT_LT(*w, n);
      if (o.remove_self_loops) {
        ASSERT_NE(*w, static_cast<Id>(v)) << "self loop survived at " << v;
      }
      if (w == row.begin()) continue;
      if (o.remove_duplicates) {
        ASSERT_GT(*w, *(w - 1)) << "row not strictly sorted (dup?) at " << v;
      } else if (o.sort_neighbors) {
        ASSERT_GE(*w, *(w - 1)) << "row not sorted at " << v;
      }
    }
  }
}

template <typename Id>
void expect_rows_equal_as_multisets(const CSRGraph<Id>& g,
                                    const ReferenceRows<Id>& ref) {
  for (std::int64_t v = 0; v < g.num_nodes(); ++v) {
    const auto row = g.out_neigh(static_cast<Id>(v));
    std::vector<Id> got(row.begin(), row.end());
    std::vector<Id> want(
        ref.neighbors.begin() + ref.offsets[static_cast<std::size_t>(v)],
        ref.neighbors.begin() + ref.offsets[static_cast<std::size_t>(v) + 1]);
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    ASSERT_EQ(got, want) << "row " << v << " holds different entries";
  }
}

template <typename Id>
std::vector<OffsetT> in_offsets_of(const CSRGraph<Id>& g) {
  std::vector<OffsetT> offsets{0};
  for (std::int64_t v = 0; v < g.num_nodes(); ++v)
    offsets.push_back(offsets.back() + g.in_degree(static_cast<Id>(v)));
  return offsets;
}

template <typename Id>
std::vector<Id> in_neighbors_of(const CSRGraph<Id>& g) {
  std::vector<Id> neighbors;
  for (std::int64_t v = 0; v < g.num_nodes(); ++v)
    for (Id u : g.in_neigh(static_cast<Id>(v))) neighbors.push_back(u);
  return neighbors;
}

/// Restores the OpenMP team size on scope exit.
class ScopedTeam {
 public:
  ScopedTeam() : original_(num_threads()) {}
  ~ScopedTeam() { set_num_threads(original_); }
  ScopedTeam(const ScopedTeam&) = delete;
  ScopedTeam& operator=(const ScopedTeam&) = delete;

 private:
  int original_;
};

/// The whole matrix on one input: every option cell (or the given ones) at
/// every team size.
template <typename Id>
void expect_matrix_matches_reference(
    const EdgeList<Id>& edges, std::int64_t n,
    const std::vector<BuilderOptions>& cells = all_option_cells()) {
  const ScopedTeam restore;
  for (const BuilderOptions& o : cells) {
    const ReferenceCSR<Id> ref = reference_csr(edges, n, o);
    for (int team : kTeamSizes) {
      SCOPED_TRACE(describe(o) + " team=" + std::to_string(team));
      set_num_threads(team);
      const CSRGraph<Id> g = Builder<Id>(o).build(edges, n);
      ASSERT_EQ(g.num_nodes(), n);
      ASSERT_EQ(g.directed(), !o.symmetrize);
      ASSERT_NO_FATAL_FAILURE(expect_structure(g, o));
      ASSERT_EQ(to_vector(g.offsets()), ref.out.offsets);
      if (!o.sort_neighbors) {
        ASSERT_NO_FATAL_FAILURE(expect_rows_equal_as_multisets(g, ref.out));
      }
      ASSERT_EQ(to_vector(g.neighbors()), ref.out.neighbors)
          << (o.sort_neighbors ? "sorted rows differ"
                               : "unsorted rows left edge-list order");
      if (o.symmetrize) continue;
      ASSERT_EQ(g.has_in_edges(), o.build_in_edges);
      if (!o.build_in_edges) continue;
      ASSERT_EQ(in_offsets_of(g), ref.in.offsets);
      ASSERT_EQ(in_neighbors_of(g), ref.in.neighbors);
    }
  }
}

// ---- randomized messy edge lists (the BuilderFuzz inputs) -----------------

EdgeList<NodeID> random_messy_edges(std::int64_t n, std::int64_t m,
                                    std::uint64_t seed) {
  Xoshiro256 rng(seed);
  EdgeList<NodeID> edges;
  edges.reserve(static_cast<std::size_t>(m));
  for (std::int64_t i = 0; i < m; ++i) {
    const auto u = static_cast<NodeID>(rng.next_bounded(n));
    // Skew: 30% of edges touch vertex 0, 10% are self loops, 20% repeat
    // the previous edge.
    const double r = rng.next_double();
    if (r < 0.2 && !edges.empty()) {
      edges.push_back(edges.back());
    } else if (r < 0.3) {
      edges.push_back({u, u});
    } else if (r < 0.6) {
      edges.push_back({0, u});
    } else {
      edges.push_back({u, static_cast<NodeID>(rng.next_bounded(n))});
    }
  }
  return edges;
}

class BuilderFuzz : public ::testing::TestWithParam<int> {};

TEST_P(BuilderFuzz, MatchesNaiveReference) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  expect_matrix_matches_reference(random_messy_edges(200, 600, seed), 200);
}

TEST_P(BuilderFuzz, StructuralInvariantsHold) {
  const auto seed = static_cast<std::uint64_t>(GetParam()) + 1000;
  expect_matrix_matches_reference(random_messy_edges(300, 900, seed), 300);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BuilderFuzz, ::testing::Range(0, 12));

// ---- fuzz corpus families --------------------------------------------------

using CorpusCell = std::tuple<std::string, int>;  // (family, scale)

class BuilderMatrix : public ::testing::TestWithParam<CorpusCell> {};

TEST_P(BuilderMatrix, CorpusMatchesSerialReference) {
  const auto& [family, scale] = GetParam();
  const fuzz::FuzzInput in = fuzz::make_fuzz_input(family, scale, 1);
  expect_matrix_matches_reference(in.edges, in.num_nodes);
}

INSTANTIATE_TEST_SUITE_P(
    BuilderCorpus, BuilderMatrix,
    ::testing::Combine(::testing::ValuesIn(fuzz::fuzz_families()),
                       ::testing::Values(0, 2, 9)),
    [](const ::testing::TestParamInfo<CorpusCell>& info) {
      std::string name = std::get<0>(info.param) + "_s" +
                         std::to_string(std::get<1>(info.param));
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

// ---- corner shapes ---------------------------------------------------------

TEST(BuilderMatrixShapes, EmptyEdgeList) {
  expect_matrix_matches_reference(EdgeList<NodeID>{}, 0);
}

TEST(BuilderMatrixShapes, VerticesWithoutEdges) {
  expect_matrix_matches_reference(EdgeList<NodeID>{}, 50);
}

TEST(BuilderMatrixShapes, AllSelfLoops) {
  EdgeList<NodeID> edges;
  for (NodeID round = 0; round < 3; ++round)
    for (NodeID v = 0; v < 40; ++v) edges.push_back({v, v});
  expect_matrix_matches_reference(edges, 40);
}

TEST(BuilderMatrixShapes, AllDuplicates) {
  EdgeList<NodeID> edges;
  for (int copy = 0; copy < 64; ++copy) edges.push_back({3, 11});
  for (int copy = 0; copy < 64; ++copy) edges.push_back({11, 3});
  expect_matrix_matches_reference(edges, 16);
}

TEST(BuilderMatrixShapes, StarHubHoldsMostEntries) {
  // The hub sits mid-range so several owner-range boundaries land inside
  // its row.  Its self loops push it past half the entries in the cells
  // that keep loops; directed cells put every entry in the hub row.
  const NodeID n = 301;
  const NodeID hub = n / 2;
  EdgeList<NodeID> edges;
  for (NodeID v = 0; v < n; ++v)
    if (v != hub) edges.push_back({hub, v});
  for (int loop = 0; loop < 100; ++loop) edges.push_back({hub, hub});
  expect_matrix_matches_reference(edges, n);
}

TEST(BuilderMatrixShapes, FewerVerticesThanThreads) {
  expect_matrix_matches_reference(EdgeList<NodeID>{{0, 1}, {1, 0}, {1, 1}},
                                  2);
  expect_matrix_matches_reference(EdgeList<NodeID>{{0, 0}}, 1);
}

TEST(BuilderMatrixShapes, UnsortedRowsKeepEdgeListOrder) {
  // Spelled out once by hand: with sort_neighbors = false each row lists
  // its entries in the order the edge list produces them.
  const EdgeList<NodeID> edges{{0, 3}, {2, 0}, {0, 1}, {3, 0}, {0, 1}};
  BuilderOptions o;
  o.sort_neighbors = false;
  o.remove_duplicates = false;
  const ScopedTeam restore;
  for (int team : kTeamSizes) {
    set_num_threads(team);
    const Graph g = Builder<NodeID>(o).build(edges, 4);
    const auto row0 = g.out_neigh(0);
    EXPECT_EQ(std::vector<NodeID>(row0.begin(), row0.end()),
              (std::vector<NodeID>{3, 2, 1, 3, 1}))
        << "team=" << team;
    const auto row3 = g.out_neigh(3);
    EXPECT_EQ(std::vector<NodeID>(row3.begin(), row3.end()),
              (std::vector<NodeID>{0, 0}))
        << "team=" << team;
  }
}

// ---- long rows: the radix sort ----------------------------------------------

constexpr std::size_t kCutoff = Builder<NodeID>::kRadixSortMinRow;

/// Appends `len` edges (hub, x) per hub, x drawn with repeats from
/// [low, n) minus the hubs.  No entry is a self loop and none lands in
/// another hub's row, so each hub row holds exactly `len` entries in every
/// option cell when it is sorted (duplicates go only after the sort), in
/// random order.
template <typename Id>
void add_hub_rows(EdgeList<Id>& edges, std::int64_t n,
                  const std::vector<Id>& hubs, std::size_t len,
                  std::uint64_t seed, std::int64_t low = 0) {
  Xoshiro256 rng(seed);
  const auto range = static_cast<std::uint64_t>(n - low);
  for (std::size_t k = 0; k < len; ++k)
    for (const Id hub : hubs) {
      Id x = hub;
      while (std::find(hubs.begin(), hubs.end(), x) != hubs.end())
        x = static_cast<Id>(low + static_cast<std::int64_t>(
                                      rng.next_bounded(range)));
      edges.push_back({hub, x});
    }
}

/// The sorted cells that drop loops and build in-edges, directed or not,
/// deduplicated or not: the radix sort's cells, without the |V|-sized cost
/// of all 24 on inputs with millions of vertices.
std::vector<BuilderOptions> sorted_cells() {
  std::vector<BuilderOptions> cells;
  for (const bool symmetrize : {true, false})
    for (const bool dedup : {true, false}) {
      BuilderOptions o;
      o.symmetrize = symmetrize;
      o.remove_duplicates = dedup;
      cells.push_back(o);
    }
  return cells;
}

TEST(BuilderMatrixShapes, RowsAroundTheRadixCutoff) {
  // Hubs 64+ rows apart land in different chunks of the dynamic row
  // schedule, so several threads sort through their own scratch slices.
  // 1,500 vertices take one digit pass (the row ends in scratch), 5,000
  // take two.
  for (const std::int64_t n : {1500, 5000}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const std::vector<NodeID> hubs{3, 700, static_cast<NodeID>(n - 100)};
    for (const std::size_t len : {kCutoff - 1, kCutoff, kCutoff + 1}) {
      SCOPED_TRACE("len=" + std::to_string(len));
      EdgeList<NodeID> edges;
      add_hub_rows(edges, n, hubs, len, len);
      expect_matrix_matches_reference(edges, n);
    }
  }
}

TEST(BuilderMatrixShapes, HubRowsNeedTwoDigitPasses) {
  // Ids below 2^17: two 11-bit passes, ending back in the row.
  const std::int64_t n = 100'003;
  EdgeList<NodeID> edges;
  add_hub_rows<NodeID>(edges, n, {0, 40'000, 99'999}, 3000, 1);
  add_hub_rows<NodeID>(edges, n, {77, 50'000}, 700, 2);
  expect_matrix_matches_reference(edges, n);
}

TEST(BuilderMatrixShapes, HubRowsNeedThreeDigitPasses) {
  // Just above 2^22 vertices, ids need 23 bits: three passes leave the
  // sorted row in scratch, to be copied back.  Half of each hub row's ids
  // sit above 2^22, so the top digit orders them too.
  const std::int64_t top = std::int64_t{1} << 22;
  const std::int64_t n = top + 4099;
  const std::vector<NodeID> hubs{5, 2'000'000, static_cast<NodeID>(top + 7)};
  EdgeList<NodeID> edges;
  add_hub_rows(edges, n, hubs, 400, 3);
  add_hub_rows(edges, n, hubs, 400, 4, top);
  expect_matrix_matches_reference(edges, n, sorted_cells());
}

TEST(BuilderMatrixShapes, DirectedInStarGoesThroughInvert) {
  // Every arc points at the hub: directed cells give it a long in-row that
  // Builder::invert fills, owner-computes, from the sorted out-rows.
  const std::int64_t n = 5000;
  const NodeID hub = 2500;
  Xoshiro256 rng(5);
  EdgeList<NodeID> edges;
  for (int k = 0; k < 4000; ++k) {
    const auto x = static_cast<NodeID>(rng.next_bounded(n));
    if (x != hub) edges.push_back({x, hub});
  }
  expect_matrix_matches_reference(edges, n);
}

TEST(BuilderMatrixShapes, RowPastTheScratchCapKeepsStdSort) {
  // One row longer than kRadixScratchMaxRow beside one the radix sort
  // takes: the scratch is sized to the shorter row, so the long one must
  // not go through it.  Two sorted cells keep the million-entry reference
  // affordable.
  const std::int64_t n = 5000;
  EdgeList<NodeID> edges;
  add_hub_rows<NodeID>(edges, n, {100},
                       Builder<NodeID>::kRadixScratchMaxRow + 1, 6);
  add_hub_rows<NodeID>(edges, n, {4000}, 1000, 7);
  const std::vector<BuilderOptions> cells = sorted_cells();
  expect_matrix_matches_reference(edges, n, {cells[0], cells[3]});
}

TEST(BuilderMatrixShapes, LongRowsInNarrowIds) {
  // int16 ids: one pass below 2^11 vertices, two up to the 32,767 cap.
  using Narrow = std::int16_t;
  for (const std::int64_t n : {2000, 32'767}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    EdgeList<Narrow> edges;
    add_hub_rows<Narrow>(edges, n, {1, 900, static_cast<Narrow>(n - 1)},
                         1500, 8);
    expect_matrix_matches_reference(edges, n);
  }
}

TEST(BuilderMatrixShapes, LongRowsInWideIds) {
  using Wide = std::int64_t;
  for (const std::int64_t n : {2000, 5000}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    EdgeList<Wide> edges;
    add_hub_rows<Wide>(edges, n, {0, 1000, n - 1}, 1500, 9);
    expect_matrix_matches_reference(edges, n);
  }
}

}  // namespace
}  // namespace afforest
