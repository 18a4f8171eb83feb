// Differential deletion oracle for DynamicCC (the decremental serving
// engine): every scenario interleaves insert and delete batches, and after
// EVERY batch the engine's live labels are compared against a from-scratch
// union-find recompute over the surviving edge set.  Labels must match
// exactly (both sides use the min-vertex-id convention), so this checks
// label exactness, not just partition equivalence.
//
// The corpus spans the generator families of tests/fuzz/fuzz_common.hpp —
// including the bridge-heavy shapes (road / lattice-sparse grids,
// path-reversed and star-reversed trees) where almost every deletion cuts a
// tree edge and forces a rebuild, the regime the spanning-forest
// certification is easiest to get wrong.
//
// Teeth: the last test flips DynamicCC's deliberate mis-certification knob
// (every last-copy deletion treated as free, tree edges included) and
// asserts the oracle CATCHES it on a bridge-heavy input — proving the suite
// fails when the certification is broken, not just passing by vacuity.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "cc/union_find.hpp"
#include "graph/edge_list.hpp"
#include "serve/dynamic_cc.hpp"
#include "util/rng.hpp"

#include "fuzz/fuzz_common.hpp"

namespace afforest {
namespace {

using NodeID = std::int32_t;
using Engine = serve::DynamicCC<NodeID>;

/// Replays `in.edges` as insert batches, then deletes the whole list again
/// in seeded shuffled order (every edge deleted → bridge cuts guaranteed),
/// comparing live labels against the from-scratch oracle after every batch.
/// Returns the total DeleteStats so callers can assert on classification.
serve::DeleteStats run_insert_then_delete(const fuzz::FuzzInput& in,
                                          std::size_t batch_size,
                                          Engine& engine) {
  std::map<std::pair<NodeID, NodeID>, std::uint32_t> surviving;
  const auto check = [&](const char* when, std::size_t batch_index) {
    EdgeList<NodeID> edges;
    for (const auto& [key, copies] : surviving)
      edges.push_back({key.first, key.second});
    const auto oracle = union_find_cc(edges, in.num_nodes);
    const auto live = engine.live_labels();
    for (std::int64_t v = 0; v < in.num_nodes; ++v)
      ASSERT_EQ(live[static_cast<std::size_t>(v)],
                oracle[static_cast<std::size_t>(v)])
          << in.family << " seed=" << in.seed << ": label of vertex " << v
          << " diverged after " << when << " batch " << batch_index;
  };

  for (std::size_t start = 0; start < in.edges.size(); start += batch_size) {
    const std::size_t stop = std::min(in.edges.size(), start + batch_size);
    EdgeList<NodeID> batch;
    for (std::size_t i = start; i < stop; ++i) {
      batch.push_back(in.edges[i]);
      ++surviving[std::pair<NodeID, NodeID>(
          std::minmax(in.edges[i].u, in.edges[i].v))];
    }
    engine.apply_inserts(batch);
    check("insert", start / batch_size);
  }

  // Seeded shuffle; every inserted edge gets deleted exactly once.
  EdgeList<NodeID> doomed = in.edges.clone();
  Xoshiro256 rng(in.seed * 2654435761u + 17);
  for (std::size_t i = doomed.size(); i > 1; --i)
    std::swap(doomed[i - 1], doomed[rng.next_bounded(i)]);

  serve::DeleteStats total;
  for (std::size_t start = 0; start < doomed.size(); start += batch_size) {
    const std::size_t stop = std::min(doomed.size(), start + batch_size);
    EdgeList<NodeID> batch;
    for (std::size_t i = start; i < stop; ++i) {
      batch.push_back(doomed[i]);
      const std::pair<NodeID, NodeID> key(std::minmax(doomed[i].u, doomed[i].v));
      const auto it = surviving.find(key);
      EXPECT_NE(it, surviving.end());
      if (it != surviving.end() && --(it->second) == 0) surviving.erase(it);
    }
    total += engine.apply_deletes(batch);
    check("delete", start / batch_size);
  }
  EXPECT_TRUE(surviving.empty());
  return total;
}

class DynamicDifferential : public ::testing::TestWithParam<std::string> {};

TEST_P(DynamicDifferential, InsertThenDeleteAllMatchesOracle) {
  const std::string family = GetParam();
  const int scale = 6;
  for (const std::uint64_t seed : {1u, 7u, 23u}) {
    const auto in = fuzz::make_fuzz_input(family, scale, seed);
    Engine engine(in.num_nodes);
    const auto stats = run_insert_then_delete(in, /*batch_size=*/24, engine);
    EXPECT_EQ(stats.absent, 0u) << family << " seed=" << seed;
    // Everything was deleted: the graph must be fully torn down.
    EXPECT_EQ(engine.num_edges(), 0);
    EXPECT_EQ(engine.num_tree_edges(), 0);
  }
}

// >= 8 families, including the bridge-heavy shapes (grids and trees).
INSTANTIATE_TEST_SUITE_P(
    Families, DynamicDifferential,
    ::testing::Values("road", "lattice-sparse", "kron", "urand", "smallworld",
                      "component-mix", "path-reversed", "star-reversed",
                      "self-loops", "multi-edges"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

TEST(DynamicDifferential, MixedScriptsMatchOracle) {
  // The fuzz-style interleaved scripts (inserts and deletes mixed within
  // the stream, absent deletions included) across several families/seeds.
  for (const std::string family :
       {"road", "urand", "path-reversed", "multi-edges"}) {
    for (const std::uint64_t seed : {3u, 11u}) {
      const auto in = fuzz::make_dynamic_input(family, /*scale=*/6, seed);
      EXPECT_FALSE(
          fuzz::dynamic_disagrees(in.ops, in.num_nodes, in.batch_size))
          << family << " seed=" << seed;
    }
  }
}

TEST(DynamicDifferential, BridgeHeavyTeethCheck) {
  // Break the non-tree-edge certification on purpose (every last-copy
  // deletion certified free, tree edges included).  On a bridge-heavy
  // input — a path, where EVERY edge is a tree edge — the oracle must
  // catch the resulting stale labels.  This is the suite's teeth: if this
  // test fails, the differential comparison could not detect a broken
  // certification and proves nothing.
  const auto in = fuzz::make_dynamic_input("path-reversed", /*scale=*/6,
                                           /*seed=*/5);
  EXPECT_TRUE(fuzz::dynamic_disagrees(in.ops, in.num_nodes, in.batch_size,
                                      /*break_certification=*/true));

  // Same knob, grid family (bridges + cycles mixed): still caught.
  const auto grid = fuzz::make_dynamic_input("lattice-sparse", /*scale=*/6,
                                             /*seed=*/9);
  EXPECT_TRUE(fuzz::dynamic_disagrees(grid.ops, grid.num_nodes,
                                      grid.batch_size,
                                      /*break_certification=*/true));
}

TEST(DynamicDifferential, PublishedSnapshotsTrackLiveLabels) {
  // The read plane serves what the writer computed: after each
  // apply+publish round, published labels == live labels and agree with
  // the oracle.
  const auto in = fuzz::make_fuzz_input("urand", /*scale=*/6, /*seed=*/41);
  Engine engine(in.num_nodes);
  const std::size_t batch_size = 64;
  for (std::size_t start = 0; start < in.edges.size(); start += batch_size) {
    const std::size_t stop = std::min(in.edges.size(), start + batch_size);
    EdgeList<NodeID> batch;
    for (std::size_t i = start; i < stop; ++i) batch.push_back(in.edges[i]);
    engine.apply_inserts(batch);
    engine.publish();
    engine.apply_deletes(batch);  // tear the same batch straight back down
    engine.publish();
    const auto live = engine.live_labels();
    const auto published = engine.labels();
    ASSERT_EQ(live.size(), published.size());
    for (std::size_t v = 0; v < live.size(); ++v)
      ASSERT_EQ(live[v], published[v]);
  }
  // Net effect of insert-then-delete per batch: empty graph.
  EXPECT_EQ(engine.num_edges(), 0);
  EXPECT_EQ(engine.component_count(), in.num_nodes);
}

}  // namespace
}  // namespace afforest
