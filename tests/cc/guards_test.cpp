// Convergence guards (src/cc/guards.hpp): the iteration ceilings threaded
// through Shiloach–Vishkin, label propagation, and Multistep.  A forced
// tiny ceiling (AFFOREST_MAX_ITER=1) must surface ConvergenceError with
// diagnostic context; the default structural ceiling must never fire on a
// terminating run.
#include "cc/guards.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "../support/scoped_env.hpp"
#include "cc/label_propagation.hpp"
#include "cc/multistep.hpp"
#include "cc/shiloach_vishkin.hpp"
#include "cc/union_find.hpp"
#include "cc/verifier.hpp"
#include "graph/builder.hpp"

namespace afforest {
namespace {

using ::afforest::testing::ScopedEnv;

EdgeList<std::int32_t> path_edges(std::int32_t n, std::int32_t base = 0) {
  EdgeList<std::int32_t> edges;
  for (std::int32_t v = 0; v + 1 < n; ++v)
    edges.push_back({static_cast<std::int32_t>(base + v),
                     static_cast<std::int32_t>(base + v + 1)});
  return edges;
}

TEST(IterationCeiling, DefaultIsStructural) {
  ScopedEnv env("AFFOREST_MAX_ITER", nullptr);
  EXPECT_EQ(iteration_ceiling(100), 264);
  EXPECT_EQ(iteration_ceiling(0), 64);
}

TEST(IterationCeiling, EnvOverrides) {
  ScopedEnv env("AFFOREST_MAX_ITER", "5");
  EXPECT_EQ(iteration_ceiling(1 << 20), 5);
}

TEST(IterationCeiling, ZeroDisables) {
  ScopedEnv env("AFFOREST_MAX_ITER", "0");
  EXPECT_EQ(iteration_ceiling(1 << 20),
            std::numeric_limits<std::int64_t>::max());
}

TEST(IterationCeiling, GarbageEnvFallsBackToStructural) {
  ScopedEnv env("AFFOREST_MAX_ITER", "banana");
  EXPECT_EQ(iteration_ceiling(100), 264);
}

TEST(ConvergenceGuard, ErrorCarriesDiagnostics) {
  try {
    check_convergence_guard("some_algo", 10, 9);
    FAIL() << "expected ConvergenceError";
  } catch (const ConvergenceError& e) {
    EXPECT_EQ(e.algorithm(), "some_algo");
    EXPECT_EQ(e.iterations(), 10);
    EXPECT_EQ(e.ceiling(), 9);
  }
  EXPECT_NO_THROW(check_convergence_guard("some_algo", 9, 9));
}

class ForcedCeilingTest : public ::testing::Test {
 protected:
  ForcedCeilingTest() : env_("AFFOREST_MAX_ITER", "1") {}
  // A path needs label information to travel multiple hops, so every
  // fixpoint loop requires > 1 iteration on it.
  const Graph g_ = build_undirected(path_edges(64), 64);
  ScopedEnv env_;
};

TEST_F(ForcedCeilingTest, ShiloachVishkinThrows) {
  try {
    shiloach_vishkin(g_);
    FAIL() << "expected ConvergenceError";
  } catch (const ConvergenceError& e) {
    EXPECT_EQ(e.algorithm(), "shiloach_vishkin");
    EXPECT_EQ(e.iterations(), 2);
    EXPECT_EQ(e.ceiling(), 1);
    // Kernel guards name the kernel knob.
    EXPECT_NE(std::string(e.what()).find("raise AFFOREST_MAX_ITER"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(ForcedCeilingTest, ShiloachVishkinOriginalThrows) {
  EXPECT_THROW(shiloach_vishkin_original(g_), ConvergenceError);
}

TEST_F(ForcedCeilingTest, ShiloachVishkinEdgelistThrows) {
  EXPECT_THROW(shiloach_vishkin_edgelist(path_edges(64), 64),
               ConvergenceError);
}

TEST_F(ForcedCeilingTest, LabelPropagationThrows) {
  EXPECT_THROW(label_propagation(g_), ConvergenceError);
}

TEST_F(ForcedCeilingTest, LabelPropagationFrontierThrows) {
  EXPECT_THROW(label_propagation_frontier(g_), ConvergenceError);
}

TEST_F(ForcedCeilingTest, MultistepThrows) {
  // Two path components: BFS closes the pivot's component in step 1, then
  // the min-label cleanup loop needs many rounds for the second path.
  auto edges = path_edges(32);
  for (const auto& e : path_edges(32, 32)) edges.push_back(e);
  const Graph two = build_undirected(edges, 64);
  EXPECT_THROW(multistep_cc(two), ConvergenceError);
}

TEST(ConvergenceGuardDefaults, AllGuardedAlgorithmsTerminateUnderDefault) {
  ScopedEnv env("AFFOREST_MAX_ITER", nullptr);
  const Graph g = build_undirected(path_edges(256), 256);
  const auto oracle = union_find_cc(g);
  EXPECT_TRUE(labels_equivalent(shiloach_vishkin(g), oracle));
  EXPECT_TRUE(labels_equivalent(shiloach_vishkin_original(g), oracle));
  EXPECT_TRUE(labels_equivalent(label_propagation(g), oracle));
  EXPECT_TRUE(labels_equivalent(label_propagation_frontier(g), oracle));
  EXPECT_TRUE(labels_equivalent(multistep_cc(g), oracle));
}

TEST(ConvergenceGuardDefaults, DisabledGuardStillTerminates) {
  ScopedEnv env("AFFOREST_MAX_ITER", "0");
  const Graph g = build_undirected(path_edges(64), 64);
  EXPECT_TRUE(labels_equivalent(shiloach_vishkin(g), union_find_cc(g)));
}

}  // namespace
}  // namespace afforest
