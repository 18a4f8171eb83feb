#include "cc/registry.hpp"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "cc/union_find.hpp"
#include "cc/verifier.hpp"
#include "graph/builder.hpp"
#include "graph/generators/suite.hpp"
#include "graph/generators/uniform.hpp"

namespace afforest {
namespace {

TEST(Registry, ContainsExpectedAlgorithms) {
  for (const auto& name : {"afforest", "afforest-noskip", "sv", "sv-edgelist",
                           "lp", "lp-frontier", "bfs", "dobfs", "serial-uf"})
    EXPECT_TRUE(is_cc_algorithm(name)) << name;
}

TEST(Registry, NamesAreUnique) {
  std::set<std::string> names;
  for (const auto& a : cc_algorithms()) names.insert(a.name);
  EXPECT_EQ(names.size(), cc_algorithms().size());
}

TEST(Registry, DescriptionsNonEmpty) {
  for (const auto& a : cc_algorithms()) EXPECT_FALSE(a.description.empty());
}

TEST(Registry, LookupReturnsMatchingEntry) {
  EXPECT_EQ(cc_algorithm("sv").name, "sv");
}

TEST(Registry, UnknownNameThrows) {
  EXPECT_THROW(cc_algorithm("quantum-cc"), std::invalid_argument);
  EXPECT_FALSE(is_cc_algorithm("quantum-cc"));
}

TEST(Registry, UnknownNameMessageNamesTheAlgorithm) {
  // The CLI surfaces this message verbatim; it must identify the input.
  try {
    cc_algorithm("quantum-cc");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("quantum-cc"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(cc_algorithm(""), std::invalid_argument);
  EXPECT_THROW(cc_algorithm("AFFOREST"), std::invalid_argument)
      << "lookup must be case-sensitive";
}

TEST(Registry, PaperFigureOrder) {
  // cc_algorithms() documents its order as the one the paper's figures use;
  // bench tables and report scripts index into it, so it is an API.
  const std::vector<std::string> expected = {
      "afforest", "afforest-noskip", "sv",        "sv-original",
      "sv-edgelist", "lp",           "lp-frontier", "bfs",
      "dobfs",    "multistep",       "contraction", "rem",
      "rem-parallel", "serial-uf"};
  ASSERT_EQ(cc_algorithms().size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_EQ(cc_algorithms()[i].name, expected[i]) << "position " << i;
}

TEST(Registry, RunCallablesAreBound) {
  for (const auto& a : cc_algorithms())
    EXPECT_TRUE(static_cast<bool>(a.run)) << a.name;
}

TEST(Registry, NamesAreCliSafe) {
  // Names are used directly as CLI flag values and in reproducer file
  // names: lowercase alphanumerics and dashes only.
  for (const auto& a : cc_algorithms()) {
    EXPECT_FALSE(a.name.empty());
    for (const char c : a.name)
      EXPECT_TRUE((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                  c == '-')
          << a.name << " contains '" << c << "'";
  }
}

TEST(Registry, EveryAlgorithmRunsCorrectly) {
  const Graph g = make_suite_graph("twitter", 10);
  const auto truth = union_find_cc(g);
  for (const auto& a : cc_algorithms())
    EXPECT_TRUE(labels_equivalent(a.run(g), truth)) << a.name;
}

TEST(Registry, DirectedInputsGetCorrectLabelsOrATypedRefusal) {
  // Weakly connected components of a directed graph: an entry either
  // matches the union-find of the symmetrized graph or, if its kernel needs
  // symmetric storage, throws std::invalid_argument naming itself.  No
  // entry may return wrong labels.
  const std::set<std::string> symmetric_only = {
      "sv-edgelist", "lp",        "lp-frontier", "bfs",
      "dobfs",       "multistep", "contraction"};
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto edges = generate_uniform_edges<std::int32_t>(300, 300, seed);
    const Graph g = build_directed(edges, 300);
    const auto truth = union_find_cc(edges, 300);
    for (const auto& a : cc_algorithms()) {
      const bool refuses = symmetric_only.count(a.name) != 0;
      try {
        const auto labels = a.run(g);
        EXPECT_FALSE(refuses) << a.name << " did not refuse";
        EXPECT_TRUE(labels_equivalent(labels, truth))
            << a.name << " seed " << seed;
      } catch (const std::invalid_argument& e) {
        EXPECT_TRUE(refuses) << a.name << ": " << e.what();
        EXPECT_NE(std::string(e.what()).find(a.name), std::string::npos)
            << e.what();
      }
    }
  }
}

TEST(Registry, AfforestListedFirst) {
  // The paper's headline algorithm leads every report.
  EXPECT_EQ(cc_algorithms().front().name, "afforest");
}

}  // namespace
}  // namespace afforest
