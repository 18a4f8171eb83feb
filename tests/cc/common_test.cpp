// Unit tests for the shared cc/ helpers: count_components over degenerate
// label vectors (the unordered_map-where-a-set-was-meant regression) and
// the typed label-width guard.
#include "cc/common.hpp"

#include <gtest/gtest.h>

#include <cstdint>

namespace afforest {
namespace {

using NodeID = std::int32_t;

TEST(CountComponents, EmptyLabelVector) {
  const ComponentLabels<NodeID> comp;
  EXPECT_EQ(count_components(comp), 0);
}

TEST(CountComponents, Singleton) {
  ComponentLabels<NodeID> comp(1);
  comp[0] = 0;
  EXPECT_EQ(count_components(comp), 1);
}

TEST(CountComponents, AllIsolated) {
  const std::int64_t n = 1000;
  ComponentLabels<NodeID> comp(static_cast<std::size_t>(n));
  for (std::int64_t v = 0; v < n; ++v) comp[v] = static_cast<NodeID>(v);
  EXPECT_EQ(count_components(comp), n);
}

TEST(CountComponents, OneGiantComponent) {
  ComponentLabels<NodeID> comp(64);
  for (std::size_t v = 0; v < comp.size(); ++v) comp[v] = 0;
  EXPECT_EQ(count_components(comp), 1);
}

TEST(CountComponents, MixedLabels) {
  ComponentLabels<NodeID> comp{0, 0, 2, 2, 4, 0};
  EXPECT_EQ(count_components(comp), 3);
}

TEST(CheckLabelWidth, AcceptsWidestRepresentableShape) {
  // n - 1 == max id is the boundary: int16 labels hold exactly 32768 ids.
  EXPECT_NO_THROW(check_label_width<std::int16_t>("test", 32768));
  EXPECT_NO_THROW(check_label_width<std::int16_t>("test", 0));
  EXPECT_NO_THROW(check_label_width<std::int32_t>("test", std::int64_t{1}
                                                              << 31));
}

TEST(CheckLabelWidth, RejectsOneOverWithStructuredFields) {
  try {
    check_label_width<std::int16_t>("unit", 32769);
    FAIL() << "expected LabelWidthError";
  } catch (const LabelWidthError& e) {
    EXPECT_EQ(e.num_nodes(), 32769);
    EXPECT_EQ(e.max_label(), 32767);
    EXPECT_NE(std::string(e.what()).find("unit"), std::string::npos);
  }
  EXPECT_THROW(
      check_label_width<std::int32_t>("unit", (std::int64_t{1} << 31) + 1),
      LabelWidthError);
}

TEST(CheckLabelWidth, RejectsNegativeCountAndReturnsValidOne) {
  EXPECT_THROW(check_label_width<std::int32_t>("unit", -1),
               std::invalid_argument);
  EXPECT_EQ(check_label_width<std::int16_t>("unit", 32768), 32768);
}

TEST(CheckLabelWidth, DerivesFromOverflowError) {
  // Pre-existing catch sites on std::overflow_error keep working.
  EXPECT_THROW(check_label_width<std::int16_t>("unit", 1 << 20),
               std::overflow_error);
}

}  // namespace
}  // namespace afforest
