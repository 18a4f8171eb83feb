// Typed guard for vertex counts that do not fit the label type.
//
// A NodeID_ labels vertex ids [0, n); when n - 1 exceeds its maximum the ids
// wrap (negative labels that later index arrays), so every constructor that
// sizes id-indexed storage calls check_label_width first.  Lives in graph/
// because the builder is the first such constructor; cc/common.hpp
// re-exports it for the kernels and the serving engines.
#pragma once

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

namespace afforest {

/// Typed rejection of a vertex count that does not fit the label type:
/// a kernel asked to label n vertices with a NodeID_ whose max is below
/// n - 1 would silently truncate ids (the int32 ceiling bug this class
/// was introduced to fix in dist/partitioned_cc).  Derives from
/// std::overflow_error; carries the structured fields so callers pick a
/// wider label type instead of parsing the message.
class LabelWidthError : public std::overflow_error {
 public:
  LabelWidthError(const std::string& context, std::int64_t num_nodes,
                  std::int64_t max_label)
      : std::overflow_error(context + ": " + std::to_string(num_nodes) +
                            " vertices do not fit the label type (max id " +
                            std::to_string(max_label) +
                            "); instantiate with a wider NodeID_"),
        num_nodes_(num_nodes),
        max_label_(max_label) {}

  [[nodiscard]] std::int64_t num_nodes() const { return num_nodes_; }
  [[nodiscard]] std::int64_t max_label() const { return max_label_; }

 private:
  std::int64_t num_nodes_;
  std::int64_t max_label_;
};

namespace detail {
/// The throwing half of check_label_width, kept out of line and cold so
/// the guard adds only two compares to the constructors it is inlined into.
[[noreturn, gnu::cold, gnu::noinline]] inline void reject_vertex_count(
    const char* context, std::int64_t num_nodes, std::int64_t max_label) {
  if (num_nodes < 0)
    throw std::invalid_argument(std::string(context) +
                                ": negative vertex count " +
                                std::to_string(num_nodes));
  throw LabelWidthError(context, num_nodes, max_label);
}
}  // namespace detail

/// Validates that every id in [0, num_nodes) is representable as NodeID_:
/// throws std::invalid_argument for a negative count and LabelWidthError
/// tagged with `context` above the label width.  Call before allocating
/// labels so the failure is a typed error, not a truncated id.  Returns
/// num_nodes so constructors can guard their first member initializer.
template <typename NodeID_>
std::int64_t check_label_width(const char* context, std::int64_t num_nodes) {
  constexpr std::int64_t max_label =
      static_cast<std::int64_t>(std::numeric_limits<NodeID_>::max());
  if (num_nodes < 0 || num_nodes - 1 > max_label)
    detail::reject_vertex_count(context, num_nodes, max_label);
  return num_nodes;
}

}  // namespace afforest
