// Shared types and helpers for connected-components kernels.
//
// Every algorithm in cc/ has the same contract: it takes an undirected
// CSRGraph and returns a label array `comp` of size |V| such that
// comp[u] == comp[v]  iff  u and v are in the same connected component.
// Different algorithms may pick different representative labels; use
// labels_equivalent() (verifier.hpp) to compare partitions.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <unordered_set>

#include "graph/csr_graph.hpp"
#include "graph/label_width.hpp"
#include "util/pvector.hpp"

namespace afforest {

/// Typed rejection of a vertex id outside [0, num_nodes).  Derives from
/// std::out_of_range so pre-existing catch sites keep working; carries the
/// offending id and the bound so callers (and tests) can assert on the
/// structured fields instead of parsing the message.  Thrown by every
/// ingestion-facing entry point (IncrementalCC, QueryEngine, DynamicCC) —
/// deletions made this class of bug easy to hit via stale window replay,
/// where a recorded batch can reference ids from a larger graph.
class VertexRangeError : public std::out_of_range {
 public:
  VertexRangeError(const std::string& context, std::int64_t vertex,
                   std::int64_t num_nodes)
      : std::out_of_range(context + ": vertex id " + std::to_string(vertex) +
                          " outside [0, " + std::to_string(num_nodes) + ")"),
        vertex_(vertex),
        num_nodes_(num_nodes) {}

  [[nodiscard]] std::int64_t vertex() const { return vertex_; }
  [[nodiscard]] std::int64_t num_nodes() const { return num_nodes_; }

 private:
  std::int64_t vertex_;
  std::int64_t num_nodes_;
};

/// Validates one vertex id against [0, num_nodes); throws VertexRangeError
/// tagged with `context` (the rejecting subsystem) otherwise.
template <typename NodeID_>
void check_vertex_range(const char* context, NodeID_ v,
                        std::int64_t num_nodes) {
  if (v < 0 || static_cast<std::int64_t>(v) >= num_nodes)
    throw VertexRangeError(context, static_cast<std::int64_t>(v), num_nodes);
}

template <typename NodeID_>
using ComponentLabels = pvector<NodeID_>;

/// Number of distinct labels (i.e. components, counting isolated vertices).
template <typename NodeID_>
std::int64_t count_components(const ComponentLabels<NodeID_>& comp) {
  // A set, not a map: only membership matters, and the bool payload the
  // old unordered_map carried doubled every node's footprint for nothing.
  std::unordered_set<NodeID_> seen;
  seen.reserve(1024);
  for (NodeID_ label : comp) seen.insert(label);
  return static_cast<std::int64_t>(seen.size());
}

/// Initializes comp to the identity (every vertex its own component),
/// in parallel — the first line of every tree-hooking algorithm.
template <typename NodeID_>
ComponentLabels<NodeID_> identity_labels(std::int64_t num_nodes) {
  ComponentLabels<NodeID_> comp(static_cast<std::size_t>(num_nodes));
#pragma omp parallel for schedule(static)
  for (std::int64_t v = 0; v < num_nodes; ++v)
    comp[v] = static_cast<NodeID_>(v);  // NOLINT(afforest-plain-shared-access): owner-exclusive init write, no other thread touches slot v
  return comp;
}

}  // namespace afforest
