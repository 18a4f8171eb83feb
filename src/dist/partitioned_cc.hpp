// Distributed-memory CC simulation (the paper's §VII future-work
// direction: "generalize the algorithm to distributed memory
// environments").
//
// Model: a 1D block partition over P simulated ranks, Bulk-Synchronous
// Parallel schedule:
//
//   superstep 1 (local):   each rank runs Afforest's link/compress over
//                          edges with BOTH endpoints in its block — no
//                          communication, ranks simulated concurrently.
//   superstep 2 (exchange): boundary edges (endpoints in different blocks)
//                          are translated to (root_u, root_v) pairs — the
//                          messages a real implementation would ship.
//   superstep 3 (merge):   the quotient graph over local roots is solved
//                          with link, and labels are re-compressed.
//
// The returned statistics expose the distributed-feasibility quantities:
// internal vs boundary edge counts (communication volume) and the quotient
// size (how small the exchanged problem is after local work — the subgraph
// sampling insight carries over: local sampling collapses each block to a
// handful of roots before any communication).
//
// The label type is a template parameter, same as the serving engines:
// instantiate with a NodeID_ wide enough for g.num_nodes() or get a typed
// LabelWidthError (never a silently truncated label).  The sharded serving
// coordinator (src/shard/) reuses both partition_of and the quotient
// helpers, so the simulated ranks here and the real shards there agree on
// vertex ownership by construction.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <utility>

#include "cc/afforest.hpp"
#include "cc/common.hpp"
#include "dist/quotient.hpp"
#include "graph/csr_graph.hpp"

namespace afforest {

struct PartitionedCCStats {
  int num_parts = 0;
  std::int64_t internal_edges = 0;   ///< processed with zero communication
  std::int64_t boundary_edges = 0;   ///< messages in the exchange superstep
  std::int64_t quotient_vertices = 0;  ///< distinct local roots touched
  std::int64_t quotient_edges = 0;   ///< deduplicated root-pair messages

  /// Fraction of edges requiring communication.
  [[nodiscard]] double communication_fraction() const {
    const auto total = internal_edges + boundary_edges;
    return total == 0 ? 0.0
                      : static_cast<double>(boundary_edges) /
                            static_cast<double>(total);
  }
};

/// Which rank owns vertex v under the 1D block partition: floor(v·P / n).
/// Block p is the contiguous range [ceil(p·n/P), ceil((p+1)·n/P)).
int partition_of(std::int64_t v, std::int64_t num_nodes, int num_parts);

/// First vertex of block p under the same partition (== n when p == P),
/// i.e. the inverse boundary map of partition_of: partition_of(v) == p
/// iff partition_first(p) <= v < partition_first(p + 1).
std::int64_t partition_first(int p, std::int64_t num_nodes, int num_parts);

/// BSP-partitioned CC.  Exact: labels always equal the single-machine
/// result (component minima).  num_parts >= 1; num_parts == 1 degenerates
/// to plain Afforest-style local processing.  Throws LabelWidthError when
/// g.num_nodes() exceeds what NodeID_ can label.
template <typename NodeID_>
ComponentLabels<NodeID_> partitioned_cc(const CSRGraph<NodeID_>& g,
                                        int num_parts,
                                        PartitionedCCStats* stats = nullptr) {
  if (num_parts < 1) throw std::invalid_argument("num_parts must be >= 1");
  const std::int64_t n = g.num_nodes();
  check_label_width<NodeID_>("partitioned_cc", n);
  auto comp = identity_labels<NodeID_>(n);

  // Superstep 1: link internal edges.  Each rank touches only its own
  // block of comp, so ranks can be simulated by one parallel loop; the
  // lock-free link keeps the simulation faithful to per-rank concurrency.
  const auto [internal, boundary] =
      select_probe(TelemetryProbe{}, [&](auto probe) {
        std::int64_t internal = 0, boundary = 0;
#pragma omp parallel for reduction(+ : internal, boundary) \
    schedule(dynamic, 2048)
        for (std::int64_t u = 0; u < n; ++u) {
          const int pu = partition_of(u, n, num_parts);
          for (NodeID_ v : g.out_neigh(static_cast<NodeID_>(u))) {
            // Each unordered edge once.
            if (static_cast<NodeID_>(u) >= v) continue;
            if (partition_of(v, n, num_parts) == pu) {
              link(static_cast<NodeID_>(u), v, comp, probe);
              ++internal;
            } else {
              ++boundary;
            }
          }
        }
        compress_all(comp, probe);
        return std::pair{internal, boundary};
      });

  // Superstep 2: translate boundary edges into root-pair messages and
  // deduplicate (a real implementation aggregates messages per rank pair).
  RootPairSet<NodeID_> quotient;
  std::unordered_set<NodeID_> roots;
  for (std::int64_t u = 0; u < n; ++u) {
    const int pu = partition_of(u, n, num_parts);
    for (NodeID_ v : g.out_neigh(static_cast<NodeID_>(u))) {
      if (static_cast<NodeID_>(u) >= v) continue;
      if (partition_of(v, n, num_parts) == pu) continue;
      const NodeID_ ru = comp[u];
      const NodeID_ rv = comp[v];
      if (ru == rv) continue;
      quotient.insert(ru, rv);
      roots.insert(ru);
      roots.insert(rv);
    }
  }

  // Superstep 3: merge the quotient and finalize.
  quotient.for_each([&comp](NodeID_ lo, NodeID_ hi) { link(hi, lo, comp); });
  compress_all(comp);

  if (stats != nullptr) {
    stats->num_parts = num_parts;
    stats->internal_edges = internal;
    stats->boundary_edges = boundary;
    stats->quotient_vertices = static_cast<std::int64_t>(roots.size());
    stats->quotient_edges = static_cast<std::int64_t>(quotient.size());
  }
  return comp;
}

extern template ComponentLabels<std::int32_t> partitioned_cc<std::int32_t>(
    const CSRGraph<std::int32_t>&, int, PartitionedCCStats*);
extern template ComponentLabels<std::int64_t> partitioned_cc<std::int64_t>(
    const CSRGraph<std::int64_t>&, int, PartitionedCCStats*);

}  // namespace afforest
