// Edge list → CSR builder.
//
// Pipeline (all stages parallel):
//   1. (undirected) symmetrize: emit both directions of each edge
//   2. count per-vertex degrees with atomic increments; self loops are
//      dropped here when requested
//   3. exclusive prefix sum over degrees → row offsets
//   4. fill the rows owner-computes: each thread owns a contiguous row range
//      holding ~1/T of the entries, scans the whole edge list and stores
//      only its own rows' entries through plain cursors.  No store needs a
//      lock, and every row lists its entries in edge-list order at any team
//      size.
//   5. sort each row (optional, on by default: sorted rows make the
//      "first appearing neighbors" used for neighbor sampling deterministic
//      and improve locality)
//   6. remove duplicate edges (optional): std::unique each sorted row in
//      place, prefix-sum the kept degrees and shift the rows left (a row
//      never moves right), so no second neighbor array is allocated
// Directed builds then derive the in-edge rows from the final out-rows with
// the same count, prefix sum and fill; the fill reads sources in ascending
// order, so every in-row comes out sorted.
//
// The paper's neighbor sampling "uses the graph file structure by choosing
// the first appearing neighbors of each vertex" (§VI-A); with sorted rows
// that means the lowest-indexed neighbors, which is what our Afforest
// implementation samples.
#pragma once

#include <omp.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "graph/csr_graph.hpp"
#include "graph/edge_list.hpp"
#include "graph/label_width.hpp"
#include "util/failpoint.hpp"
#include "util/parallel.hpp"
#include "util/pvector.hpp"

namespace afforest {

struct BuilderOptions {
  bool symmetrize = true;      ///< false builds a directed graph as-given
  bool sort_neighbors = true;  ///< sort each CSR row ascending
  bool remove_self_loops = true;
  bool remove_duplicates = true;  ///< requires sort_neighbors
  bool build_in_edges = true;     ///< directed only: also build inverse CSR
};

template <typename NodeID_>
class Builder {
 public:
  using OffsetT = std::int64_t;

  explicit Builder(BuilderOptions opts = {}) : opts_(opts) {
    if (opts_.remove_duplicates && !opts_.sort_neighbors)
      throw std::invalid_argument(
          "remove_duplicates requires sort_neighbors");
  }

  /// Builds a CSR graph over vertex ids [0, num_nodes).  Edges referencing
  /// ids outside that range throw.  When num_nodes < 0 it is inferred as
  /// max id + 1.  A num_nodes NodeID_ cannot label throws LabelWidthError
  /// before anything is allocated.
  [[nodiscard]] CSRGraph<NodeID_> build(const EdgeList<NodeID_>& edges,
                                        OffsetT num_nodes = -1) const {
    failpoint_maybe_fail("builder.build");
    if (num_nodes < 0) num_nodes = infer_num_nodes(edges);
    check_label_width<NodeID_>("Builder::build", num_nodes);
    validate(edges, num_nodes);

    // Edge i's entries as (row, value) pairs.  Self loops are dropped up
    // front when requested.
    const auto edge_entries = [this, &edges](std::int64_t i, auto&& put) {
      const auto [u, v] = edges[i];
      if (opts_.remove_self_loops && u == v) return;
      put(u, v);
      if (opts_.symmetrize) put(v, u);
    };
    const std::int64_t ne = static_cast<std::int64_t>(edges.size());

    pvector<OffsetT> degrees(static_cast<std::size_t>(num_nodes), 0);
#pragma omp parallel for schedule(static)
    for (std::int64_t i = 0; i < ne; ++i)
      edge_entries(i, [&degrees](NodeID_ row, NodeID_) {
        fetch_and_add(degrees[row], OffsetT{1});
      });

    // Once the offsets exist the counts are spent: `degrees` becomes the
    // fill's row cursors, then the dedup's kept counts.
    pvector<OffsetT> offsets = parallel_prefix_sum(degrees);
    pvector<NodeID_> neighbors = fill_rows(offsets, degrees, ne, edge_entries);

    if (opts_.sort_neighbors) {
#pragma omp parallel for schedule(dynamic, 64)
      for (std::int64_t v = 0; v < num_nodes; ++v) {
        NodeID_* first = neighbors.data() + offsets[v];
        NodeID_* last = neighbors.data() + offsets[v + 1];
        std::sort(first, last);
        if (opts_.remove_duplicates)
          degrees[v] = std::unique(first, last) - first;
      }
    }
    if (opts_.remove_duplicates)
      offsets = shift_rows_left(offsets, degrees, neighbors);

    if (opts_.symmetrize || !opts_.build_in_edges)
      return CSRGraph<NodeID_>(num_nodes, std::move(offsets),
                               std::move(neighbors),
                               /*directed=*/!opts_.symmetrize);
    auto [in_offsets, in_neighbors] = invert(offsets, neighbors);
    return CSRGraph<NodeID_>(num_nodes, std::move(offsets),
                             std::move(neighbors), std::move(in_offsets),
                             std::move(in_neighbors));
  }

  /// Derives the inverse (in-edge) rows from a directed graph's final
  /// out-rows, so both directions agree after dedup/self-loop removal.  The
  /// .sg loader also rebuilds a directed file's in-edges with it.
  [[nodiscard]] static std::pair<pvector<OffsetT>, pvector<NodeID_>> invert(
      const pvector<OffsetT>& offsets, const pvector<NodeID_>& neighbors) {
    const std::int64_t n = static_cast<std::int64_t>(offsets.size()) - 1;
    const auto in_entries = [&offsets, &neighbors](std::int64_t u,
                                                   auto&& put) {
      for (OffsetT e = offsets[u]; e < offsets[u + 1]; ++e)
        put(neighbors[e], static_cast<NodeID_>(u));
    };
    pvector<OffsetT> in_degrees(static_cast<std::size_t>(n), 0);
#pragma omp parallel for schedule(dynamic, 64)
    for (std::int64_t u = 0; u < n; ++u)
      in_entries(u, [&in_degrees](NodeID_ row, NodeID_) {
        fetch_and_add(in_degrees[row], OffsetT{1});
      });
    pvector<OffsetT> in_offsets = parallel_prefix_sum(in_degrees);
    pvector<NodeID_> in_neighbors =
        fill_rows(in_offsets, in_degrees, n, in_entries);
    return {std::move(in_offsets), std::move(in_neighbors)};
  }

 private:
  [[nodiscard]] static OffsetT infer_num_nodes(
      const EdgeList<NodeID_>& edges) {
    NodeID_ max_id = -1;
    const std::int64_t ne = static_cast<std::int64_t>(edges.size());
#pragma omp parallel for reduction(max : max_id) schedule(static)
    for (std::int64_t i = 0; i < ne; ++i)
      max_id = std::max({max_id, edges[i].u, edges[i].v});
    return static_cast<OffsetT>(max_id) + 1;
  }

  static void validate(const EdgeList<NodeID_>& edges, OffsetT num_nodes) {
    bool ok = true;
    const std::int64_t ne = static_cast<std::int64_t>(edges.size());
#pragma omp parallel for reduction(&& : ok) schedule(static)
    for (std::int64_t i = 0; i < ne; ++i) {
      const auto [u, v] = edges[i];
      ok = ok && u >= 0 && v >= 0 && static_cast<OffsetT>(u) < num_nodes &&
           static_cast<OffsetT>(v) < num_nodes;
    }
    if (!ok) throw std::out_of_range("edge references vertex out of range");
  }

  /// First row owned by thread t of a `team`-thread fill: the first row
  /// that starts at or after t/team of the entries.  Thread t owns
  /// [row_boundary(t), row_boundary(t + 1)); the ranges tile [0, |V|).
  [[nodiscard]] static std::int64_t row_boundary(
      const pvector<OffsetT>& offsets, int t, int team) {
    const std::int64_t n = static_cast<std::int64_t>(offsets.size()) - 1;
    if (t == team) return n;
    const OffsetT target = offsets[n] * t / team;
    return std::lower_bound(offsets.begin(), offsets.begin() + n, target) -
           offsets.begin();
  }

  /// Fills the rows laid out by `offsets` from an ordered entry stream:
  /// entries(i, put) calls put(row, value) for each entry of item i, for
  /// items 0..num_items-1.  Owner computes: every thread scans all items
  /// and stores only the entries of the rows it owns, through plain
  /// cursors, so each row lists its entries in stream order whatever the
  /// team size.  `cursors` is |V| entries of working space, overwritten.
  template <typename Entries>
  [[nodiscard]] static pvector<NodeID_> fill_rows(
      const pvector<OffsetT>& offsets, pvector<OffsetT>& cursors,
      std::int64_t num_items, const Entries& entries) {
    const std::int64_t n = static_cast<std::int64_t>(cursors.size());
    pvector<NodeID_> neighbors(static_cast<std::size_t>(offsets[n]));
    NodeID_* const out = neighbors.data();
    OffsetT* const cursor = cursors.data();
#pragma omp parallel
    {
      const int team = omp_get_num_threads();
      const int t = omp_get_thread_num();
      const std::int64_t lo = row_boundary(offsets, t, team);
      const std::int64_t hi = row_boundary(offsets, t + 1, team);
      // Fault this thread's slice in row order before the scattered stores.
      std::fill(out + offsets[lo], out + offsets[hi], NodeID_{0});
      std::copy(offsets.data() + lo, offsets.data() + hi, cursor + lo);
      for (std::int64_t i = 0; i < num_items; ++i)
        entries(i, [&](NodeID_ row, NodeID_ value) {
          if (row >= lo && row < hi) out[cursor[row]++] = value;
        });
    }
    return neighbors;
  }

  /// Keeps the first kept[v] entries of every row and closes the gaps by
  /// shifting rows left in one in-order pass: a row never moves right, so
  /// each copy reads only entries no earlier copy has overwritten.
  /// Returns the new offsets; `neighbors` shrinks in place.
  [[nodiscard]] static pvector<OffsetT> shift_rows_left(
      const pvector<OffsetT>& offsets, const pvector<OffsetT>& kept,
      pvector<NodeID_>& neighbors) {
    pvector<OffsetT> new_offsets = parallel_prefix_sum(kept);
    const std::int64_t n = static_cast<std::int64_t>(kept.size());
    NodeID_* const data = neighbors.data();
    for (std::int64_t v = 0; v < n; ++v)
      if (new_offsets[v] != offsets[v])
        std::copy(data + offsets[v], data + offsets[v] + kept[v],
                  data + new_offsets[v]);
    neighbors.resize(static_cast<std::size_t>(new_offsets[n]));
    return new_offsets;
  }

  BuilderOptions opts_;
};

/// Convenience wrapper with default options (undirected, sorted, deduped).
template <typename NodeID_>
[[nodiscard]] CSRGraph<NodeID_> build_undirected(
    const EdgeList<NodeID_>& edges, std::int64_t num_nodes = -1) {
  return Builder<NodeID_>{}.build(edges, num_nodes);
}

/// Directed build with inverse adjacency (in-edges), for weakly-connected
/// components and reverse traversal.
template <typename NodeID_>
[[nodiscard]] CSRGraph<NodeID_> build_directed(
    const EdgeList<NodeID_>& edges, std::int64_t num_nodes = -1) {
  BuilderOptions opts;
  opts.symmetrize = false;
  return Builder<NodeID_>(opts).build(edges, num_nodes);
}

}  // namespace afforest
