// Edge list → CSR builder.
//
// Pipeline (all stages parallel):
//   1. (undirected) symmetrize: emit both directions of each edge
//   2. count per-vertex degrees with atomic increments; self loops are
//      dropped here when requested
//   3. exclusive prefix sum over degrees → row offsets
//   4. fill the rows owner-computes: each thread owns a contiguous row range
//      holding ~1/T of the entries, scans the whole edge list and stores
//      only its own rows' entries through plain cursors.  One unsigned
//      compare, `row - lo < span`, tests ownership, so an entry takes one
//      data-dependent branch, not two.  No store needs a lock, and every
//      row lists its entries in edge-list order at any team size.
//   5. sort each row (optional, on by default: sorted rows make the
//      "first appearing neighbors" used for neighbor sampling deterministic
//      and improve locality).  Rows of kRadixSortMinRow (256) to
//      kRadixScratchMaxRow (2^20) entries are LSD radix-sorted on 11-bit
//      digits, ⌈bits(|V| - 1) / 11⌉ passes, each thread through its own
//      scratch slice sized to the longest such row.  Other rows keep
//      std::sort: short ones sort faster that way, and the upper cutoff
//      caps the scratch.
//   6. remove duplicate edges (optional): std::unique each sorted row in
//      place, then one serial pass shifts the rows left (a row never moves
//      right) and rewrites the offsets in place with a running write
//      cursor, so neither a second neighbor array nor a second offsets
//      array is allocated
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
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <type_traits>
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

  /// Rows of at least this many entries are radix-sorted, shorter ones
  /// std::sort-ed.  Fixed: the output is the same either way.
  static constexpr std::size_t kRadixSortMinRow = 256;
  /// Rows longer than this keep std::sort, so a hub row cannot grow the
  /// radix scratch (one slice of this many entries per thread at most).
  static constexpr std::size_t kRadixScratchMaxRow = std::size_t{1} << 20;

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

    if (opts_.sort_neighbors) sort_rows(offsets, neighbors, degrees);
    if (opts_.remove_duplicates) shift_rows_left(offsets, degrees, neighbors);

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
  /// 2^11 bucket counts (8 KiB) stay in L1; int32 ids take at most 3 passes.
  static constexpr int kRadixDigitBits = 11;

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
      const auto span = static_cast<std::uint64_t>(hi - lo);
      // Fault this thread's slice in row order before the scattered stores.
      std::fill(out + offsets[lo], out + offsets[hi], NodeID_{0});
      std::copy(offsets.data() + lo, offsets.data() + hi, cursor + lo);
      // One unsigned compare tests lo <= row < hi, so each entry takes a
      // single ownership branch rather than two.
      for (std::int64_t i = 0; i < num_items; ++i)
        entries(i, [&](NodeID_ row, NodeID_ value) {
          if (static_cast<std::uint64_t>(row - lo) < span)
            out[cursor[row]++] = value;
        });
    }
    return neighbors;
  }

  /// Sorts every row ascending; a deduplicating build then std::unique-s
  /// each row and leaves its kept length in kept[v].  Rows of
  /// kRadixSortMinRow to kRadixScratchMaxRow entries are radix-sorted, each
  /// thread through its own slice of one scratch array allocated before the
  /// parallel region.
  void sort_rows(const pvector<OffsetT>& offsets, pvector<NodeID_>& neighbors,
                 pvector<OffsetT>& kept) const {
    const std::int64_t n = static_cast<std::int64_t>(kept.size());
    const int passes = radix_passes(n);
    const std::size_t slice = radix_slice(offsets);
    pvector<NodeID_> scratch(slice *
                             static_cast<std::size_t>(omp_get_max_threads()));
#pragma omp parallel
    {
      NodeID_* const own = scratch.data() + slice * omp_get_thread_num();
#pragma omp for schedule(dynamic, 64)
      for (std::int64_t v = 0; v < n; ++v) {
        NodeID_* const first = neighbors.data() + offsets[v];
        NodeID_* const last = neighbors.data() + offsets[v + 1];
        const auto len = static_cast<std::size_t>(last - first);
        if (len >= kRadixSortMinRow && len <= slice)
          radix_sort(first, last, own, passes);
        else
          std::sort(first, last);
        if (opts_.remove_duplicates)
          kept[v] = std::unique(first, last) - first;
      }
    }
  }

  /// Digit passes that sort ids in [0, num_nodes).
  [[nodiscard]] static int radix_passes(OffsetT num_nodes) {
    const int bits = num_nodes > 1
        ? std::bit_width(static_cast<std::uint64_t>(num_nodes - 1))
        : 0;
    return (bits + kRadixDigitBits - 1) / kRadixDigitBits;
  }

  /// Entries of radix scratch each thread needs: the longest row, or 0 when
  /// no row reaches kRadixSortMinRow; rows beyond kRadixScratchMaxRow do
  /// not count, since they keep std::sort.
  [[nodiscard]] static std::size_t radix_slice(
      const pvector<OffsetT>& offsets) {
    const std::int64_t n = static_cast<std::int64_t>(offsets.size()) - 1;
    OffsetT longest = 0;
#pragma omp parallel for reduction(max : longest) schedule(static)
    for (std::int64_t v = 0; v < n; ++v) {
      const OffsetT len = offsets[v + 1] - offsets[v];
      if (len <= static_cast<OffsetT>(kRadixScratchMaxRow))
        longest = std::max(longest, len);
    }
    const auto slice = static_cast<std::size_t>(longest);
    return slice >= kRadixSortMinRow ? slice : 0;
  }

  /// LSD radix sort of [first, last) on kRadixDigitBits-bit digits, least
  /// significant first, ping-ponging through `scratch` (at least
  /// last - first entries).  Ids are non-negative, so their unsigned digits
  /// order them.  After an odd number of passes the sorted row sits in
  /// `scratch` and is copied back.
  static void radix_sort(NodeID_* first, NodeID_* last, NodeID_* scratch,
                         int passes) {
    using Digits = std::make_unsigned_t<NodeID_>;
    constexpr std::size_t kBuckets = std::size_t{1} << kRadixDigitBits;
    const auto len = static_cast<std::size_t>(last - first);
    NodeID_* src = first;
    NodeID_* dst = scratch;
    for (int pass = 0; pass < passes; ++pass) {
      const int shift = pass * kRadixDigitBits;
      const auto digit = [shift](NodeID_ id) {
        return (static_cast<Digits>(id) >> shift) & (kBuckets - 1);
      };
      std::array<std::uint32_t, kBuckets> start{};
      for (std::size_t i = 0; i < len; ++i) ++start[digit(src[i])];
      std::uint32_t sum = 0;
      for (std::uint32_t& s : start) sum += std::exchange(s, sum);
      for (std::size_t i = 0; i < len; ++i)
        dst[start[digit(src[i])]++] = src[i];
      std::swap(src, dst);
    }
    if (src != first) std::copy(src, src + len, first);
  }

  /// Keeps the first kept[v] entries of every row and closes the gaps by
  /// shifting rows left in one in-order pass: a row never moves right, so
  /// each copy reads only entries no earlier copy has overwritten.  The
  /// same pass rewrites `offsets` in place from a running write cursor,
  /// reading offsets[v] before it is overwritten; `neighbors` shrinks in
  /// place.
  static void shift_rows_left(pvector<OffsetT>& offsets,
                              const pvector<OffsetT>& kept,
                              pvector<NodeID_>& neighbors) {
    const std::int64_t n = static_cast<std::int64_t>(kept.size());
    NodeID_* const data = neighbors.data();
    OffsetT write = 0;
    for (std::int64_t v = 0; v < n; ++v) {
      const OffsetT read = std::exchange(offsets[v], write);
      if (write != read)
        std::copy(data + read, data + read + kept[v], data + write);
      write += kept[v];
    }
    offsets[n] = write;
    neighbors.resize(static_cast<std::size_t>(write));
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
