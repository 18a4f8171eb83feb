// Afforest — the paper's primary contribution (Sutton, Ben-Nun, Barak,
// IPDPS 2018): a restructured Shiloach–Vishkin with subgraph sampling.
//
// Building blocks:
//   link(u, v, comp)      — lock-free tree hooking (paper Fig 3).  Walks up
//                           both parent chains; at each step hooks the
//                           higher-indexed root onto the lower via CAS.
//                           Maintains Invariant 1 (π(x) ≤ x), so π stays
//                           acyclic (Lemma 1–2) and converges (Lemma 5).
//   rem_splice(u, v, comp) — Rem's union with CAS splicing (Patwary, Blair,
//                           Manne).  Climbs both chains; at each step
//                           re-points the side with the larger parent at
//                           the smaller parent, hooking it if it is a root.
//                           Every write only lowers a parent, so
//                           Invariant 1 holds and labels stay component
//                           minima.
//   compress(v, comp)     — full path compression to the root (Fig 2b);
//                           safe to run on all vertices in parallel
//                           (Theorem 2).
//   sample_frequent_element — probabilistic search for the giant
//                           intermediate component (Fig 5, line 10):
//                           samples comp[] uniformly and returns the mode.
//
// The driver (Fig 5), afforest_cc — the only copy of the phase sequence;
// the ablations are AfforestOptions choices:
//   1. k sampling rounds: round r links edge (v, r-th neighbor of v) for
//      every vertex, then compresses.  This processes O(|V|) edges per
//      round and, per §V-B, links >80 % of trees within two rounds on
//      real-world topologies.  Under RemSplice the k rounds run as one
//      pass, each vertex uniting its first min(k, deg) neighbors, then one
//      compress.  (Or one uniform-edge pass, §IV-B.)
//   2. Identify the largest intermediate component c.
//   3. Final phase: every vertex NOT in c links its remaining neighbors
//      (from index k onward), per vertex or per Chunked span.  Vertices
//      inside c are skipped entirely — correct by Theorem 3 because each
//      unordered edge is stored in both endpoint rows.
//   4. Final compress.
//
// Link choices.  AfforestOptions::link picks, once per solve, the union
// that phases 1 and 3 call on every edge: RootHook is link() (Fig 3), and
// RemSplice, the default, is rem_splice().  Each splice lowers a parent on
// the climbed path, so later unions and the compress passes walk shorter
// paths.  RemSplice therefore needs no compress between sampling rounds: it
// runs them as one pass and one compress.  The pass unites the same edges, so
// after that compress π holds each sampled component's minimum id, as
// after the rounds, and c and phase 3's input do not change.
//
// Where vertex ids carry locality, that pass is the owner pass.  The ids
// are split into blocks of B, and threads take one block at a time; while
// a thread runs a block it is the only writer of those π slots, so Rem's
// climb writes them with plain release stores (rem_splice's OwnedBlock
// mode).  A union whose next write falls outside the block pauses there
// and keeps its current climb pair, which the thread finishes with the CAS
// rem_splice after the pass's barrier.  A locality test picks it: the
// owner pass runs when at least half of the first min(k, deg) neighbors
// of sample_count random vertices lie in their vertex's block, and the
// CAS pass otherwise.  The owner pass is one interleaving of the
// concurrent CAS pass: each block has one writer, so each store is exactly
// the CAS that would have succeeded there, and a kept pair is a union
// paused mid-climb until after the barrier.  It keeps the pair, not the
// edge: splices inside the block can already have moved the endpoint's
// subtree out of its old tree, and only the pair still joins the rest.
//
// RootHook keeps the paper's compress after every round (Fig 5), without
// which its trees deepen.  Only afforest_cc offers the choice:
// IncrementalCC and the serving engines call link(), and Table II, Fig 7
// and the §IV-A forest run afforest_cc pinned to RootHook
// (docs/ALGORITHM.md, "Link choices").
//
// Probes.  The primitives and the driver report what they do to a probe;
// the default, TelemetryProbe, is the telemetry reporting.  Table II's
// counters, the Fig 7 tracer and the §IV-A witness lists are probes on
// this driver, so they observe the code afforest_cc runs.  Every entry
// point with a parallel union or compress loop picks its probe once, by
// select_probe: a default probe runs as ArmedTelemetryProbe while
// telemetry is armed and as the hook-free NullProbe while it is dormant, so
// no loop re-reads the switch per union or compress.
//
// Why the §IV-D skip stays sound under splicing.  A splice moves a
// non-root into the other tree before its old root is hooked, so a set is
// briefly split, and a spliced vertex can carry c before its old root is
// hooked.  Theorem 3 still holds:
//   - every parent write, hook or splice, joins two vertices of the same
//     component, so a tree never spans two components;
//   - a union call returns only after its two endpoints share a tree, and
//     that happens before the phase barrier;
//   - a vertex is skipped when it reads the giant component's label c.
//     The write it read put it in c's tree, so it is in c's component.
//     So every edge it skips is either linked from its other endpoint, or
//     joins two vertices that both end up in c's component.
// The owner pass changes none of this: its stores are the CASes of one
// interleaving of the concurrent unions, and its kept pairs finish before
// the sampling phase ends, so every union has returned by then.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <variant>
#include <vector>

#include <omp.h>

#include "analysis/telemetry.hpp"
#include "cc/common.hpp"
#include "graph/csr_graph.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace afforest {

/// Sampling choices (Fig 5 lines 2–9): the first k neighbors of every
/// vertex, one round each (k < 0 acts as 0), or each edge with probability
/// p, decided by a hash of the edge and sample_seed (§IV-B; p saturates to
/// [0, 1]).
struct NeighborRounds {
  std::int32_t k = 2;
};
struct UniformEdges {
  double p = 0.1;
};

/// Final-phase schedules: one vertex at a time, or spans of at most `size`
/// edges of one neighborhood (§VI-B load balancing; afforest_cc throws
/// std::invalid_argument for size <= 0).
struct PerVertex {};
struct Chunked {
  std::int64_t size = 64;
};

/// Link choices: the union phases 1 and 3 call on every edge.  RootHook is
/// link(), the paper's Fig 3; RemSplice is rem_splice().
struct RootHook {};
struct RemSplice {};

/// Tuning knobs for Afforest.  Defaults follow the paper (§VI-A: two
/// neighbor rounds; "constant number" of samples = 1024), except the link:
/// RemSplice solves cc-road and cc-kron faster than the paper's RootHook
/// (docs/ALGORITHM.md, "Link choices").
struct AfforestOptions {
  std::variant<NeighborRounds, UniformEdges> sampling = NeighborRounds{};
  std::variant<PerVertex, Chunked> schedule = PerVertex{};
  std::variant<RootHook, RemSplice> link = RemSplice{};
  bool skip_largest = true;  ///< large-component skipping (paper §IV-D)
  std::int32_t sample_count = 1024;
  std::uint64_t sample_seed = 0xAFF0;
};

/// Wall seconds per phase of one afforest_cc solve, read from the clock
/// behind its afforest.* telemetry phases but filled without arming them.
struct AfforestPhaseTimes {
  double init_s = 0;
  double sampling_s = 0;
  double compress_s = 0;        ///< all compress passes
  double find_component_s = 0;  ///< sample_frequent_element
  double final_link_s = 0;

  [[nodiscard]] double total_s() const {
    return init_s + sampling_s + compress_s + find_component_s +
           final_link_s;
  }
};

/// Phase boundaries as the drivers announce them to a probe: Fig 5's from
/// afforest_cc, and Fig 1's, per iteration r, from the Shiloach–Vishkin
/// fixpoint (cc/shiloach_vishkin.hpp).
enum class AfforestPhase {
  kSample,         ///< sampling round r (RemSplice's fused pass and the
                   ///< uniform pass are round 0)
  kCompress,       ///< the compress after sampling round r
  kFindLargest,    ///< sample_frequent_element (skip on only)
  kFinalLink,      ///< link_remaining
  kFinalCompress,  ///< the last compress
  kSVHook,         ///< SV's hook pass in iteration r
  kSVStagnant,     ///< its stagnant-root pass (shiloach_vishkin_original)
  kSVShortcut,     ///< its shortcut, compress_all
};

/// The default probe: the telemetry reporting, with empty access hooks.
/// A probe sees
///   read(i), write(i)  beside every atomic load, and every store or CAS
///                      (one write, won or lost), of π[i];
///   linked(u, v, merged, retries, cas_attempts, cas_failures)  once per
///                      union, merged = this call's own CAS hooked a root;
///   compressed(hops)   once per compress(v);
///   skipped(edges, vertices)  once per phase-3 skip; the per-vertex
///                      schedule reads the degree it needs only when
///                      counts_skips() is true (for the default, when
///                      telemetry is armed);
///   phase(which, round, comp)  serially, just before each phase runs.
/// A probe is a handle copied into every call: it keeps its tallies behind
/// a pointer.  Other probes derive from this one and hide the hooks they
/// observe.
struct TelemetryProbe {
  void read(std::int64_t) const {}
  void write(std::int64_t) const {}
  void linked(std::int64_t, std::int64_t, bool, std::uint64_t retries,
              std::uint64_t cas_attempts, std::uint64_t cas_failures) const {
    telemetry::on_link(retries, cas_attempts, cas_failures);
  }
  void compressed(std::uint64_t hops) const { telemetry::on_compress(hops); }
  bool counts_skips() const { return telemetry::enabled(); }
  void skipped(std::uint64_t edges, std::uint64_t vertices) const {
    telemetry::on_phase3_skip(edges, vertices);
  }
  template <typename NodeID_>
  void phase(AfforestPhase, std::int32_t, const pvector<NodeID_>&) const {}
};

/// The hook-free probe: reports nothing, and counts_skips() is false, so a
/// loop instantiated on it is the unprobed code.
struct NullProbe : TelemetryProbe {
  void linked(std::int64_t, std::int64_t, bool, std::uint64_t, std::uint64_t,
              std::uint64_t) const {}
  void compressed(std::uint64_t) const {}
  bool counts_skips() const { return false; }
  void skipped(std::uint64_t, std::uint64_t) const {}
};

/// The telemetry reporting of a loop that found telemetry armed at entry:
/// every hook adds to the thread's counter block without re-reading the
/// switch.
struct ArmedTelemetryProbe : TelemetryProbe {
  void linked(std::int64_t, std::int64_t, bool, std::uint64_t retries,
              std::uint64_t cas_attempts, std::uint64_t cas_failures) const {
    telemetry::count_link(retries, cas_attempts, cas_failures);
  }
  void compressed(std::uint64_t hops) const { telemetry::count_compress(hops); }
  bool counts_skips() const { return true; }
  void skipped(std::uint64_t edges, std::uint64_t vertices) const {
    telemetry::count_phase3_skip(edges, vertices);
  }
};

/// Runs f(selected) with the probe a parallel loop reports to, reading
/// telemetry::enabled() once: the default TelemetryProbe is selected as
/// ArmedTelemetryProbe while telemetry is armed and as NullProbe while it
/// is dormant or compiled out.  Any other probe is selected as itself.
template <typename Probe, typename F>
auto select_probe(Probe probe, F&& f) {
  if constexpr (!std::is_same_v<Probe, TelemetryProbe>) {
    return f(probe);
  } else if constexpr (!telemetry::compiled_in()) {
    return f(NullProbe{});
  } else {
    if (telemetry::enabled()) return f(ArmedTelemetryProbe{});
    return f(NullProbe{});
  }
}

/// Hooks the trees containing u and v (paper Fig 3).  Lock-free; safe to
/// call concurrently on arbitrary edges.  Returns true iff this call's own
/// CAS merged two trees (the §IV-A witness, see afforest_forest.hpp).
// lint: parallel-context
template <typename NodeID_, typename Probe = TelemetryProbe>
bool link(NodeID_ u, NodeID_ v, pvector<NodeID_>& comp, Probe probe = {}) {
  probe.read(u);
  NodeID_ p1 = atomic_load(comp[u]);
  probe.read(v);
  NodeID_ p2 = atomic_load(comp[v]);
  // Tallies live in registers and go to the probe once per call; under
  // NullProbe, the dormant solve's probe, the compiler drops them.
  std::uint64_t retries = 0, cas_attempts = 0, cas_failures = 0;
  bool merged = false;
  // lint: bounded(each retry strictly descends a finite acyclic parent chain; Lemma 5)
  while (p1 != p2) {
    const NodeID_ high = std::max(p1, p2);
    const NodeID_ low = std::min(p1, p2);
    probe.read(high);
    const NodeID_ p_high = atomic_load(comp[high]);
    // Already linked by another thread, or we win the CAS on the root.
    if (p_high == low) break;
    if (p_high == high) {
      ++cas_attempts;
      probe.write(high);
      if (compare_and_swap(comp[high], high, low)) {
        merged = true;
        break;
      }
      ++cas_failures;
    }
    // Lost the race or high was not a root: climb one level and retry.
    ++retries;
    probe.read(high);
    const NodeID_ up = atomic_load(comp[high]);
    probe.read(up);
    p1 = atomic_load(comp[up]);
    probe.read(low);
    p2 = atomic_load(comp[low]);
  }
  probe.linked(u, v, merged, retries, cas_attempts, cas_failures);
  return merged;
}

/// rem_splice's write modes.  AnyWriter: any thread may write any slot of
/// π, so every write is a CAS.  OwnedBlock: the calling thread is the only
/// writer of π[lo, hi) until it stops, as each thread is of the block it
/// runs in the owner pass (see "Link choices" above).
struct AnyWriter {};
struct OwnedBlock {
  std::int64_t lo;
  std::int64_t hi;

  /// lo <= x < hi, in one unsigned compare.
  [[nodiscard]] bool owns(std::int64_t x) const {
    return static_cast<std::uint64_t>(x - lo) <
           static_cast<std::uint64_t>(hi - lo);
  }
};

/// Unites the trees containing u and v by Rem's CAS splicing.  Each step
/// compares the parents of the two current vertices and CASes the one with
/// the larger parent to the smaller parent: a root is hooked and the call
/// ends; a non-root is spliced, and the climb goes on from its old parent
/// (a failed splice is harmless).  A write only ever lowers a parent, so
/// Invariant 1 holds.  Lock-free; safe to call concurrently on arbitrary
/// edges.  A splice splits a set until the call returns, so code that reads
/// the live forest between unions must use link() (see the header comment).
///
/// With `writes` an OwnedBlock, a write inside the block is a release
/// store, the CAS that cannot fail there, and the call pauses at its first
/// write outside the block without making it: it then returns the climb
/// pair it stopped at, which a rem_splice after every owner has stopped
/// writing finishes, and reports nothing to the probe.  A union that
/// completes inside the block returns std::nullopt.  Its stores are
/// reported by probe.write() but are not CAS attempts.
// lint: parallel-context
template <typename NodeID_, typename Probe = TelemetryProbe,
          typename Writes = AnyWriter>
auto rem_splice(NodeID_ u, NodeID_ v, pvector<NodeID_>& comp,
                Probe probe = {}, Writes writes = {}) {
  constexpr bool kOwned = std::is_same_v<Writes, OwnedBlock>;
  using Kept = std::optional<std::pair<NodeID_, NodeID_>>;
  const NodeID_ edge_u = u, edge_v = v;  // the climb moves u and v
  // Tallies in registers, reported once per call as in link().
  std::uint64_t retries = 0, cas_attempts = 0, cas_failures = 0;
  bool merged = false;
  // lint: bounded(every retry either terminates, advances down a finite chain, or loses a CAS to a thread that made progress)
  while (true) {
    probe.read(u);
    NodeID_ p_u = atomic_load(comp[u]);
    probe.read(v);
    NodeID_ p_v = atomic_load(comp[v]);
    if (p_u == p_v) break;
    // Keep the side with the larger parent in u.
    if (p_u < p_v) {
      std::swap(u, v);
      std::swap(p_u, p_v);
    }
    bool won = true;
    if constexpr (kOwned) {
      if (!writes.owns(u)) return Kept{{u, v}};
      probe.write(u);
      atomic_store(comp[u], p_v);
    } else {
      ++cas_attempts;
      probe.write(u);
      won = compare_and_swap(comp[u], p_u, p_v);
      if (!won) ++cas_failures;
    }
    if (u == p_u) {
      merged = won;  // hooked a root; a lost race re-reads both parents
      if (merged) break;
    } else {
      u = p_u;  // spliced (or lowered by another thread): climb
    }
    ++retries;
  }
  probe.linked(edge_u, edge_v, merged, retries, cas_attempts, cas_failures);
  if constexpr (kOwned) return Kept{};
}

/// The union of link choice Link: link() for RootHook, rem_splice() for
/// RemSplice.
// lint: parallel-context
template <typename Link, typename NodeID_, typename Probe>
void unite(NodeID_ u, NodeID_ v, pvector<NodeID_>& comp, Probe probe) {
  if constexpr (std::is_same_v<Link, RemSplice>)
    rem_splice(u, v, comp, probe);
  else
    link(u, v, comp, probe);
}

/// Compresses v's path so comp[v] points directly at its root (Fig 2b).
/// All accesses are atomic: during compress_all, sibling threads compress
/// overlapping parent chains, so the plain-read formulation of Fig 2b is a
/// data race (flagged by TSan via the std::thread stress tests in
/// tests/fuzz/schedule_stress_test.cpp).  On x86 these lower to the same
/// mov instructions as plain accesses.
// lint: parallel-context
template <typename NodeID_, typename Probe = TelemetryProbe>
void compress(NodeID_ v, pvector<NodeID_>& comp, Probe probe = {}) {
  probe.read(v);
  NodeID_ p = atomic_load(comp[v]);
  probe.read(p);
  NodeID_ gp = atomic_load(comp[p]);
  std::uint64_t hops = 0;
  // lint: bounded(pointer jumping strictly shortens the path to the root; Theorem 2)
  while (p != gp) {
    probe.write(v);
    atomic_store(comp[v], gp);
    p = gp;
    probe.read(p);
    gp = atomic_load(comp[p]);
    ++hops;
  }
  probe.compressed(hops);
}

/// Runs compress on every vertex in parallel (Theorem 2).
template <typename NodeID_, typename Probe = TelemetryProbe>
void compress_all(pvector<NodeID_>& comp, Probe probe = {}) {
  const std::int64_t n = static_cast<std::int64_t>(comp.size());
  select_probe(probe, [&](auto selected) {
#pragma omp parallel for schedule(dynamic, 16384)
    for (std::int64_t v = 0; v < n; ++v)
      compress(static_cast<NodeID_>(v), comp, selected);
  });
}

/// Probabilistic mode of comp[]: samples `count` entries uniformly at
/// random and returns the most frequent value — the likely label of the
/// giant intermediate component.  Requires depth-1 trees for the returned
/// label to be a root (guaranteed after compress_all).
template <typename NodeID_, typename Probe = TelemetryProbe>
NodeID_ sample_frequent_element(const pvector<NodeID_>& comp,
                                std::int32_t count = 1024,
                                std::uint64_t seed = 0xAFF0,
                                Probe probe = {}) {
  std::unordered_map<NodeID_, std::int32_t> counts;
  counts.reserve(static_cast<std::size_t>(count));
  Xoshiro256 rng(seed);
  for (std::int32_t i = 0; i < count; ++i) {
    const auto idx = rng.next_bounded(comp.size());
    probe.read(static_cast<std::int64_t>(idx));
    ++counts[comp[idx]];
  }
  // No samples (count 0) gives 0, which is π(0) under Invariant 1.
  NodeID_ best = 0;
  std::int32_t best_count = -1;
  for (const auto& [label, c] : counts) {
    if (c > best_count) {
      best = label;
      best_count = c;
    }
  }
  return best;
}

/// True iff phase 3 may skip vertex v entirely: component skipping is on
/// and v's current label equals the sampled giant component c (paper
/// §IV-D, correct by Theorem 3).  The single certified site for the skip
/// predicate — the load is atomic because sibling threads are concurrently
/// linking, and a plain read racing their CAS is UB even though any
/// snapshot is acceptable.
// lint: parallel-context
template <typename NodeID_, typename Probe = TelemetryProbe>
bool should_skip(NodeID_ v, const pvector<NodeID_>& comp,
                 const AfforestOptions& opts, NodeID_ c, Probe probe = {}) {
  if (opts.skip_largest) probe.read(v);
  return opts.skip_largest && atomic_load(comp[v]) == c;
}

/// Acceptance threshold for uniform edge sampling: an edge whose 64-bit
/// hash is <= the threshold is linked during the sampling phase.  The
/// mapping saturates at both ends: sample_p >= 1.0 yields max() (every
/// edge links — the old unsaturated cast computed sample_p * 2^64, which
/// does not fit in uint64 and is UB per [conv.fpint]), sample_p <= 0.0
/// yields 0.
inline std::uint64_t uniform_sample_threshold(double sample_p) {
  const double max_u64 =
      static_cast<double>(std::numeric_limits<std::uint64_t>::max());
  const double scaled = sample_p * max_u64;
  if (scaled >= max_u64) return std::numeric_limits<std::uint64_t>::max();
  if (scaled <= 0.0) return 0;
  return static_cast<std::uint64_t>(scaled);
}

/// A span of one vertex's neighborhood, neighbors [begin, end): the
/// Chunked schedule's unit of work, so one hub's neighborhood spreads over
/// threads (the CPU stand-in for the GPU variant's load balancing, §VI-A).
template <typename NodeID_>
struct EdgeChunk {
  NodeID_ vertex;
  std::int64_t begin;
  std::int64_t end;
};

/// Splits every neighborhood (starting at `start_offset` neighbors in)
/// into chunks of at most chunk_size edges.  Throws std::invalid_argument
/// for chunk_size <= 0, which would divide by zero or never advance.
template <typename NodeID_>
pvector<EdgeChunk<NodeID_>> plan_chunks(const CSRGraph<NodeID_>& g,
                                        std::int64_t chunk_size,
                                        std::int64_t start_offset = 0) {
  if (chunk_size <= 0)
    throw std::invalid_argument("plan_chunks: chunk size must be positive");
  const std::int64_t n = g.num_nodes();
  pvector<std::int64_t> counts(static_cast<std::size_t>(n));
#pragma omp parallel for schedule(static)
  for (std::int64_t v = 0; v < n; ++v) {
    const std::int64_t deg =
        std::max<std::int64_t>(0, g.out_degree(static_cast<NodeID_>(v)) -
                                      start_offset);
    counts[v] = (deg + chunk_size - 1) / chunk_size;
  }
  const auto offsets = parallel_prefix_sum(counts);
  pvector<EdgeChunk<NodeID_>> chunks(
      static_cast<std::size_t>(offsets[n]));
#pragma omp parallel for schedule(static)
  for (std::int64_t v = 0; v < n; ++v) {
    const std::int64_t deg = g.out_degree(static_cast<NodeID_>(v));
    std::int64_t pos = offsets[v];
    for (std::int64_t b = start_offset; b < deg; b += chunk_size) {
      chunks[pos++] = EdgeChunk<NodeID_>{
          static_cast<NodeID_>(v), b, std::min(deg, b + chunk_size)};
    }
  }
  return chunks;
}

/// Phase 3 of Fig 5 (lines 11–15), on either schedule: every vertex not
/// skipped links its out-neighbors from index `start` onward.  With the
/// skip on, a directed graph's vertices not skipped also link their full
/// in-neighborhoods: an arc u->v whose tail u was skipped is still reached
/// from v's in-edges, preserving Theorem 3's both-directions argument.
/// Without the skip every arc is linked from its tail, so there is no
/// in-edge pass.  Every edge goes through unite<Link>.
template <typename Link, typename NodeID_, typename Probe = TelemetryProbe>
void link_remaining(const CSRGraph<NodeID_>& g, pvector<NodeID_>& comp,
                    std::int32_t start, const AfforestOptions& opts,
                    NodeID_ c, Probe probe = {}) {
  using OffsetT = typename CSRGraph<NodeID_>::OffsetT;
  const std::int64_t n = g.num_nodes();
  if (const auto* chunked = std::get_if<Chunked>(&opts.schedule)) {
    const auto chunks = plan_chunks(g, chunked->size, start);
    const std::int64_t nc = static_cast<std::int64_t>(chunks.size());
#pragma omp parallel for schedule(dynamic, 64)
    for (std::int64_t i = 0; i < nc; ++i) {
      const EdgeChunk<NodeID_>& chunk = chunks[i];
      if (should_skip(chunk.vertex, comp, opts, c, probe)) {
        // A vertex counts as skipped once, at its first span.
        probe.skipped(static_cast<std::uint64_t>(chunk.end - chunk.begin),
                      chunk.begin == start ? 1 : 0);
        continue;
      }
      for (std::int64_t k = chunk.begin; k < chunk.end; ++k)
        unite<Link>(chunk.vertex, g.neighbor(chunk.vertex, k), comp, probe);
    }
  } else {
#pragma omp parallel for schedule(dynamic, 1024)
    for (std::int64_t v = 0; v < n; ++v) {
      if (should_skip(static_cast<NodeID_>(v), comp, opts, c, probe)) {
        // Telemetry quantifies §IV-D directly: edges the skip avoided are
        // the vertex's remaining out-neighborhood (the in-neighborhood is
        // handled from the other endpoint, as in Theorem 3's argument).
        // The degree load lives behind counts_skips(), which is false for
        // NullProbe, so a dormant solve's skip branch reads no offsets —
        // this is the hottest path on giant-component graphs.
        if (probe.counts_skips()) {
          const OffsetT deg = g.out_degree(static_cast<NodeID_>(v));
          probe.skipped(
              deg > start ? static_cast<std::uint64_t>(deg - start) : 0, 1);
        }
        continue;
      }
      const OffsetT deg = g.out_degree(static_cast<NodeID_>(v));
      for (OffsetT k = start; k < deg; ++k)
        unite<Link>(static_cast<NodeID_>(v),
                    g.neighbor(static_cast<NodeID_>(v), k), comp, probe);
    }
  }
  if (!g.directed() || !opts.skip_largest) return;
#pragma omp parallel for schedule(dynamic, 1024)
  for (std::int64_t v = 0; v < n; ++v) {
    if (should_skip(static_cast<NodeID_>(v), comp, opts, c, probe)) continue;
    for (NodeID_ u : g.in_neigh(static_cast<NodeID_>(v)))
      unite<Link>(static_cast<NodeID_>(v), u, comp, probe);
  }
}

namespace detail {

/// The owner pass's block size: kOwnerBlockMax ids, halved, not below
/// kOwnerBlockMin, until a team of `threads` has kOwnerBlocksPerThread
/// blocks per thread to balance.
inline constexpr std::int64_t kOwnerBlockMax = std::int64_t{1} << 18;
inline constexpr std::int64_t kOwnerBlockMin = 4096;
inline constexpr std::int64_t kOwnerBlocksPerThread = 4;

inline std::int64_t owner_block_size(std::int64_t n, int threads) {
  const auto widest = static_cast<std::uint64_t>(
      n / (kOwnerBlocksPerThread * std::max(threads, 1)));
  return std::clamp(static_cast<std::int64_t>(std::bit_floor(widest)),
                    kOwnerBlockMin, kOwnerBlockMax);
}

/// The locality test that picks the owner pass: true iff at least half of
/// the first min(k, deg) neighbors of `opts.sample_count` random vertices
/// (seeded by opts.sample_seed) lie in their vertex's block.  Below that,
/// the owner pass would keep too many pairs to beat the CAS pass.
template <typename NodeID_>
bool samples_stay_in_blocks(const CSRGraph<NodeID_>& g, std::int32_t k,
                            std::int64_t block, const AfforestOptions& opts) {
  const std::int64_t n = g.num_nodes();
  if (n == 0) return false;
  Xoshiro256 rng(opts.sample_seed);
  std::int64_t inside = 0, sampled = 0;
  for (std::int32_t s = 0; s < opts.sample_count; ++s) {
    const auto v = static_cast<NodeID_>(rng.next_bounded(n));
    const std::int64_t end = std::min<std::int64_t>(k, g.out_degree(v));
    for (std::int64_t i = 0; i < end; ++i)
      inside += std::int64_t{g.neighbor(v, i)} / block == v / block;
    sampled += end;
  }
  return sampled > 0 && 2 * inside >= sampled;
}

/// A thread's kept climb pairs.  The vector outlives the solve, so a warm
/// solve faults in no pages for it.
template <typename NodeID_>
std::vector<std::pair<NodeID_, NodeID_>>& kept_pairs() {
  thread_local std::vector<std::pair<NodeID_, NodeID_>> kept;
  return kept;
}

/// The owner pass (see "Link choices" above): threads take blocks of
/// `block` ids one at a time, and each vertex of a block unites its first
/// min(k, deg) neighbors by rem_splice in the block's write mode.  After
/// the barrier, each thread finishes the climb pairs it kept by the CAS
/// rem_splice.
template <typename NodeID_, typename Probe>
void sample_owned_blocks(const CSRGraph<NodeID_>& g, pvector<NodeID_>& comp,
                         std::int32_t k, std::int64_t block, Probe probe) {
  const std::int64_t n = g.num_nodes();
  const std::int64_t blocks = (n + block - 1) / block;
#pragma omp parallel
  {
    auto& kept = kept_pairs<NodeID_>();
    kept.clear();
#pragma omp for schedule(dynamic, 1)
    for (std::int64_t b = 0; b < blocks; ++b) {
      const OwnedBlock owned{b * block, std::min(n, (b + 1) * block)};
      for (std::int64_t v = owned.lo; v < owned.hi; ++v) {
        const auto x = static_cast<NodeID_>(v);
        const std::int64_t end = std::min<std::int64_t>(k, g.out_degree(x));
        for (std::int64_t i = 0; i < end; ++i)
          if (const auto pair =
                  rem_splice(x, g.neighbor(x, i), comp, probe, owned))
            kept.push_back(*pair);
      }
    }
    // Past the loop's barrier no owner writes: finish with CASes.
    for (const auto& [u, w] : kept) rem_splice(u, w, comp, probe);
  }
}

/// Under RemSplice, runs the owner pass over the first k neighbors of
/// every vertex if the locality test picks it, and reports whether it ran.
template <typename Link, typename NodeID_, typename Probe>
bool sampled_by_owners(const CSRGraph<NodeID_>& g, pvector<NodeID_>& comp,
                       std::int32_t k, const AfforestOptions& opts,
                       Probe probe) {
  if constexpr (!std::is_same_v<Link, RemSplice>) {
    return false;
  } else {
    const std::int64_t block =
        owner_block_size(g.num_nodes(), omp_get_max_threads());
    if (!samples_stay_in_blocks(g, k, block, opts)) return false;
    sample_owned_blocks(g, comp, k, block, probe);
    return true;
  }
}

/// Fig 5's phases with every union through unite<Link>, reported to
/// `probe`.  afforest_cc validates the options and picks Link.  Interleave
/// = false drops the compress after each sampling pass; only
/// afforest_no_interleave asks for that.
template <typename Link, bool Interleave = true, typename NodeID_,
          typename Probe>
ComponentLabels<NodeID_> afforest_phases(const CSRGraph<NodeID_>& g,
                                         const AfforestOptions& opts,
                                         AfforestPhaseTimes* times,
                                         Probe probe) {
  if (times != nullptr) *times = {};
  // The one phase clock: each ScopedPhase records its afforest.* name when
  // telemetry is armed and adds to the matching *times field when given.
  const auto slot = [times](double AfforestPhaseTimes::*field) {
    return times != nullptr ? &(times->*field) : nullptr;
  };
  const std::int64_t n = g.num_nodes();
  ComponentLabels<NodeID_> comp;
  {
    const telemetry::ScopedPhase phase("afforest.init",
                                       slot(&AfforestPhaseTimes::init_s));
    comp = identity_labels<NodeID_>(n);
  }
  const auto compress_phase = [&](AfforestPhase which, std::int32_t round) {
    probe.phase(which, round, comp);
    const telemetry::ScopedPhase phase("afforest.compress",
                                       slot(&AfforestPhaseTimes::compress_s));
    compress_all(comp, probe);
  };

  // Phase 1: subgraph sampling (Fig 5 lines 2–9).  Neighbor rounds sample
  // a prefix of every neighborhood, so phase 3 resumes after it; a uniform
  // sample is no prefix, so phase 3 revisits every edge — the tracking
  // cost §VI-A cites for the first-k-neighbors choice.
  const auto* rounds = std::get_if<NeighborRounds>(&opts.sampling);
  const std::int32_t start =
      rounds != nullptr ? std::max(std::int32_t{0}, rounds->k) : 0;
  // Pass r unites neighbors [r * width, (r + 1) * width) of every vertex.
  // RootHook runs the paper's k passes of width 1, each followed by its
  // compress; RemSplice's splices keep its paths short without them, so it
  // unites all k neighbors in one pass (see "Link choices" above): the
  // owner pass where the locality test picks it, the loop below otherwise.
  const std::int32_t width =
      std::is_same_v<Link, RemSplice> ? std::max(start, std::int32_t{1}) : 1;
  for (std::int32_t r = 0; r * width < start; ++r) {
    probe.phase(AfforestPhase::kSample, r, comp);
    {
      const telemetry::ScopedPhase phase(
          "afforest.sampling", slot(&AfforestPhaseTimes::sampling_s));
      const std::int64_t begin = std::int64_t{r} * width;
      if (!sampled_by_owners<Link>(g, comp, start, opts, probe)) {
#pragma omp parallel for schedule(dynamic, 16384)
        for (std::int64_t v = 0; v < n; ++v) {
          const std::int64_t end = std::min<std::int64_t>(
              begin + width, g.out_degree(static_cast<NodeID_>(v)));
          for (std::int64_t i = begin; i < end; ++i)
            unite<Link>(static_cast<NodeID_>(v),
                        g.neighbor(static_cast<NodeID_>(v), i), comp, probe);
        }
      }
    }
    if constexpr (Interleave) compress_phase(AfforestPhase::kCompress, r);
  }
  if (rounds == nullptr) {
    probe.phase(AfforestPhase::kSample, 0, comp);
    {
      const telemetry::ScopedPhase phase(
          "afforest.sampling", slot(&AfforestPhaseTimes::sampling_s));
      const std::uint64_t threshold =
          uniform_sample_threshold(std::get<UniformEdges>(opts.sampling).p);
#pragma omp parallel for schedule(dynamic, 4096)
      for (std::int64_t v = 0; v < n; ++v) {
        for (NodeID_ w : g.out_neigh(static_cast<NodeID_>(v))) {
          SplitMix64 hash((static_cast<std::uint64_t>(v) << 32) ^
                          static_cast<std::uint64_t>(w) ^ opts.sample_seed);
          if (hash.next() <= threshold)
            unite<Link>(static_cast<NodeID_>(v), w, comp, probe);
        }
      }
    }
    if constexpr (Interleave) compress_phase(AfforestPhase::kCompress, 0);
  }

  // Phase 2: identify the giant intermediate component (Fig 5 line 10).
  NodeID_ c = 0;
  if (opts.skip_largest && n > 0) {
    probe.phase(AfforestPhase::kFindLargest, 0, comp);
    const telemetry::ScopedPhase phase(
        "afforest.find_largest", slot(&AfforestPhaseTimes::find_component_s));
    c = sample_frequent_element(comp, opts.sample_count, opts.sample_seed,
                                probe);
  }

  // Phase 3: link remaining edges, skipping vertices inside c.
  probe.phase(AfforestPhase::kFinalLink, 0, comp);
  {
    const telemetry::ScopedPhase phase(
        "afforest.final_link", slot(&AfforestPhaseTimes::final_link_s));
    link_remaining<Link>(g, comp, start, opts, c, probe);
  }

  compress_phase(AfforestPhase::kFinalCompress, 0);
  return comp;
}

}  // namespace detail

/// Full Afforest (paper Fig 5) for every AfforestOptions cell.  Returns
/// component labels (weakly connected on a directed graph); labels are the
/// minimum vertex id in each component (a property of Invariant 1 +
/// convergence, relied on by tests).  Fills `times` when given, and
/// reports to `probe` (see TelemetryProbe and select_probe).  Throws
/// std::invalid_argument before any work for a Chunked size <= 0, or for a
/// directed graph without in-edges when skipping (phase 3 reaches a skipped
/// tail's arcs only through them).
template <typename NodeID_, typename Probe = TelemetryProbe>
ComponentLabels<NodeID_> afforest_cc(const CSRGraph<NodeID_>& g,
                                     const AfforestOptions& opts = {},
                                     AfforestPhaseTimes* times = nullptr,
                                     Probe probe = {}) {
  const auto* chunked = std::get_if<Chunked>(&opts.schedule);
  if (chunked != nullptr && chunked->size <= 0)
    throw std::invalid_argument("afforest_cc: Chunked size must be positive");
  if (opts.skip_largest && !g.has_in_edges())
    throw std::invalid_argument(
        "afforest_cc: directed graph without in-edges (build it with "
        "build_directed, or BuilderOptions::build_in_edges)");
  return select_probe(probe, [&](auto selected) {
    return std::visit(
        [&](auto choice) {
          return detail::afforest_phases<decltype(choice)>(g, opts, times,
                                                           selected);
        },
        opts.link);
  });
}

/// Afforest without large-component skipping — the "Afforest (no skip)"
/// series of Fig 7b / Fig 8b / Fig 8c.
template <typename NodeID_>
ComponentLabels<NodeID_> afforest_no_skip(const CSRGraph<NodeID_>& g,
                                          std::int32_t neighbor_rounds = 2) {
  AfforestOptions opts;
  opts.sampling = NeighborRounds{neighbor_rounds};
  opts.skip_largest = false;
  return afforest_cc(g, opts);
}

/// Afforest without the compress after each sampling round — the "no
/// interleave" row of bench_ablation's [2]: trees deepen across rounds and
/// the final link climbs them.  RootHook and no skip, so it differs from
/// afforest_instrumented's cell only in those compresses.
template <typename NodeID_, typename Probe = TelemetryProbe>
ComponentLabels<NodeID_> afforest_no_interleave(
    const CSRGraph<NodeID_>& g, std::int32_t neighbor_rounds = 2,
    Probe probe = {}) {
  AfforestOptions opts;
  opts.sampling = NeighborRounds{neighbor_rounds};
  opts.link = RootHook{};
  opts.skip_largest = false;
  return select_probe(probe, [&](auto selected) {
    return detail::afforest_phases<RootHook, false>(g, opts, nullptr,
                                                    selected);
  });
}

}  // namespace afforest
