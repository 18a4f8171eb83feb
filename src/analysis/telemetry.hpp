// Performance telemetry: cheap, thread-local-aggregated counters for the
// CC kernels' hot paths, plus per-phase wall times and a peak-RSS probe.
//
// The paper's evaluation (§V–§VI) is built on per-phase observations —
// Table II's iteration counts, Fig 6's linkage/coverage, Fig 7's access
// patterns, Fig 8's phase budgets — and ConnectIt-style frameworks show
// that a sampling-based CC implementation lives or dies by systematic
// measurement.  This header is the single collection point: kernels call
// the `on_*` hooks, orchestration code opens `ScopedPhase` scopes, and the
// bench harness snapshots a `Report` into its machine-readable output
// (docs/BENCHMARKING.md has the counter glossary).
//
// Cost discipline (the "zero-overhead-when-off" contract):
//   * compile switch — building with -DAFFOREST_TELEMETRY=OFF (CMake
//     option; defines AFFOREST_TELEMETRY_DISABLED) turns enabled() into a
//     compile-time `false`, so every hook and its feeding arithmetic is
//     dead code the optimizer deletes.
//   * runtime switch — in telemetry-compiled builds (the default) the
//     counters stay dormant behind one relaxed atomic-bool load per hook;
//     set_enabled(true) or the AFFOREST_TELEMETRY environment variable
//     arms them.
//   * when armed, every increment lands in a cache-line-aligned
//     thread-local block (no cross-thread contention); the fields are
//     relaxed atomics so snapshot()/reset() from another thread is
//     race-free under TSan without any barrier assumptions about the
//     OpenMP runtime.
//
// Thread-local blocks are heap-allocated once per thread and intentionally
// never freed: they must outlive the thread so a snapshot taken after a
// worker exits reads valid memory.  The "leak" is bounded by the number of
// distinct threads the process ever creates.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/env.hpp"
#include "util/failpoint.hpp"
#include "util/platform.hpp"
#include "util/timer.hpp"

namespace afforest::telemetry {

/// True when the counters are compiled into this build (the CMake
/// AFFOREST_TELEMETRY option, default ON).
inline constexpr bool compiled_in() {
#ifdef AFFOREST_TELEMETRY_DISABLED
  return false;
#else
  return true;
#endif
}

namespace detail {
inline std::atomic<bool>& enabled_flag() {
  // Armed at first query from the environment so `AFFOREST_TELEMETRY=1
  // ./bench_...` works without touching the binary's flags.
  static std::atomic<bool> flag{env::is_set("AFFOREST_TELEMETRY")};
  return flag;
}
}  // namespace detail

/// Runtime switch: true iff counters are compiled in AND armed.
inline bool enabled() {
  if constexpr (!compiled_in()) return false;
  return detail::enabled_flag().load(std::memory_order_relaxed);
}

inline void set_enabled(bool on) {
  if constexpr (compiled_in())
    detail::enabled_flag().store(on, std::memory_order_relaxed);
}

/// Aggregated view of every counter, summed over all thread blocks.
/// Field semantics are documented in docs/BENCHMARKING.md's glossary.
struct Counters {
  std::uint64_t link_calls = 0;        ///< link() + rem_splice() calls
  std::uint64_t link_retries = 0;      ///< extra climbing passes in either
  std::uint64_t link_retry_peak = 0;   ///< deepest single-call retry chain
  std::uint64_t cas_attempts = 0;      ///< CASes: link() root hooks, and
                                       ///< rem_splice() hooks and splices
  std::uint64_t cas_failures = 0;      ///< lost CAS races in either
  std::uint64_t compress_calls = 0;    ///< compress() invocations
  std::uint64_t compress_hops = 0;     ///< total pointer-jump hops
  std::uint64_t phase3_vertices_skipped = 0;  ///< §IV-D skip: vertices
  std::uint64_t phase3_edges_skipped = 0;     ///< §IV-D skip: edges
  std::uint64_t iterations = 0;        ///< outer fixpoint iterations (SV/LP)
  std::uint64_t sv_hooks_fired = 0;    ///< successful SV hook stores
  std::uint64_t lp_label_updates = 0;  ///< LP label improvements
  std::uint64_t serve_queries_served = 0;  ///< serving-layer queries answered
  std::uint64_t serve_snapshot_swaps = 0;  ///< serving-layer snapshot publishes
  std::uint64_t serve_edges_ingested = 0;  ///< serving-layer edges applied
  std::uint64_t dynamic_deletes_free = 0;  ///< deletions certified free (O(1))
  std::uint64_t dynamic_rebuilds = 0;      ///< components rebuilt after cuts
  std::uint64_t dynamic_rebuild_vertices = 0;  ///< vertices relabeled by rebuilds
  std::uint64_t wal_records_appended = 0;  ///< WAL records journaled
  std::uint64_t wal_bytes_appended = 0;    ///< WAL bytes written (incl. framing)
  std::uint64_t wal_records_replayed = 0;  ///< WAL records re-applied in recovery
  std::uint64_t wal_checkpoints_written = 0;  ///< checkpoints durably installed
  std::uint64_t wal_torn_tail_truncations = 0;  ///< torn WAL tails discarded
  std::uint64_t shard_boundary_msgs = 0;   ///< cross-shard boundary edges routed
  std::uint64_t shard_quotient_edges = 0;  ///< deduped root-pair messages merged
  std::uint64_t shard_epoch_publishes = 0;  ///< cross-shard epochs published
  std::uint64_t ingest_edges_coalesced = 0;  ///< exact duplicates merged pre-writer
  std::uint64_t ingest_edges_dropped_noop = 0;  ///< root-equal edges filtered
  std::uint64_t cache_hits = 0;            ///< membership-cache epoch-exact hits
  std::uint64_t cache_misses = 0;          ///< membership-cache misses (computed)
  std::uint64_t cache_drops = 0;           ///< membership-cache lost install races
  std::uint64_t failpoints_fired = 0;      ///< injected faults fired (live total,
                                           ///< not reset by telemetry::reset)
};

namespace detail {

struct alignas(kCacheLineBytes) ThreadCounters {
  std::atomic<std::uint64_t> link_calls{0};
  std::atomic<std::uint64_t> link_retries{0};
  std::atomic<std::uint64_t> link_retry_peak{0};
  std::atomic<std::uint64_t> cas_attempts{0};
  std::atomic<std::uint64_t> cas_failures{0};
  std::atomic<std::uint64_t> compress_calls{0};
  std::atomic<std::uint64_t> compress_hops{0};
  std::atomic<std::uint64_t> phase3_vertices_skipped{0};
  std::atomic<std::uint64_t> phase3_edges_skipped{0};
  std::atomic<std::uint64_t> iterations{0};
  std::atomic<std::uint64_t> sv_hooks_fired{0};
  std::atomic<std::uint64_t> lp_label_updates{0};
  std::atomic<std::uint64_t> serve_queries_served{0};
  std::atomic<std::uint64_t> serve_snapshot_swaps{0};
  std::atomic<std::uint64_t> serve_edges_ingested{0};
  std::atomic<std::uint64_t> dynamic_deletes_free{0};
  std::atomic<std::uint64_t> dynamic_rebuilds{0};
  std::atomic<std::uint64_t> dynamic_rebuild_vertices{0};
  std::atomic<std::uint64_t> wal_records_appended{0};
  std::atomic<std::uint64_t> wal_bytes_appended{0};
  std::atomic<std::uint64_t> wal_records_replayed{0};
  std::atomic<std::uint64_t> wal_checkpoints_written{0};
  std::atomic<std::uint64_t> wal_torn_tail_truncations{0};
  std::atomic<std::uint64_t> shard_boundary_msgs{0};
  std::atomic<std::uint64_t> shard_quotient_edges{0};
  std::atomic<std::uint64_t> shard_epoch_publishes{0};
  std::atomic<std::uint64_t> ingest_edges_coalesced{0};
  std::atomic<std::uint64_t> ingest_edges_dropped_noop{0};
  std::atomic<std::uint64_t> cache_hits{0};
  std::atomic<std::uint64_t> cache_misses{0};
  std::atomic<std::uint64_t> cache_drops{0};
};

struct BlockRegistry {
  std::mutex mu;
  std::vector<ThreadCounters*> blocks;
};

inline BlockRegistry& registry() {
  static BlockRegistry r;
  return r;
}

/// The calling thread's counter block (registered on first use, leaked by
/// design — see the header comment).
inline ThreadCounters& local() {
  thread_local ThreadCounters* block = [] {
    auto* b = new ThreadCounters();
    BlockRegistry& r = registry();
    const std::lock_guard<std::mutex> lock(r.mu);
    r.blocks.push_back(b);
    return b;
  }();
  return *block;
}

constexpr auto kRelaxed = std::memory_order_relaxed;

inline void add(std::atomic<std::uint64_t>& field, std::uint64_t delta) {
  if (delta != 0) field.fetch_add(delta, kRelaxed);
}

}  // namespace detail

// ---- hot-path hooks -------------------------------------------------------
// Kernels accumulate into stack locals and call these once per primitive
// invocation; each hook is a relaxed-load branch when dormant and a handful
// of uncontended relaxed adds when armed.

inline void on_link(std::uint64_t retries, std::uint64_t cas_attempts,
                    std::uint64_t cas_failures) {
  if (!enabled()) return;
  detail::ThreadCounters& b = detail::local();
  b.link_calls.fetch_add(1, detail::kRelaxed);
  detail::add(b.link_retries, retries);
  detail::add(b.cas_attempts, cas_attempts);
  detail::add(b.cas_failures, cas_failures);
  // Owner-exclusive peak update: only this thread writes its block, so a
  // plain compare-then-store on the relaxed atomic is sufficient.
  if (retries > b.link_retry_peak.load(detail::kRelaxed))
    b.link_retry_peak.store(retries, detail::kRelaxed);
}

inline void on_compress(std::uint64_t hops) {
  if (!enabled()) return;
  detail::ThreadCounters& b = detail::local();
  b.compress_calls.fetch_add(1, detail::kRelaxed);
  detail::add(b.compress_hops, hops);
}

/// The chunked final phase skips per span and passes vertices_skipped = 1
/// only for a vertex's first span.
inline void on_phase3_skip(std::uint64_t edges_skipped,
                           std::uint64_t vertices_skipped = 1) {
  if (!enabled()) return;
  detail::ThreadCounters& b = detail::local();
  detail::add(b.phase3_vertices_skipped, vertices_skipped);
  detail::add(b.phase3_edges_skipped, edges_skipped);
}

/// One outer fixpoint iteration (SV hook+shortcut round, LP sweep, ...).
inline void add_iterations(std::uint64_t n) {
  if (!enabled()) return;
  detail::add(detail::local().iterations, n);
}

inline void add_sv_hooks_fired(std::uint64_t n) {
  if (!enabled()) return;
  detail::add(detail::local().sv_hooks_fired, n);
}

inline void add_lp_label_updates(std::uint64_t n) {
  if (!enabled()) return;
  detail::add(detail::local().lp_label_updates, n);
}

// Serving-layer hooks (src/serve/query_engine.hpp).  Queries are tallied
// once per answered batch (single-query helpers count 1), so the hot read
// path pays one relaxed-bool load per batch, not per query.

inline void on_queries_served(std::uint64_t n) {
  if (!enabled()) return;
  detail::add(detail::local().serve_queries_served, n);
}

inline void on_snapshot_swap() {
  if (!enabled()) return;
  detail::local().serve_snapshot_swaps.fetch_add(1, detail::kRelaxed);
}

inline void on_edges_ingested(std::uint64_t n) {
  if (!enabled()) return;
  detail::add(detail::local().serve_edges_ingested, n);
}

// Decremental-path hooks (src/serve/dynamic_cc.hpp).  Free deletions are
// tallied once per applied batch; rebuilds once per touched component, so
// a delete-only pass over non-tree edges shows dynamic_rebuilds == 0 —
// the invariant the streaming perf gate pins.

inline void on_dynamic_deletes_free(std::uint64_t n) {
  if (!enabled()) return;
  detail::add(detail::local().dynamic_deletes_free, n);
}

inline void on_dynamic_rebuild(std::uint64_t vertices) {
  if (!enabled()) return;
  detail::ThreadCounters& b = detail::local();
  b.dynamic_rebuilds.fetch_add(1, detail::kRelaxed);
  detail::add(b.dynamic_rebuild_vertices, vertices);
}

// Durability hooks (src/serve/wal.hpp, src/serve/durable_engine.hpp).  All
// fire from the single-writer thread, so they land in one block; tallied
// once per record/checkpoint, never per edge.

inline void on_wal_append(std::uint64_t bytes) {
  if (!enabled()) return;
  detail::ThreadCounters& b = detail::local();
  b.wal_records_appended.fetch_add(1, detail::kRelaxed);
  detail::add(b.wal_bytes_appended, bytes);
}

inline void on_wal_replay(std::uint64_t records) {
  if (!enabled()) return;
  detail::add(detail::local().wal_records_replayed, records);
}

inline void on_wal_checkpoint() {
  if (!enabled()) return;
  detail::local().wal_checkpoints_written.fetch_add(1, detail::kRelaxed);
}

inline void on_wal_torn_tail() {
  if (!enabled()) return;
  detail::local().wal_torn_tail_truncations.fetch_add(1, detail::kRelaxed);
}

// Sharded-tier hooks (src/shard/sharded_engine.hpp).  All fire from the
// coordinator's single writer thread, tallied once per batch or publish —
// these are the PartitionedCCStats communication-volume quantities promoted
// to live counters (boundary message volume, deduped quotient size, epochs).

inline void on_shard_boundary_msgs(std::uint64_t n) {
  if (!enabled()) return;
  detail::add(detail::local().shard_boundary_msgs, n);
}

inline void on_shard_quotient_edges(std::uint64_t n) {
  if (!enabled()) return;
  detail::add(detail::local().shard_quotient_edges, n);
}

inline void on_shard_epoch_publish() {
  if (!enabled()) return;
  detail::local().shard_epoch_publishes.fetch_add(1, detail::kRelaxed);
}

// Ingestion-pipeline hooks (src/serve/ingest.hpp).  Coalesce/no-op tallies
// fire once per pumped batch from the single consumer thread; the cache
// hooks fire per lookup from reader threads (one relaxed add each — same
// cost class as the single-query serve hooks above).

inline void on_ingest_coalesced(std::uint64_t n) {
  if (!enabled()) return;
  detail::add(detail::local().ingest_edges_coalesced, n);
}

inline void on_ingest_dropped_noop(std::uint64_t n) {
  if (!enabled()) return;
  detail::add(detail::local().ingest_edges_dropped_noop, n);
}

inline void on_cache_hit() {
  if (!enabled()) return;
  detail::local().cache_hits.fetch_add(1, detail::kRelaxed);
}

inline void on_cache_miss() {
  if (!enabled()) return;
  detail::local().cache_misses.fetch_add(1, detail::kRelaxed);
}

inline void on_cache_drop() {
  if (!enabled()) return;
  detail::local().cache_drops.fetch_add(1, detail::kRelaxed);
}

// ---- aggregation ----------------------------------------------------------

/// Sums every thread block.  Safe to call concurrently with running
/// kernels (relaxed reads) — values are then a momentary lower bound.
inline Counters snapshot() {
  Counters total;
  if constexpr (!compiled_in()) return total;
  detail::BlockRegistry& r = detail::registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  for (const detail::ThreadCounters* b : r.blocks) {
    total.link_calls += b->link_calls.load(detail::kRelaxed);
    total.link_retries += b->link_retries.load(detail::kRelaxed);
    total.link_retry_peak =
        std::max(total.link_retry_peak, b->link_retry_peak.load(detail::kRelaxed));
    total.cas_attempts += b->cas_attempts.load(detail::kRelaxed);
    total.cas_failures += b->cas_failures.load(detail::kRelaxed);
    total.compress_calls += b->compress_calls.load(detail::kRelaxed);
    total.compress_hops += b->compress_hops.load(detail::kRelaxed);
    total.phase3_vertices_skipped +=
        b->phase3_vertices_skipped.load(detail::kRelaxed);
    total.phase3_edges_skipped += b->phase3_edges_skipped.load(detail::kRelaxed);
    total.iterations += b->iterations.load(detail::kRelaxed);
    total.sv_hooks_fired += b->sv_hooks_fired.load(detail::kRelaxed);
    total.lp_label_updates += b->lp_label_updates.load(detail::kRelaxed);
    total.serve_queries_served +=
        b->serve_queries_served.load(detail::kRelaxed);
    total.serve_snapshot_swaps +=
        b->serve_snapshot_swaps.load(detail::kRelaxed);
    total.serve_edges_ingested +=
        b->serve_edges_ingested.load(detail::kRelaxed);
    total.dynamic_deletes_free += b->dynamic_deletes_free.load(detail::kRelaxed);
    total.dynamic_rebuilds += b->dynamic_rebuilds.load(detail::kRelaxed);
    total.dynamic_rebuild_vertices +=
        b->dynamic_rebuild_vertices.load(detail::kRelaxed);
    total.wal_records_appended += b->wal_records_appended.load(detail::kRelaxed);
    total.wal_bytes_appended += b->wal_bytes_appended.load(detail::kRelaxed);
    total.wal_records_replayed +=
        b->wal_records_replayed.load(detail::kRelaxed);
    total.wal_checkpoints_written +=
        b->wal_checkpoints_written.load(detail::kRelaxed);
    total.wal_torn_tail_truncations +=
        b->wal_torn_tail_truncations.load(detail::kRelaxed);
    total.shard_boundary_msgs += b->shard_boundary_msgs.load(detail::kRelaxed);
    total.shard_quotient_edges +=
        b->shard_quotient_edges.load(detail::kRelaxed);
    total.shard_epoch_publishes +=
        b->shard_epoch_publishes.load(detail::kRelaxed);
    total.ingest_edges_coalesced +=
        b->ingest_edges_coalesced.load(detail::kRelaxed);
    total.ingest_edges_dropped_noop +=
        b->ingest_edges_dropped_noop.load(detail::kRelaxed);
    total.cache_hits += b->cache_hits.load(detail::kRelaxed);
    total.cache_misses += b->cache_misses.load(detail::kRelaxed);
    total.cache_drops += b->cache_drops.load(detail::kRelaxed);
  }
  // Failpoint fire counts live in the failpoint registry (util/failpoint.hpp
  // must stay include-light, so the dependency points this way).  They are
  // deliberately NOT zeroed by telemetry::reset(): resetting would re-arm
  // "@N" one-shot sites mid-test.  Disarmed runs report 0.
  total.failpoints_fired = failpoints_total_fires();
  return total;
}

// ---- per-phase wall time --------------------------------------------------

/// Accumulated wall time for one named phase: seconds summed over `count`
/// scope entries (insertion-ordered, so reports read in execution order).
struct PhaseSample {
  std::string name;
  double seconds = 0;
  std::uint64_t count = 0;
};

namespace detail {
struct PhaseTable {
  std::mutex mu;
  std::vector<PhaseSample> rows;
};
inline PhaseTable& phase_table() {
  static PhaseTable t;
  return t;
}
}  // namespace detail

/// Accumulates `seconds` under `name`.  Phases are recorded from the
/// serial orchestration code between parallel regions, so the mutex is
/// uncontended in practice.
inline void record_phase(std::string_view name, double seconds) {
  if (!enabled()) return;
  detail::PhaseTable& t = detail::phase_table();
  const std::lock_guard<std::mutex> lock(t.mu);
  for (PhaseSample& row : t.rows) {
    if (row.name == name) {
      row.seconds += seconds;
      ++row.count;
      return;
    }
  }
  t.rows.push_back({std::string(name), seconds, 1});
}

inline std::vector<PhaseSample> phases() {
  if constexpr (!compiled_in()) return {};
  detail::PhaseTable& t = detail::phase_table();
  const std::lock_guard<std::mutex> lock(t.mu);
  return t.rows;
}

/// RAII phase stopwatch.  Records the scope under `name` when telemetry is
/// armed, and adds its seconds to `*sink` when a sink is given (phase times
/// from an unarmed run, e.g. afforest_cc's AfforestPhaseTimes).  Reads no
/// clock when neither wants it.
class ScopedPhase {
 public:
  explicit ScopedPhase(std::string_view name, double* sink = nullptr)
      : active_(enabled()), sink_(sink), name_(name) {
    if (active_ || sink_ != nullptr) timer_.start();
  }
  ~ScopedPhase() {
    if (!active_ && sink_ == nullptr) return;
    timer_.stop();
    if (active_) record_phase(name_, timer_.seconds());
    if (sink_ != nullptr) *sink_ += timer_.seconds();
  }
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  bool active_;
  double* sink_;
  std::string_view name_;
  Timer timer_;
};

// ---- process probes -------------------------------------------------------

/// Peak resident set size (VmHWM) in bytes; 0 when /proc is unavailable.
inline std::uint64_t peak_rss_bytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::uint64_t kb = 0;
      for (const char c : line)
        if (c >= '0' && c <= '9') kb = kb * 10 + static_cast<std::uint64_t>(c - '0');
      return kb * 1024;
    }
  }
  return 0;
}

// ---- lifecycle ------------------------------------------------------------

/// Zeroes every counter block and clears the phase table.  Call between
/// measured runs; concurrent kernel updates during a reset are lost, not
/// racy (all fields are atomics).
inline void reset() {
  if constexpr (!compiled_in()) return;
  {
    detail::BlockRegistry& r = detail::registry();
    const std::lock_guard<std::mutex> lock(r.mu);
    for (detail::ThreadCounters* b : r.blocks) {
      b->link_calls.store(0, detail::kRelaxed);
      b->link_retries.store(0, detail::kRelaxed);
      b->link_retry_peak.store(0, detail::kRelaxed);
      b->cas_attempts.store(0, detail::kRelaxed);
      b->cas_failures.store(0, detail::kRelaxed);
      b->compress_calls.store(0, detail::kRelaxed);
      b->compress_hops.store(0, detail::kRelaxed);
      b->phase3_vertices_skipped.store(0, detail::kRelaxed);
      b->phase3_edges_skipped.store(0, detail::kRelaxed);
      b->iterations.store(0, detail::kRelaxed);
      b->sv_hooks_fired.store(0, detail::kRelaxed);
      b->lp_label_updates.store(0, detail::kRelaxed);
      b->serve_queries_served.store(0, detail::kRelaxed);
      b->serve_snapshot_swaps.store(0, detail::kRelaxed);
      b->serve_edges_ingested.store(0, detail::kRelaxed);
      b->dynamic_deletes_free.store(0, detail::kRelaxed);
      b->dynamic_rebuilds.store(0, detail::kRelaxed);
      b->dynamic_rebuild_vertices.store(0, detail::kRelaxed);
      b->wal_records_appended.store(0, detail::kRelaxed);
      b->wal_bytes_appended.store(0, detail::kRelaxed);
      b->wal_records_replayed.store(0, detail::kRelaxed);
      b->wal_checkpoints_written.store(0, detail::kRelaxed);
      b->wal_torn_tail_truncations.store(0, detail::kRelaxed);
      b->shard_boundary_msgs.store(0, detail::kRelaxed);
      b->shard_quotient_edges.store(0, detail::kRelaxed);
      b->shard_epoch_publishes.store(0, detail::kRelaxed);
      b->ingest_edges_coalesced.store(0, detail::kRelaxed);
      b->ingest_edges_dropped_noop.store(0, detail::kRelaxed);
      b->cache_hits.store(0, detail::kRelaxed);
      b->cache_misses.store(0, detail::kRelaxed);
      b->cache_drops.store(0, detail::kRelaxed);
    }
  }
  detail::PhaseTable& t = detail::phase_table();
  const std::lock_guard<std::mutex> lock(t.mu);
  t.rows.clear();
}

/// Everything a reporting layer needs from one measured run.
struct Report {
  Counters counters;
  std::vector<PhaseSample> phases;
  std::uint64_t peak_rss_bytes = 0;
};

inline Report capture() {
  return Report{snapshot(), phases(), peak_rss_bytes()};
}

/// RAII arm/disarm: enables telemetry for one scope, restoring the prior
/// state on exit (tests and the bench counter pass use this).
class ScopedEnable {
 public:
  explicit ScopedEnable(bool fresh = true) : previous_(enabled()) {
    set_enabled(true);
    if (fresh) reset();
  }
  ~ScopedEnable() { set_enabled(previous_); }
  ScopedEnable(const ScopedEnable&) = delete;
  ScopedEnable& operator=(const ScopedEnable&) = delete;

 private:
  bool previous_;
};

}  // namespace afforest::telemetry
