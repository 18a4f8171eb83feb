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
//     counters stay dormant until set_enabled(true) or the
//     AFFOREST_TELEMETRY environment variable arms them.  The parallel
//     union and compress loops read the switch once per entry call
//     (select_probe in cc/afforest.hpp) and, while dormant, run an
//     instantiation with no hooks at all; every other hook costs one
//     relaxed atomic-bool load per call.
//   * when armed, every increment lands in a cache-line-aligned
//     thread-local block that only its owner thread writes, so an update
//     is a relaxed load plus store, with no lock-prefixed add.  The fields
//     are relaxed atomics so snapshot()/reset() from another thread is
//     race-free under TSan without any barrier assumptions about the
//     OpenMP runtime.
//
// Thread-local blocks are heap-allocated once per thread and intentionally
// never freed: they must outlive the thread so a snapshot taken after a
// worker exits reads valid memory.  The "leak" is bounded by the number of
// distinct threads the process ever creates.  The registry listing them is
// never destroyed either, so they stay reachable through process exit.
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

/// The counter table: one row per counter, in report order, naming how
/// snapshot() folds the thread blocks (sum, or peak for a maximum).  It
/// generates Counters, the thread blocks, snapshot(), reset() and
/// for_each_counter(); docs/BENCHMARKING.md's glossary defines each row.
#define AFFOREST_TELEMETRY_COUNTERS(X)                                         \
  X(link_calls, sum)                /* link() + rem_splice() calls */          \
  X(link_retries, sum)              /* extra climbing passes in either */      \
  X(link_retry_peak, peak)          /* deepest single-call retry chain */      \
  X(cas_attempts, sum)              /* hook and splice CASes */                \
  X(cas_failures, sum)              /* lost CAS races in either */             \
  X(compress_calls, sum)            /* compress() invocations */               \
  X(compress_hops, sum)             /* total pointer-jump hops */              \
  X(phase3_vertices_skipped, sum)   /* §IV-D skip: vertices */                 \
  X(phase3_edges_skipped, sum)      /* §IV-D skip: edges */                    \
  X(iterations, sum)                /* outer fixpoint iterations (SV/LP) */    \
  X(sv_hooks_fired, sum)            /* successful SV hook stores */            \
  X(lp_label_updates, sum)          /* LP label improvements */                \
  X(serve_queries_served, sum)      /* serving-layer queries answered */       \
  X(serve_snapshot_swaps, sum)      /* serving-layer snapshot publishes */     \
  X(serve_edges_ingested, sum)      /* serving-layer edges applied */          \
  X(dynamic_deletes_free, sum)      /* deletions certified free (O(1)) */      \
  X(dynamic_rebuilds, sum)          /* components rebuilt after cuts */        \
  X(dynamic_rebuild_vertices, sum)  /* vertices relabeled by rebuilds */       \
  X(wal_records_appended, sum)      /* WAL records journaled */                \
  X(wal_bytes_appended, sum)        /* WAL bytes written (incl. framing) */    \
  X(wal_records_replayed, sum)      /* WAL records re-applied in recovery */   \
  X(wal_checkpoints_written, sum)   /* checkpoints durably installed */        \
  X(wal_torn_tail_truncations, sum) /* torn WAL tails discarded */             \
  X(shard_boundary_msgs, sum)       /* cross-shard boundary edges routed */    \
  X(shard_quotient_edges, sum)      /* deduped root-pair messages merged */    \
  X(shard_epoch_publishes, sum)     /* cross-shard epochs published */         \
  X(ingest_edges_coalesced, sum)    /* exact duplicates merged pre-writer */   \
  X(ingest_edges_dropped_noop, sum) /* root-equal edges filtered */            \
  X(cache_hits, sum)                /* membership-cache epoch-exact hits */    \
  X(cache_misses, sum)              /* membership-cache misses (computed) */   \
  X(cache_drops, sum)               /* membership-cache lost install races */

/// Aggregated view of every counter, summed over all thread blocks.
struct Counters {
#define AFFOREST_TELEMETRY_FIELD(name, fold) std::uint64_t name = 0;
  AFFOREST_TELEMETRY_COUNTERS(AFFOREST_TELEMETRY_FIELD)
#undef AFFOREST_TELEMETRY_FIELD
  /// Injected faults fired: the failpoint registry's live total, kept
  /// outside the thread blocks and not reset by telemetry::reset.
  std::uint64_t failpoints_fired = 0;
};

/// Calls f(name, value) for every counter of c in report order: the
/// table's rows, then failpoints_fired.
template <typename F>
void for_each_counter(const Counters& c, F&& f) {
#define AFFOREST_TELEMETRY_VISIT(name, fold) f(#name, c.name);
  AFFOREST_TELEMETRY_COUNTERS(AFFOREST_TELEMETRY_VISIT)
#undef AFFOREST_TELEMETRY_VISIT
  f("failpoints_fired", c.failpoints_fired);
}

namespace detail {

struct alignas(kCacheLineBytes) ThreadCounters {
#define AFFOREST_TELEMETRY_FIELD(name, fold) std::atomic<std::uint64_t> name{0};
  AFFOREST_TELEMETRY_COUNTERS(AFFOREST_TELEMETRY_FIELD)
#undef AFFOREST_TELEMETRY_FIELD
};

struct BlockRegistry {
  std::mutex mu;
  std::vector<ThreadCounters*> blocks;
};

/// Never destroyed: a block whose thread has exited (an OpenMP team shrank)
/// is reachable only through this list, which static destruction would
/// free before LeakSanitizer's exit check.
inline BlockRegistry& registry() {
  static BlockRegistry& r = *new BlockRegistry;
  return r;
}

[[gnu::noinline]] inline ThreadCounters* register_block() {
  auto* b = new ThreadCounters();
  BlockRegistry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  r.blocks.push_back(b);
  return b;
}

/// The calling thread's counter block, registered on first use and leaked
/// by design (see the header comment).  The pointer is constant-initialized,
/// so a call reads it without a TLS init guard.
inline ThreadCounters& local() {
  constinit thread_local ThreadCounters* block = nullptr;
  if (block == nullptr) [[unlikely]]
    block = register_block();
  return *block;
}

constexpr auto kRelaxed = std::memory_order_relaxed;

/// Owner-exclusive update: only the owner thread writes its block, so a
/// relaxed load plus store cannot lose a concurrent add.
inline void add(std::atomic<std::uint64_t>& field, std::uint64_t delta) {
  field.store(field.load(kRelaxed) + delta, kRelaxed);
}

inline std::uint64_t sum(std::uint64_t a, std::uint64_t b) { return a + b; }
inline std::uint64_t peak(std::uint64_t a, std::uint64_t b) {
  return std::max(a, b);
}

}  // namespace detail

// ---- hot-path hooks -------------------------------------------------------
// Kernels accumulate into stack locals and call these once per primitive
// invocation; each hook is a relaxed-load branch when dormant and a handful
// of owner-exclusive relaxed updates when armed.  The count_* forms skip
// the enabled() check: they are for a loop that read the switch once at
// entry and found it armed (the armed probe select_probe picks in
// cc/afforest.hpp).

inline void count_link(std::uint64_t retries, std::uint64_t cas_attempts,
                       std::uint64_t cas_failures) {
  detail::ThreadCounters& b = detail::local();
  detail::add(b.link_calls, 1);
  detail::add(b.link_retries, retries);
  detail::add(b.cas_attempts, cas_attempts);
  detail::add(b.cas_failures, cas_failures);
  if (retries > b.link_retry_peak.load(detail::kRelaxed))
    b.link_retry_peak.store(retries, detail::kRelaxed);
}

inline void on_link(std::uint64_t retries, std::uint64_t cas_attempts,
                    std::uint64_t cas_failures) {
  if (enabled()) count_link(retries, cas_attempts, cas_failures);
}

inline void count_compress(std::uint64_t hops) {
  detail::ThreadCounters& b = detail::local();
  detail::add(b.compress_calls, 1);
  detail::add(b.compress_hops, hops);
}

inline void on_compress(std::uint64_t hops) {
  if (enabled()) count_compress(hops);
}

/// The chunked final phase skips per span and passes vertices_skipped = 1
/// only for a vertex's first span.
inline void count_phase3_skip(std::uint64_t edges_skipped,
                              std::uint64_t vertices_skipped) {
  detail::ThreadCounters& b = detail::local();
  detail::add(b.phase3_vertices_skipped, vertices_skipped);
  detail::add(b.phase3_edges_skipped, edges_skipped);
}

inline void on_phase3_skip(std::uint64_t edges_skipped,
                           std::uint64_t vertices_skipped = 1) {
  if (enabled()) count_phase3_skip(edges_skipped, vertices_skipped);
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
  detail::add(detail::local().serve_snapshot_swaps, 1);
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
  detail::add(b.dynamic_rebuilds, 1);
  detail::add(b.dynamic_rebuild_vertices, vertices);
}

// Durability hooks (src/serve/wal.hpp, src/serve/durable_engine.hpp).  All
// fire from the single-writer thread, so they land in one block; tallied
// once per record/checkpoint, never per edge.

inline void on_wal_append(std::uint64_t bytes) {
  if (!enabled()) return;
  detail::ThreadCounters& b = detail::local();
  detail::add(b.wal_records_appended, 1);
  detail::add(b.wal_bytes_appended, bytes);
}

inline void on_wal_replay(std::uint64_t records) {
  if (!enabled()) return;
  detail::add(detail::local().wal_records_replayed, records);
}

inline void on_wal_checkpoint() {
  if (!enabled()) return;
  detail::add(detail::local().wal_checkpoints_written, 1);
}

inline void on_wal_torn_tail() {
  if (!enabled()) return;
  detail::add(detail::local().wal_torn_tail_truncations, 1);
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
  detail::add(detail::local().shard_epoch_publishes, 1);
}

// Ingestion-pipeline hooks (src/serve/ingest.hpp).  Coalesce/no-op tallies
// fire once per pumped batch from the single consumer thread; the cache
// hooks fire per lookup from reader threads (one owner-exclusive update
// each — same cost class as the single-query serve hooks above).

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
  detail::add(detail::local().cache_hits, 1);
}

inline void on_cache_miss() {
  if (!enabled()) return;
  detail::add(detail::local().cache_misses, 1);
}

inline void on_cache_drop() {
  if (!enabled()) return;
  detail::add(detail::local().cache_drops, 1);
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
#define AFFOREST_TELEMETRY_FOLD(name, fold) \
  total.name = detail::fold(total.name, b->name.load(detail::kRelaxed));
    AFFOREST_TELEMETRY_COUNTERS(AFFOREST_TELEMETRY_FOLD)
#undef AFFOREST_TELEMETRY_FOLD
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
/// measured runs.  A reset that races a running kernel is not a data race
/// (all fields are atomics), but it may be overwritten: an owner's update
/// loads a field before the zero lands and stores it back after.
inline void reset() {
  if constexpr (!compiled_in()) return;
  {
    detail::BlockRegistry& r = detail::registry();
    const std::lock_guard<std::mutex> lock(r.mu);
    for (detail::ThreadCounters* b : r.blocks) {
#define AFFOREST_TELEMETRY_ZERO(name, fold) b->name.store(0, detail::kRelaxed);
      AFFOREST_TELEMETRY_COUNTERS(AFFOREST_TELEMETRY_ZERO)
#undef AFFOREST_TELEMETRY_ZERO
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
