// Production ingestion front end: sharded MPSC coalescing queues plus an
// epoch-tagged component-membership cache, ahead of any serving engine's
// single writer.
//
// The serving engines (QueryEngine, DynamicCC, DurableEngine,
// ShardedEngine) funnel every edge batch through one synchronous writer
// call — correct, but the throughput ceiling the ROADMAP names.  This
// layer puts a production-shaped front end ahead of that writer:
//
//   producers ──▶ N bounded shard queues ──▶ coalescer ──▶ single writer
//   (enqueue)     (block | shed policy)      (dedup +       (apply seam)
//                                             no-op filter)
//
//   * PRODUCERS (any thread) enqueue single edges into one of N bounded
//     producer-local queues, picked by a thread-id hash so unrelated
//     producers rarely share a queue lock.  A full queue either blocks
//     (convergence-guarded spin — a dead consumer surfaces as a typed
//     ConvergenceError under AFFOREST_SERVE_SPIN_CEILING, never a hang)
//     or sheds with a typed QueueOverflowError (never a silent drop).
//   * The CONSUMER (single thread: pump(), or the optional background
//     writer) drains every queue, COALESCES the pending multiset (exact
//     duplicates merge after endpoint normalization — FastSV's
//     dedup-before-ship discipline) and FILTERS root-equal no-op edges
//     against one view of the published snapshot, pinned through the
//     engine's acquire() for the whole pass (ConnectIt's observation: an
//     edge whose endpoints already share a root cannot change any answer
//     on a grow-only forest), then hands the compacted batch to the engine
//     through the existing apply seam and publishes.
//
// Soundness caveat: both compaction passes change the EDGE MULTISET, not
// the connectivity, so they are only sound for insert-only / monotone
// streams.  Engines that track edge multiplicity for deletions (DynamicCC
// and DurableEngine in windowed mode) must run with coalesce/drop_noops
// disabled when the stream later deletes edges — the policy matrix in
// docs/SERVING.md spells this out.
//
// The MembershipCache is the read-side counterpart for Zipfian-skewed key
// traffic: a fixed-size array of per-slot seqlocks caching
// (key, root, epoch) triples.  A lookup only hits when the cached epoch
// EQUALS the reader's pinned snapshot epoch — so a cached answer can never
// come from a newer (or older) epoch than the snapshot the reader holds,
// and an epoch bump invalidates the whole cache wholesale without any
// flush traffic.  Hit/miss/drop tallies feed telemetry (cache_hits /
// cache_misses / cache_drops).
//
// Failure discipline: enqueue carries the ingest.enqueue failpoint (fires
// BEFORE any queue mutation, so an injected failure leaves the queue
// serviceable); the blocking path runs under the serve spin ceiling.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <iterator>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/telemetry.hpp"
#include "cc/common.hpp"
#include "cc/guards.hpp"
#include "graph/edge_list.hpp"
#include "serve/snapshot_store.hpp"
#include "serve/writer_lock.hpp"
#include "util/failpoint.hpp"
#include "util/platform.hpp"

namespace afforest::serve {

/// What a full producer queue does with the overflowing edge.
enum class BackpressurePolicy {
  kBlock,  ///< spin (convergence-guarded) until the consumer drains
  kShed,   ///< throw QueueOverflowError — typed, never a silent drop
};

/// Parses "block" / "shed" (case-sensitive, as typed on the CLI).  Throws
/// std::invalid_argument on anything else.
BackpressurePolicy parse_backpressure(const std::string& name);

/// Inverse of parse_backpressure, for banners and JSON params.
const char* backpressure_name(BackpressurePolicy policy);

/// Thrown by enqueue under the shed policy when the target queue is full.
/// Carries which queue overflowed and its capacity so callers can log or
/// re-route; the edge is NOT enqueued (the queue is untouched).
class QueueOverflowError : public std::runtime_error {
 public:
  QueueOverflowError(std::size_t queue, std::size_t capacity)
      : std::runtime_error("ingest queue " + std::to_string(queue) +
                           " full (capacity " + std::to_string(capacity) +
                           "); shed policy refuses the edge"),
        queue_(queue),
        capacity_(capacity) {}

  [[nodiscard]] std::size_t queue() const noexcept { return queue_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  std::size_t queue_;
  std::size_t capacity_;
};

struct IngestOptions {
  std::size_t queues = 4;          ///< producer queue count (>= 1)
  std::size_t queue_capacity = 4096;  ///< edges per queue before backpressure
  BackpressurePolicy policy = BackpressurePolicy::kBlock;
  bool coalesce = true;    ///< merge exact duplicates (after normalization)
  bool drop_noops = true;  ///< filter root-equal edges vs current snapshot
};

/// One consistent tally of the pipeline (all fields are totals since
/// construction; safe to read concurrently with running producers).
struct IngestStats {
  std::uint64_t edges_enqueued = 0;   ///< accepted into a queue
  std::uint64_t edges_applied = 0;    ///< handed to the engine's writer
  std::uint64_t edges_coalesced = 0;  ///< duplicates merged pre-writer
  std::uint64_t edges_dropped_noop = 0;  ///< root-equal edges filtered
  std::uint64_t batches_applied = 0;  ///< non-empty pump() apply+publish turns
  std::uint64_t pumps = 0;            ///< pump() calls (incl. empty drains)
};

/// Epoch-tagged component-membership cache for hot keys.
///
/// Fixed-size open-addressed slot array (capacity rounded up to a power of
/// two), one seqlock per slot over a (key, root, epoch) triple.  All
/// payload fields are relaxed atomics inside the seqlock bracket, so the
/// protocol is TSan-clean without locks on the read path.
///
/// The epoch-exactness rule IS the consistency contract: a lookup under a
/// pinned snapshot view only accepts a cached triple whose epoch equals
/// view.epoch(), so a reader can never observe an answer from a snapshot
/// other than the one it pinned — in particular never from a NEWER epoch —
/// and a publish invalidates every slot at once (their epochs go stale)
/// with zero writer-side work.  One cache serves ONE engine: epochs are
/// only comparable within a single engine's publish sequence.
template <typename NodeID_ = std::int32_t>
class MembershipCache {
 public:
  /// Capacity is rounded up to the next power of two (min 1).
  explicit MembershipCache(std::size_t capacity)
      : slots_(round_up_pow2(capacity)), mask_(slots_.size() - 1) {}

  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

  /// Component id of `key` as of the pinned snapshot `view`, served from
  /// the cache when an epoch-exact entry exists and computed-and-installed
  /// otherwise.  ViewT needs epoch() and component_of(); the caller keeps
  /// `view` pinned for the duration of the call (and owns range-checking
  /// `key` against the engine, exactly as for a direct view lookup).
  // lint: single-writer(any reader may install; the per-slot seqlock CAS
  // serializes concurrent installers and the validated read window keeps
  // readers consistent — there is no single-writer plane to lock)
  template <typename ViewT>
  NodeID_ component_of(NodeID_ key, const ViewT& view) {
    const std::uint64_t epoch = view.epoch();
    const auto key_u = static_cast<std::uint64_t>(key);
    Slot& slot = slots_[mix(key_u) & mask_];

    // Seqlock read: pin an even sequence, read the payload relaxed, fence,
    // re-check the sequence.  A stable even sequence brackets a consistent
    // triple.
    const std::uint64_t seq = slot.seq.load(std::memory_order_acquire);
    if ((seq & 1) == 0) {
      const std::uint64_t cached_key = slot.key.load(std::memory_order_relaxed);
      const std::uint64_t cached_epoch =
          slot.epoch.load(std::memory_order_relaxed);
      const auto cached_root = static_cast<NodeID_>(
          slot.root.load(std::memory_order_relaxed));
      std::atomic_thread_fence(std::memory_order_acquire);
      if (slot.seq.load(std::memory_order_relaxed) == seq &&
          cached_key == key_u && cached_epoch == epoch) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        telemetry::on_cache_hit();
        return cached_root;
      }
    }

    // Miss: compute from the pinned view, then try to install.  Losing the
    // install CAS (another thread mid-write on this slot) just skips the
    // install — the computed answer is returned either way.
    const NodeID_ root = view.component_of(key);
    misses_.fetch_add(1, std::memory_order_relaxed);
    telemetry::on_cache_miss();
    std::uint64_t cur = slot.seq.load(std::memory_order_relaxed);
    if ((cur & 1) == 0 &&
        slot.seq.compare_exchange_strong(cur, cur + 1,
                                         std::memory_order_acq_rel,
                                         std::memory_order_relaxed)) {
      slot.key.store(key_u, std::memory_order_relaxed);
      slot.epoch.store(epoch, std::memory_order_relaxed);
      slot.root.store(static_cast<std::int64_t>(root),
                      std::memory_order_relaxed);
      slot.seq.store(cur + 2, std::memory_order_release);
    } else {
      drops_.fetch_add(1, std::memory_order_relaxed);
      telemetry::on_cache_drop();
    }
    return root;
  }

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t drops = 0;  ///< lost install races (answer still served)
  };

  [[nodiscard]] Stats stats() const {
    return {hits_.load(std::memory_order_relaxed),
            misses_.load(std::memory_order_relaxed),
            drops_.load(std::memory_order_relaxed)};
  }

 private:
  struct alignas(kCacheLineBytes) Slot {
    std::atomic<std::uint64_t> seq{0};  ///< even = stable, odd = mid-install
    std::atomic<std::uint64_t> key{~std::uint64_t{0}};
    std::atomic<std::uint64_t> epoch{0};  ///< 0 never matches (epochs start at 1)
    std::atomic<std::int64_t> root{0};
  };

  static std::size_t round_up_pow2(std::size_t v) {
    std::size_t p = 1;
    while (p < v) p <<= 1;
    return p;
  }

  /// SplitMix64 finalizer — full-avalanche so dense key ranges spread.
  static std::uint64_t mix(std::uint64_t x) {
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
  }

  std::vector<Slot> slots_;
  std::size_t mask_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> drops_{0};
};

/// The sharded MPSC ingestion pipeline, composable over any serving engine
/// that exposes acquire() (a pinned view with connected(u, v), for the
/// no-op filter) and one of the existing apply seams (detected at compile
/// time):
///
///   * apply_batch + publish   — QueryEngine, ShardedEngine
///   * apply_inserts + publish — DynamicCC
///   * insert                  — DurableEngine (journal-then-apply owns
///                               its own publish)
///
/// Producers call enqueue() from any thread; exactly one consumer drives
/// pump() (or the background writer via start_writer()).  The pipeline
/// holds a reference to the engine; the engine must outlive it.
template <typename EngineT, typename NodeID_ = std::int32_t>
class IngestPipeline {
 public:
  explicit IngestPipeline(EngineT& engine, IngestOptions opts = {})
      : engine_(engine), opts_(opts) {
    if (opts_.queues == 0)
      throw std::invalid_argument("IngestPipeline: queues must be >= 1");
    if (opts_.queue_capacity == 0)
      throw std::invalid_argument(
          "IngestPipeline: queue_capacity must be >= 1");
    queues_ = std::vector<Queue>(opts_.queues);
    for (Queue& q : queues_) q.pending.reserve(opts_.queue_capacity);
  }

  ~IngestPipeline() {
    if (writer_.joinable()) {
      stop_requested_.store(true, std::memory_order_release);
      writer_.join();
    }
  }

  IngestPipeline(const IngestPipeline&) = delete;
  IngestPipeline& operator=(const IngestPipeline&) = delete;

  [[nodiscard]] const IngestOptions& options() const { return opts_; }
  [[nodiscard]] std::size_t queue_count() const { return queues_.size(); }

  /// Enqueues one edge into this thread's queue (thread-id hash pick).
  // lint: single-writer(producer-plane entry: routes to enqueue_to, which
  // owns the queue mutex; the engine writer plane is never touched here)
  void enqueue(const EdgePair<NodeID_>& e) { enqueue_to(home_queue(), e); }

  /// Enqueues a whole list through this thread's queue.
  // lint: single-writer(producer-plane entry: routes to enqueue_to, which
  // owns the queue mutex; the engine writer plane is never touched here)
  void enqueue(const EdgeList<NodeID_>& edges) {
    const std::size_t q = home_queue();
    for (const auto& e : edges) enqueue_to(q, e);
  }

  /// Enqueues one edge into an explicit queue (tests and deterministic
  /// drivers; `queue` is taken modulo the queue count).  Fires the
  /// ingest.enqueue failpoint BEFORE touching the queue, range-checks both
  /// endpoints (typed VertexRangeError at the producer, not deep in the
  /// writer), then applies the backpressure policy.
  // lint: single-writer(producer-plane code: many producers by design —
  // the per-queue mutex serializes slot pushes and the single consumer
  // alone touches the engine; the engine writer lock is taken in pump)
  void enqueue_to(std::size_t queue, const EdgePair<NodeID_>& e) {
    failpoint_maybe_fail("ingest.enqueue");
    check_vertex_range("IngestPipeline", e.u, engine_.num_nodes());
    check_vertex_range("IngestPipeline", e.v, engine_.num_nodes());
    Queue& q = queues_[queue % queues_.size()];
    std::int64_t spins = 0;
    const std::int64_t ceiling = serve_spin_ceiling();
    for (;;) {
      {
        const std::lock_guard<std::mutex> lock(q.mu);
        if (q.pending.size() < opts_.queue_capacity) {
          q.pending.push_back(e);
          enqueued_.fetch_add(1, std::memory_order_relaxed);
          return;
        }
      }
      if (opts_.policy == BackpressurePolicy::kShed)
        throw QueueOverflowError(queue % queues_.size(),
                                 opts_.queue_capacity);
      // Block policy: convergence-guarded spin.  A consumer that died
      // surfaces as a typed ConvergenceError once the ceiling is hit
      // (AFFOREST_SERVE_SPIN_CEILING) instead of a silent hang.
      check_convergence_guard("ingest.enqueue.block", ++spins, ceiling,
                              kServeSpinKnob);
      std::this_thread::yield();
    }
  }

  /// Drains every queue, compacts the pending multiset (coalesce + no-op
  /// filter per options), applies the survivors through the engine's
  /// writer, and publishes.  Single consumer only (guarded); returns the
  /// number of edges handed to the engine.  An empty drain touches the
  /// engine not at all — no spurious epoch turns.
  std::size_t pump() {
    const WriterLock lock(consumer_active_, "IngestPipeline");
    pumps_.fetch_add(1, std::memory_order_relaxed);

    EdgeList<NodeID_> pending;
    for (Queue& q : queues_) {
      const std::lock_guard<std::mutex> qlock(q.mu);
      for (const auto& e : q.pending) pending.push_back(e);
      q.pending.clear();
    }
    if (pending.empty()) return 0;

    // Normalize endpoint order so (u, v) and (v, u) are the same edge for
    // dedup and filtering; connectivity is undirected throughout.
    for (auto& e : pending)
      if (e.v < e.u) std::swap(e.u, e.v);

    std::uint64_t coalesced = 0;
    if (opts_.coalesce) {
      std::sort(pending.begin(), pending.end());
      const auto last = std::unique(pending.begin(), pending.end());
      coalesced = static_cast<std::uint64_t>(
          std::distance(last, pending.end()));
      pending.resize(static_cast<std::size_t>(
          std::distance(pending.begin(), last)));
    }

    std::uint64_t dropped_noop = 0;
    if (opts_.drop_noops) dropped_noop = filter_noops(pending);

    // TEST-ONLY teeth seam: a deliberately broken coalescer that silently
    // drops the first SURVIVING (non-no-op) edge of each pump.  The
    // ingestion differential suite must catch this; never set outside
    // tests (mirrors DynamicCC::testing_certify_all_deletes_free).
    if (testing_drop_survivor_ && !pending.empty()) {
      for (std::size_t i = 1; i < pending.size(); ++i)
        pending[i - 1] = pending[i];
      pending.resize(pending.size() - 1);
      ++coalesced;
    }

    coalesced_.fetch_add(coalesced, std::memory_order_relaxed);
    dropped_noop_.fetch_add(dropped_noop, std::memory_order_relaxed);
    telemetry::on_ingest_coalesced(coalesced);
    telemetry::on_ingest_dropped_noop(dropped_noop);

    if (pending.empty()) return 0;  // everything compacted away
    apply_via_seam(pending);
    applied_.fetch_add(pending.size(), std::memory_order_relaxed);
    batches_.fetch_add(1, std::memory_order_relaxed);
    return pending.size();
  }

  /// Spawns the background consumer: pumps until stop_writer() AND every
  /// queue has drained.  At most one background writer at a time.
  void start_writer() {
    if (writer_.joinable())
      throw std::logic_error("IngestPipeline: background writer already running");
    stop_requested_.store(false, std::memory_order_release);
    writer_ = std::thread([this] {
      try {
        for (;;) {
          const std::size_t moved = pump();
          if (moved == 0) {
            if (stop_requested_.load(std::memory_order_acquire) &&
                queues_empty())
              return;
            std::this_thread::yield();
          }
        }
      } catch (...) {
        // Parked for stop_writer() to rethrow on the caller's thread.  A
        // dead consumer is what the block policy's convergence guard is
        // for: producers get a typed ConvergenceError, not a hang.
        writer_error_ = std::current_exception();
      }
    });
  }

  /// Stops the background consumer after a final drain and rethrows any
  /// exception it died with.
  // lint: single-writer(joins the consumer thread; the final drain runs in
  // pump on that thread under its own guard — no engine state here)
  void stop_writer() {
    if (!writer_.joinable()) return;
    stop_requested_.store(true, std::memory_order_release);
    writer_.join();
    if (writer_error_) {
      const std::exception_ptr err = writer_error_;
      writer_error_ = nullptr;
      std::rethrow_exception(err);
    }
  }

  /// TEST-ONLY teeth toggle (see pump()); flip before any pump, with the
  /// pipeline owned exclusively by the test.
  // lint: single-writer(test-only toggle flipped before any pump; the
  // differential teeth suite owns the pipeline exclusively)
  void testing_drop_one_survivor_per_pump(bool on) {
    testing_drop_survivor_ = on;
  }

  [[nodiscard]] IngestStats stats() const {
    IngestStats s;
    s.edges_enqueued = enqueued_.load(std::memory_order_relaxed);
    s.edges_applied = applied_.load(std::memory_order_relaxed);
    s.edges_coalesced = coalesced_.load(std::memory_order_relaxed);
    s.edges_dropped_noop = dropped_noop_.load(std::memory_order_relaxed);
    s.batches_applied = batches_.load(std::memory_order_relaxed);
    s.pumps = pumps_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  struct alignas(kCacheLineBytes) Queue {
    std::mutex mu;
    std::vector<EdgePair<NodeID_>> pending;
  };

  [[nodiscard]] std::size_t home_queue() const {
    return std::hash<std::thread::id>{}(std::this_thread::get_id()) %
           queues_.size();
  }

  [[nodiscard]] bool queues_empty() {
    for (Queue& q : queues_) {
      const std::lock_guard<std::mutex> lock(q.mu);
      if (!q.pending.empty()) return false;
    }
    return true;
  }

  /// Removes root-equal edges in place; returns how many were dropped.
  /// Filtering against the PUBLISHED snapshot is sound for monotone
  /// engines: published connectivity is always a subset of live
  /// connectivity (the live forest only grows between publishes), so an
  /// edge already connected in the snapshot is a no-op on the live state
  /// too.  One view, pinned for the whole pass, answers every edge; it is
  /// released on return, before the apply seam publishes.
  std::uint64_t filter_noops(EdgeList<NodeID_>& pending) {
    const auto view = engine_.acquire();
    const std::size_t before = pending.size();
    auto keep_end = pending.begin();
    for (auto& e : pending)
      if (!view.connected(e.u, e.v)) *keep_end++ = e;
    pending.resize(static_cast<std::size_t>(keep_end - pending.begin()));
    return before - pending.size();
  }

  /// The existing apply seam, selected at compile time (header comment).
  void apply_via_seam(const EdgeList<NodeID_>& batch) {
    if constexpr (requires { engine_.apply_batch(batch); }) {
      engine_.apply_batch(batch);
      engine_.publish();
    } else if constexpr (requires { engine_.apply_inserts(batch); }) {
      engine_.apply_inserts(batch);
      engine_.publish();
    } else {
      engine_.insert(batch);  // DurableEngine: journal-then-apply-then-publish
    }
  }

  EngineT& engine_;
  IngestOptions opts_;
  std::vector<Queue> queues_;

  std::thread writer_;
  std::atomic<bool> stop_requested_{false};
  std::exception_ptr writer_error_;
  mutable std::atomic<bool> consumer_active_{false};
  bool testing_drop_survivor_ = false;

  std::atomic<std::uint64_t> enqueued_{0};
  std::atomic<std::uint64_t> applied_{0};
  std::atomic<std::uint64_t> coalesced_{0};
  std::atomic<std::uint64_t> dropped_noop_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> pumps_{0};
};

}  // namespace afforest::serve
