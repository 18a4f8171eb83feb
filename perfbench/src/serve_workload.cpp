// serve-ingest / shard-ingest: an open-loop edge stream from one producer
// thread through IngestPipeline into a QueryEngine (or a 4-shard
// ShardedEngine), pumped by this file's consumer loop on a writer team of
// kWriterTeam, beside one paced reader thread; then a saturation phase.
#include <omp.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "analysis/telemetry.hpp"
#include "serve/ingest.hpp"
#include "serve/query_engine.hpp"
#include "shard/sharded_engine.hpp"
#include "timed_engine.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace telemetry = afforest::telemetry;
using afforest::serve::IngestPipeline;
using afforest::serve::QueryEngine;
using afforest::shard::ShardedEngine;

constexpr int kShards = 4;
constexpr int kSetupReps = 3;
// A run is refused when its producer or reader ran this late at p99: its
// freshness figures would then describe a different schedule.  Host
// scheduling on a shared 4-vCPU machine delays a thread by up to ~50 ms,
// so the limit catches a generator that fell behind, not a hiccup.
constexpr double kMaxLagMs = 250.0;

template <typename EngineT>
constexpr bool kSharded = std::is_same_v<EngineT, ShardedEngine<NodeID>>;

template <typename EngineT>
std::unique_ptr<EngineT> make_engine(std::int64_t n) {
  if constexpr (kSharded<EngineT>)
    return std::make_unique<EngineT>(n, kShards);
  else
    return std::make_unique<EngineT>(n);
}

void sleep_until(Clock::time_point t) { std::this_thread::sleep_until(t); }

struct PumpStat {
  PumpRecord rec;
  std::uint64_t drained = 0;  ///< edges this pump took from the queues
  std::int64_t span = -1;    ///< pump span index (traced run)
  std::uint64_t backlog = 0;  ///< edges enqueued but not drained at start
};

struct ReaderLog {
  std::vector<double> service_us;
  std::vector<double> lag_ms;
  std::uint64_t failed = 0;
};

/// Paced reader: one QueryBatch answer per period, timed as service time;
/// checks that epochs never go backwards and (sharded) that an atom never
/// mixes shard epochs.
template <typename EngineT>
void run_reader(const EngineT& engine, Stream& s, const StreamConfig& cfg,
                Clock::time_point t0, ReaderLog& out) {
  omp_set_num_threads(1);
  ReadPool& pool = s.reads;
  out.service_us.reserve(static_cast<std::size_t>(s.read_count));
  out.lag_ms.reserve(static_cast<std::size_t>(s.read_count));
  std::uint64_t last_epoch = 0;
  for (std::int64_t k = 0; k < s.read_count; ++k) {
    const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(
                                  static_cast<double>(k) * cfg.read_period_s));
    sleep_until(due);
    auto& batch = pool[static_cast<std::size_t>(k) % pool.size()];
    const auto start = Clock::now();
    try {
      engine.answer(batch);
    } catch (...) {
      ++out.failed;
      continue;
    }
    const auto end = Clock::now();
    out.service_us.push_back(seconds_between(start, end) * 1e6);
    out.lag_ms.push_back(seconds_between(due, start) * 1e3);
    if (batch.epoch < last_epoch) ++out.failed;
    last_epoch = batch.epoch;
    if constexpr (kSharded<EngineT>) {
      const auto ref = engine.acquire();
      for (const std::uint64_t e : EngineT::shard_epochs(ref))
        if (e != ref.epoch()) {
          ++out.failed;
          break;
        }
    }
  }
}

template <typename EngineT>
Result run_engine(const Args& args, const StreamConfig& cfg, Stream& s) {
  Result r;
  record_validity(r, args.seed, kThreads, telemetry::compiled_in());
  r.info["threads.producer"] = 1;
  r.info["threads.reader"] = 1;
  r.info["threads.writer_team"] = kWriterTeam;
  if (!r.refusal.empty()) return r;
  const std::int64_t n = cfg.num_nodes;

  // Set-up: engine construction plus a bulk preload of the base graph as
  // one pipeline batch (enqueue, coalesce, no-op filter, apply, publish).
  std::vector<double> setup_s;
  std::unique_ptr<EngineT> engine;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    engine.reset();
    const auto t0 = Clock::now();
    engine = make_engine<EngineT>(n);
    IngestPipeline<EngineT, NodeID> bulk(
        *engine, {.queues = 1, .queue_capacity = s.base.size()});
    bulk.enqueue(s.base);
    bulk.pump();
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  const std::size_t open = s.open_loop_edges();
  const std::size_t total = s.edges.size();
  // Threads start after this margin, so the first due times are not late.
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);
  SpanLog log(args.trace, t0);
  TimedEngine<EngineT> timed(*engine, log);
  IngestPipeline<TimedEngine<EngineT>, NodeID> pipe(timed);
  if (args.trace) {
    telemetry::set_enabled(true);
    telemetry::reset();
  }

  auto drained = [&pipe] {
    const auto st = pipe.stats();
    return st.edges_applied + st.edges_coalesced + st.edges_dropped_noop;
  };

  std::vector<double> enq_s(open, -1.0);
  std::vector<double> producer_lag_ms(open, 0.0);
  std::atomic<std::uint64_t> shed{0};
  std::atomic<bool> producer_done{false};
  std::thread producer([&] {
    for (std::size_t i = 0; i < open; ++i) {
      const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(s.due_s[i]));
      sleep_until(due);
      producer_lag_ms[i] = seconds_between(due, Clock::now()) * 1e3;
      try {
        pipe.enqueue(s.edges[i]);
        enq_s[i] = seconds_between(t0, Clock::now());
      } catch (const std::exception&) {
        shed.fetch_add(1, std::memory_order_relaxed);
      }
    }
    producer_done.store(true, std::memory_order_release);
  });
  ReaderLog reads;
  std::thread reader([&] { run_reader(*engine, s, cfg, t0, reads); });

  // Consumer: pump back to back; record every pump that drained something.
  std::vector<PumpStat> pumps;
  std::uint64_t done_edges = 0;
  std::int64_t backlog_end = -1;
  // Runs until `target` stream edges are drained or shed.
  auto pump_until = [&](std::uint64_t target, const std::atomic<bool>& fed) {
    while (done_edges + shed.load(std::memory_order_relaxed) < target) {
      const bool was_fed = fed.load(std::memory_order_acquire);
      const std::uint64_t enqueued = pipe.stats().edges_enqueued;
      if (was_fed && backlog_end < 0)
        backlog_end = static_cast<std::int64_t>(enqueued - done_edges);
      PumpStat p;
      p.backlog = enqueued - done_edges;
      p.rec.start_s = seconds_between(t0, Clock::now());
      p.span = log.open(SpanKind::kPump);
      pipe.pump();
      log.close(p.span);
      p.rec.end_s = seconds_between(t0, Clock::now());
      const std::uint64_t now_done = drained();
      if (now_done > done_edges) {
        p.drained = now_done - done_edges;
        pumps.push_back(p);
        done_edges = now_done;
      } else {
        log.discard(p.span);
        std::this_thread::yield();
      }
    }
  };
  try {
    pump_until(open, producer_done);
  } catch (...) {
    producer.join();
    reader.join();
    throw;
  }
  producer.join();
  reader.join();
  const std::size_t window_pumps = pumps.size();
  const telemetry::Report window_report = telemetry::capture();
  const auto window_stats = pipe.stats();

  // Saturation: a fixed block enqueued as fast as the block policy allows.
  std::atomic<bool> sat_done{false};
  std::thread saturator([&] {
    try {
      for (std::size_t i = open; i < total; ++i) pipe.enqueue(s.edges[i]);
    } catch (const std::exception&) {
      shed.fetch_add(1, std::memory_order_relaxed);
    }
    sat_done.store(true, std::memory_order_release);
  });
  try {
    pump_until(total, sat_done);
  } catch (...) {
    saturator.join();
    throw;
  }
  saturator.join();
  const auto sat_stats = pipe.stats();
  telemetry::set_enabled(false);

  // ---- answer checks (untimed) -------------------------------------------
  const auto got = engine->labels();
  QueryEngine<NodeID> reference(n);
  reference.apply_batch(s.base);
  reference.apply_batch(s.edges);
  reference.publish();
  const std::uint64_t mismatches = label_mismatches(got, reference.labels());
  const std::uint64_t invisible = invisible_edges(s.edges, got);
  const auto owner = attribute_to_pumps(
      enq_s, [&] {
        std::vector<PumpRecord> recs;
        for (std::size_t i = 0; i < window_pumps; ++i) recs.push_back(pumps[i].rec);
        return recs;
      }());
  std::uint64_t unattributed = 0;
  for (std::size_t i = 0; i < open; ++i)
    unattributed += enq_s[i] >= 0 && owner[i] < 0;
  r.attempted = total + reads.service_us.size() + reads.failed;
  r.failed = shed.load() + invisible + reads.failed + unattributed;
  if (mismatches != 0 && r.failed == 0) r.failed = 1;
  r.info["label_mismatches"] = static_cast<double>(mismatches);
  r.info["failed_frac"] =
      static_cast<double>(r.failed) / static_cast<double>(r.attempted);

  // ---- end-to-end metrics -------------------------------------------------
  std::vector<double> fresh_ms, wait_ms;
  for (std::size_t i = 0; i < open; ++i) {
    if (owner[i] < 0) continue;
    const PumpRecord& p = pumps[static_cast<std::size_t>(owner[i])].rec;
    fresh_ms.push_back((p.end_s - s.due_s[i]) * 1e3);
    wait_ms.push_back((p.start_s - s.due_s[i]) * 1e3);
  }
  r.put("setup_s", median_of(setup_s), "s");
  r.put_percentile("latency_p50_ms", fresh_ms, 0.5, "ms");
  r.put_percentile("latency_p90_ms", fresh_ms, 0.9, "ms");
  // Read service times vary too much between processes on a shared host
  // to carry a bound (README.md), so they ride on the validity record.
  r.info["read_p50_us"] = percentile(reads.service_us, 0.5).value_or(0);
  r.info["read_p99_us"] = percentile(reads.service_us, 0.99).value_or(0);
  // Saturation throughput as the median drain rate of its pumps (edges a
  // pump took from the queues / its duration), so one stalled pump does not
  // set the figure.
  std::vector<double> drain_rate;
  for (std::size_t i = window_pumps; i < pumps.size(); ++i)
    drain_rate.push_back(static_cast<double>(pumps[i].drained) /
                         (pumps[i].rec.end_s - pumps[i].rec.start_s));
  r.put("edges_per_s", median_of(drain_rate), "edges/s");
  r.put("peak_rss_mb",
        static_cast<double>(telemetry::peak_rss_bytes()) / 1048576.0, "MB");

  // ---- run validity -------------------------------------------------------
  const double producer_lag = percentile(producer_lag_ms, 0.99).value_or(0);
  const double reader_lag = percentile(reads.lag_ms, 0.99).value_or(0);
  const double gen_lag = std::max(producer_lag, reader_lag);
  r.info["gen_lag_p99_ms"] = gen_lag;
  r.info["producer_lag_p99_ms"] = producer_lag;
  r.info["reader_lag_p99_ms"] = reader_lag;
  r.info["backlog_edges_end"] = static_cast<double>(std::max<std::int64_t>(backlog_end, 0));
  r.info["publishes"] = static_cast<double>(window_stats.batches_applied);
  if (gen_lag > kMaxLagMs)
    r.refuse("generator fell behind: p99 lag " + std::to_string(gen_lag) + " ms");
  // Backlog growth: mean backlog at pump start over the last quarter of the
  // window against the first quarter.
  double first_q = 0, last_q = 0;
  std::size_t first_n = 0, last_n = 0;
  for (std::size_t i = 0; i < window_pumps; ++i) {
    const double t = pumps[i].rec.start_s;
    if (t < cfg.window_s / 4) first_q += static_cast<double>(pumps[i].backlog), ++first_n;
    if (t >= cfg.window_s * 3 / 4 && t < cfg.window_s)
      last_q += static_cast<double>(pumps[i].backlog), ++last_n;
  }
  first_q /= static_cast<double>(std::max<std::size_t>(first_n, 1));
  last_q /= static_cast<double>(std::max<std::size_t>(last_n, 1));
  r.info["backlog_first_quarter"] = first_q;
  r.info["backlog_last_quarter"] = last_q;
  if (last_q > 2 * first_q + 16)
    r.refuse("backlog grew over the window: " + std::to_string(first_q) +
             " -> " + std::to_string(last_q) + " edges");

  if (!args.trace) return r;

  // ---- per-layer metrics (traced run) -------------------------------------
  // Window pumps feed the freshness-side metrics, saturation pumps the
  // ingest-side ones.
  const auto& spans = log.spans();
  std::vector<double> pump_ms, publish_ms, window_apply_ms, sat_apply_ms,
      self_ms;
  for (std::size_t i = 0; i < pumps.size(); ++i) {
    const bool in_window = i < window_pumps;
    const auto root = static_cast<std::size_t>(pumps[i].span);
    double children = 0;
    for (std::size_t j = root + 1;
         j < spans.size() && spans[j].parent == pumps[i].span; ++j) {
      children += spans[j].ms();
      if (spans[j].kind == SpanKind::kApply)
        (in_window ? window_apply_ms : sat_apply_ms).push_back(spans[j].ms());
      else if (in_window)
        publish_ms.push_back(spans[j].ms());
    }
    if (in_window)
      pump_ms.push_back(spans[root].ms());
    else
      self_ms.push_back(spans[root].ms() - children);
  }
  const double publishes = static_cast<double>(publish_ms.size());
  const double compact_ms =
      phase_total_ms(window_report, "serve.compact") / publishes;

  // Shared with the cc workloads: link (the engine's apply_batch), compress
  // (the serve.compact phase, every shard's on shard-ingest) and the
  // snapshot copy, per publish.
  r.put("cc.link_ms", mean(window_apply_ms), "ms");
  r.put("cc.compress_ms", compact_ms, "ms");
  put_primitive_counters(r, window_report.counters);
  if constexpr (kSharded<EngineT>)
    r.put("serve.snapshot_ms",
          phase_total_ms(window_report, "shard.publish.shards") / publishes -
              compact_ms,
          "ms");
  else
    r.put("serve.snapshot_ms", mean(publish_ms) - compact_ms, "ms");

  // Writer busy time over the window, clipped at the window's end.
  double busy_s = 0;
  for (std::size_t i = 0; i < window_pumps; ++i)
    busy_s += std::max(0.0, std::min(pumps[i].rec.end_s, cfg.window_s) -
                                pumps[i].rec.start_s);
  const auto sat_drained =
      static_cast<double>(sat_stats.edges_applied + sat_stats.edges_coalesced +
                          sat_stats.edges_dropped_noop) -
      static_cast<double>(window_stats.edges_applied +
                          window_stats.edges_coalesced +
                          window_stats.edges_dropped_noop);

  r.put_percentile("serve.queue_wait_p50_ms", wait_ms, 0.5, "ms");
  r.put_percentile("serve.queue_wait_p90_ms", wait_ms, 0.9, "ms");
  r.put_percentile("serve.pump_p50_ms", pump_ms, 0.5, "ms");
  r.put_percentile("serve.pump_p90_ms", pump_ms, 0.9, "ms");
  r.put("serve.pump_self_ms", mean(self_ms), "ms");
  r.put("serve.batch_edges",
        static_cast<double>(sat_stats.edges_applied - window_stats.edges_applied) /
            static_cast<double>(sat_stats.batches_applied - window_stats.batches_applied),
        "edges");
  r.put("serve.noop_frac",
        static_cast<double>(sat_stats.edges_dropped_noop -
                            window_stats.edges_dropped_noop) / sat_drained,
        "ratio");
  r.put("serve.coalesced_frac",
        static_cast<double>(sat_stats.edges_coalesced -
                            window_stats.edges_coalesced) / sat_drained,
        "ratio");
  r.put("serve.writer_busy_frac", busy_s / cfg.window_s, "ratio");

  const auto& c = window_report.counters;
  if constexpr (kSharded<EngineT>) {
    const double shards_ms = phase_total_ms(window_report, "shard.publish.shards") / publishes;
    const double quotient_ms = phase_total_ms(window_report, "shard.publish.quotient") / publishes;
    r.put("shard.route_ms", mean(sat_apply_ms), "ms");
    r.put("shard.publish_ms", mean(publish_ms), "ms");
    r.put("shard.shards_publish_ms", shards_ms, "ms");
    r.put("shard.quotient_ms", quotient_ms, "ms");
    r.put("shard.resolve_ms", mean(publish_ms) - shards_ms - quotient_ms, "ms");
    r.put("shard.boundary_msgs_per_publish",
          static_cast<double>(c.shard_boundary_msgs) / publishes, "count");
    r.put("shard.quotient_edges_per_publish",
          static_cast<double>(c.shard_quotient_edges) / publishes, "count");

    // The read path's quotient_root hash lookup, timed on its own over the
    // reader's keys against the final atom.
    const auto ref = engine->acquire();
    std::vector<NodeID> roots;
    for (const auto& batch : s.reads)
      for (const NodeID v : batch.u) {
        const int p = engine->shard_of(v);
        const auto start = engine->shard_start(p);
        roots.push_back(static_cast<NodeID>(
            start + ref->views[static_cast<std::size_t>(p)].component_of(
                        static_cast<NodeID>(v - start))));
      }
    constexpr int kLookupReps = 8;
    std::uint64_t hits = 0;
    const auto lt0 = Clock::now();
    for (int rep = 0; rep < kLookupReps; ++rep)
      for (const NodeID root : roots) hits += ref->quotient_root.count(root);
    const double lookup_ns = seconds_between(lt0, Clock::now()) * 1e9 /
                             static_cast<double>(kLookupReps * roots.size());
    r.put("shard.quotient_lookup_ns", lookup_ns, "ns");
    r.put("shard.quotient_roots",
          static_cast<double>(ref->quotient_root.size()), "count");
    r.info["quotient_lookup_hits"] = static_cast<double>(hits);
  } else {
    r.put("serve.publish_ms", mean(publish_ms), "ms");
    r.put("serve.apply_ms", mean(sat_apply_ms), "ms");
  }
  return r;
}

}  // namespace

Result run_serve(const Args& args) {
  omp_set_dynamic(0);
  omp_set_num_threads(kWriterTeam);
  StreamConfig cfg;
  cfg.window_s = args.seconds;
  Stream s = make_stream(cfg, args.seed);
  if (args.workload == "shard-ingest")
    return run_engine<ShardedEngine<NodeID>>(args, cfg, s);
  return run_engine<QueryEngine<NodeID>>(args, cfg, s);
}

}  // namespace perfbench
