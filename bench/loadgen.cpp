// Closed-loop load generator for the ingestion front end (src/serve/
// ingest.hpp): the tail-latency harness every scaling change to the
// serving tier is judged against.
//
// W closed-loop worker threads issue a read/write operation mix against a
// QueryEngine fronted by the IngestPipeline (writes enqueue; a background
// consumer coalesces, filters no-ops, applies, publishes) and the
// MembershipCache (reads pin a snapshot and look up component membership,
// Zipfian-skewed by default).  Every operation is timed individually into
// an HDR-style LatencyHistogram, so the report is p50/p99/p999 — the tail,
// not the mean — under swept offered load (the worker-count sweep) and
// read mixes.
//
// With --json the run emits afforest-bench-1 records in two groups:
//
//   * graph "ingest-urand" — a "serial-uf" anchor plus
//     "serve-ingest-steady": the single-threaded pipeline ingest of the
//     whole edge list (enqueue + pump, full compaction on).  Deterministic
//     and compute-bound, so its anchor-normalized ratio is stable across
//     machines: this is the record the perf-smoke gate tracks.  Its params
//     carry read-path latency percentiles from a single-threaded cached
//     read pass over the final snapshot (lat_p50_us / lat_p99_us /
//     lat_p999_us) — the p99-vs-p50 tail bound perf_smoke.sh enforces.
//   * graph "ingest-urand-mixed" — one "ingest-closed-loop" record per
//     (workers, read_fraction) cell, with read and write percentiles in
//     the params.  Wall times depend on scheduler interleaving
//     (core-count-sensitive), so these carry no anchor and ride as notes
//     in ratio-mode comparison.
//
// The run ends with a differential self-check: the pipeline's final labels
// must be bit-identical to a direct apply_batch of the same edge list on a
// fresh engine — a broken compaction path fails the bench loudly (exit 1)
// rather than publishing tainted numbers.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.hpp"
#include "cc/union_find.hpp"
#include "graph/generators/uniform.hpp"
#include "serve/ingest.hpp"
#include "serve/query_engine.hpp"
#include "serve/workload.hpp"
#include "util/latency_histogram.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using afforest::EdgeList;
using afforest::LatencyHistogram;
using afforest::Timer;
using afforest::Xoshiro256;
using NodeID = std::int32_t;
using Engine = afforest::serve::QueryEngine<NodeID>;
using Pipeline = afforest::serve::IngestPipeline<Engine, NodeID>;

struct LoadConfig {
  std::int64_t num_nodes = 0;
  int workers = 2;
  double read_fraction = 0.9;
  std::int64_t ops_per_worker = 20000;
  afforest::serve::Skew skew = afforest::serve::Skew::kZipfian;
  double theta = 0.99;
  bool use_cache = true;
  afforest::serve::IngestOptions ingest;
  std::uint64_t seed = 42;
};

struct LoadResult {
  double wall_s = 0;
  LatencyHistogram read_lat;
  LatencyHistogram write_lat;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t sheds = 0;  ///< typed overflow rejections (shed policy)
  afforest::serve::IngestStats ingest_stats;
  afforest::serve::MembershipCache<NodeID>::Stats cache_stats;
};

/// One closed-loop cell: W workers issue the op mix against the pipeline
/// until each has completed its op budget; the background consumer drains
/// continuously.  Writes draw uniform endpoints (fresh merges keep
/// arriving); reads draw keys from the configured skew.
LoadResult run_closed_loop(const LoadConfig& cfg) {
  Engine engine(cfg.num_nodes);
  Pipeline pipe(engine, cfg.ingest);
  afforest::serve::MembershipCache<NodeID> cache(4096);
  const afforest::serve::KeySampler sampler(
      cfg.skew, static_cast<std::uint64_t>(cfg.num_nodes), cfg.theta);
  const Xoshiro256 root_rng(cfg.seed);

  LoadResult result;
  std::vector<LatencyHistogram> read_lat(
      static_cast<std::size_t>(cfg.workers));
  std::vector<LatencyHistogram> write_lat(
      static_cast<std::size_t>(cfg.workers));
  std::atomic<std::uint64_t> sheds{0};

  Timer wall;
  wall.start();
  pipe.start_writer();

  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(cfg.workers));
  for (int w = 0; w < cfg.workers; ++w) {
    workers.emplace_back([&, w] {
      Xoshiro256 rng = root_rng.split(static_cast<std::uint64_t>(w) + 1);
      auto& rl = read_lat[static_cast<std::size_t>(w)];
      auto& wl = write_lat[static_cast<std::size_t>(w)];
      for (std::int64_t i = 0; i < cfg.ops_per_worker; ++i) {
        const bool is_read = rng.next_double() < cfg.read_fraction;
        Timer t;
        if (is_read) {
          const auto key = static_cast<NodeID>(sampler.next(rng));
          t.start();
          const auto view = engine.acquire();
          if (cfg.use_cache) {
            (void)cache.component_of(key, view);
          } else {
            (void)view.component_of(key);
          }
          t.stop();
          rl.record_seconds(t.seconds());
        } else {
          const auto u = static_cast<NodeID>(
              rng.next_bounded(static_cast<std::uint64_t>(cfg.num_nodes)));
          const auto v = static_cast<NodeID>(
              rng.next_bounded(static_cast<std::uint64_t>(cfg.num_nodes)));
          t.start();
          try {
            pipe.enqueue({u, v});
          } catch (const afforest::serve::QueueOverflowError&) {
            sheds.fetch_add(1, std::memory_order_relaxed);
          }
          t.stop();
          wl.record_seconds(t.seconds());
        }
      }
    });
  }
  for (auto& t : workers) t.join();
  pipe.stop_writer();
  wall.stop();

  result.wall_s = wall.seconds();
  for (int w = 0; w < cfg.workers; ++w) {
    result.read_lat.merge(read_lat[static_cast<std::size_t>(w)]);
    result.write_lat.merge(write_lat[static_cast<std::size_t>(w)]);
  }
  result.reads = result.read_lat.count();
  result.writes = result.write_lat.count();
  result.sheds = sheds.load();
  result.ingest_stats = pipe.stats();
  result.cache_stats = cache.stats();
  return result;
}

/// Single-threaded pipeline ingest of the whole list: enqueue round-robin
/// in slices, pump per slice.  Deterministic and compute-bound — the
/// anchored steady record times exactly this.  There is no concurrent
/// consumer here, so a slice must fit the queues: larger requests are
/// clamped to total queue capacity (shed would throw mid-slice, block
/// would spin against a consumer that never runs).
void pipeline_ingest_all(Engine& engine, const EdgeList<NodeID>& edges,
                         const afforest::serve::IngestOptions& opts,
                         std::int64_t slice) {
  Pipeline pipe(engine, opts);
  const auto total_capacity =
      static_cast<std::int64_t>(opts.queues * opts.queue_capacity);
  slice = std::min(slice, total_capacity);
  std::size_t rr = 0;
  std::int64_t in_slice = 0;
  for (const auto& e : edges) {
    pipe.enqueue_to(rr++ % opts.queues, e);
    if (++in_slice == slice) {
      pipe.pump();
      in_slice = 0;
    }
  }
  pipe.pump();
}

double us(std::uint64_t ns) { return static_cast<double>(ns) * 1e-3; }

}  // namespace

int main(int argc, char** argv) {
  using namespace afforest;
  CommandLine cl(argc, argv);
  cl.describe("scale", "log2 of vertex count (default 14)");
  cl.describe("degree", "average degree of the streamed graph (default 8)");
  cl.describe("trials", "timed repetitions for anchored records (default 3)");
  cl.describe("workers", "comma-separated closed-loop worker sweep "
                         "(default 1,2,4)");
  cl.describe("read-fractions",
              "comma-separated read-mix sweep in [0,1) (default 0.5,0.95)");
  cl.describe("ops", "operations per worker per cell (default 20000)");
  cl.describe("skew", "read-key distribution: uniform | zipfian");
  cl.describe("theta", "zipfian skew parameter in [0,1] (default 0.99)");
  cl.describe("cache", "1 = reads go through the membership cache "
                       "(default 1)");
  cl.describe("queues", "producer queue count (default 4)");
  cl.describe("queue-capacity", "edges per queue before backpressure "
                                "(default 4096)");
  cl.describe("policy", "backpressure policy: block | shed (default block)");
  cl.describe("slice", "edges per pump in the steady ingest (default 1024)");
  cl.describe("seed", "workload RNG seed (default 42)");
  bench::JsonReporter json(cl, "loadgen");
  if (!bench::standard_preamble(
          cl, "Loadgen: closed-loop tail-latency harness over the "
              "ingestion front end"))
    return 0;
  const int scale = static_cast<int>(cl.get_int("scale", 14));
  const int degree = static_cast<int>(cl.get_int("degree", 8));
  const int trials = static_cast<int>(cl.get_int("trials", 3));
  const std::string workers_csv = cl.get_string("workers", "1,2,4");
  const std::string mixes_csv = cl.get_string("read-fractions", "0.5,0.95");
  const std::int64_t ops = cl.get_int("ops", 20000);
  const std::string skew_str = cl.get_string("skew", "zipfian");
  const double theta = cl.get_double("theta", 0.99);
  const bool use_cache = cl.get_int("cache", 1) != 0;
  const std::int64_t queues = cl.get_int("queues", 4);
  const std::int64_t queue_capacity = cl.get_int("queue-capacity", 4096);
  const std::string policy_str = cl.get_string("policy", "block");
  const std::int64_t slice = cl.get_int("slice", 1024);
  const auto seed = static_cast<std::uint64_t>(cl.get_int("seed", 42));
  bench::warn_unknown_flags(cl);

  serve::Skew skew;
  serve::BackpressurePolicy policy;
  std::vector<std::int64_t> worker_sweep;
  std::vector<double> mix_sweep;
  try {
    skew = serve::parse_skew(skew_str);
    policy = serve::parse_backpressure(policy_str);
    worker_sweep = bench::parse_list<std::int64_t>(
        workers_csv, "workers", [](std::int64_t w) { return w > 0; },
        "positive");
    mix_sweep = bench::parse_list<double>(
        mixes_csv, "read-fractions",
        [](double f) { return f >= 0.0 && f < 1.0; }, "in [0, 1)");
    if (queues <= 0 || queue_capacity <= 0 || slice <= 0 || ops <= 0)
      throw std::invalid_argument(
          "--queues/--queue-capacity/--slice/--ops must be positive");
  } catch (const std::invalid_argument& e) {
    std::cerr << "loadgen: " << e.what() << "\n";
    return 2;
  }

  serve::IngestOptions ingest_opts;
  ingest_opts.queues = static_cast<std::size_t>(queues);
  ingest_opts.queue_capacity = static_cast<std::size_t>(queue_capacity);
  ingest_opts.policy = policy;

  const std::int64_t n = std::int64_t{1} << scale;
  const std::int64_t m = n * degree;
  const EdgeList<NodeID> edges = generate_uniform_edges<NodeID>(n, m, seed);
  const std::string graph = "ingest-urand";
  const std::string mixed_graph = "ingest-urand-mixed";
  std::cout << "graph=" << graph << " V=" << n << " E=" << m << " skew="
            << serve::skew_name(skew) << " cache=" << (use_cache ? 1 : 0)
            << " policy=" << serve::backpressure_name(policy) << "\n\n";

  // Ratio-mode anchor on the same graph name, so bench_compare normalizes
  // the steady ingest record without reference to other suites.
  const auto anchor_summary =
      bench::time_trials([&] { union_find_cc(edges, n); }, trials);
  if (json.collect())
    json.add(graph, "serial-uf", {{"scale", scale}, {"trials", trials}},
             anchor_summary);

  // ---- anchored steady record: single-threaded pipeline ingest ----------
  const TrialSummary steady = bench::time_trials(
      [&] {
        Engine engine(n);
        pipeline_ingest_all(engine, edges, ingest_opts, slice);
      },
      trials);

  // Read-path tail on the final snapshot, single-threaded and cached:
  // deterministic enough to bound p99 against p50 in perf_smoke.sh.
  Engine steady_engine(n);
  pipeline_ingest_all(steady_engine, edges, ingest_opts, slice);
  LatencyHistogram steady_reads;
  {
    serve::MembershipCache<NodeID> cache(4096);
    const serve::KeySampler sampler(skew, static_cast<std::uint64_t>(n),
                                    theta);
    Xoshiro256 rng = Xoshiro256(seed).split(0xBEEF);
    constexpr int kSteadyReads = 1 << 16;
    for (int i = 0; i < kSteadyReads; ++i) {
      const auto key = static_cast<NodeID>(sampler.next(rng));
      Timer t;
      t.start();
      const auto view = steady_engine.acquire();
      if (use_cache)
        (void)cache.component_of(key, view);
      else
        (void)view.component_of(key);
      t.stop();
      steady_reads.record_seconds(t.seconds());
    }
  }
  std::cout << "steady ingest (1 thread, full compaction): "
            << TextTable::fmt(steady.median_s * 1e3, 2) << " ms median for "
            << m << " edges; cached read tail p50/p99/p999 = "
            << TextTable::fmt(us(steady_reads.percentile_ns(50)), 2) << "/"
            << TextTable::fmt(us(steady_reads.percentile_ns(99)), 2) << "/"
            << TextTable::fmt(us(steady_reads.percentile_ns(99.9)), 2)
            << " us\n\n";
  if (json.collect()) {
    const telemetry::Report report = bench::measure_counters([&] {
      Engine engine(n);
      pipeline_ingest_all(engine, edges, ingest_opts, slice);
    });
    json.add(graph, "serve-ingest-steady",
             {{"scale", scale},
              {"trials", trials},
              {"slice", slice},
              {"queues", queues},
              {"skew", serve::skew_name(skew)},
              {"theta", theta},
              {"cache", use_cache},
              {"lat_p50_us", us(steady_reads.percentile_ns(50))},
              {"lat_p99_us", us(steady_reads.percentile_ns(99))},
              {"lat_p999_us", us(steady_reads.percentile_ns(99.9))}},
             steady, report);
  }

  // ---- closed-loop sweep: offered load (workers) x read mix -------------
  TextTable table({"workers", "read_frac", "wall ms", "kops/s",
                   "read p50 us", "read p99 us", "read p999 us",
                   "write p99 us", "coalesced", "noop", "cache hit%"});
  for (const std::int64_t w : worker_sweep) {
    for (const double mix : mix_sweep) {
      LoadConfig cfg;
      cfg.num_nodes = n;
      cfg.workers = static_cast<int>(w);
      cfg.read_fraction = mix;
      cfg.ops_per_worker = ops;
      cfg.skew = skew;
      cfg.theta = theta;
      cfg.use_cache = use_cache;
      cfg.ingest = ingest_opts;
      cfg.seed = seed;

      const LoadResult r = run_closed_loop(cfg);
      const std::uint64_t total_ops = r.reads + r.writes;
      const double kops =
          r.wall_s > 0 ? static_cast<double>(total_ops) / r.wall_s / 1e3 : 0;
      const std::uint64_t cache_lookups =
          r.cache_stats.hits + r.cache_stats.misses;
      const double hit_pct =
          cache_lookups > 0 ? 100.0 * static_cast<double>(r.cache_stats.hits) /
                                  static_cast<double>(cache_lookups)
                            : 0.0;
      table.add_row({std::to_string(w), TextTable::fmt(mix, 2),
                     TextTable::fmt(r.wall_s * 1e3, 2),
                     TextTable::fmt(kops, 1),
                     TextTable::fmt(us(r.read_lat.percentile_ns(50)), 2),
                     TextTable::fmt(us(r.read_lat.percentile_ns(99)), 2),
                     TextTable::fmt(us(r.read_lat.percentile_ns(99.9)), 2),
                     TextTable::fmt(us(r.write_lat.percentile_ns(99)), 2),
                     std::to_string(r.ingest_stats.edges_coalesced),
                     std::to_string(r.ingest_stats.edges_dropped_noop),
                     TextTable::fmt(hit_pct, 1)});

      if (json.collect()) {
        const telemetry::Report report =
            bench::measure_counters([&] { run_closed_loop(cfg); });
        json.add(mixed_graph, "ingest-closed-loop",
                 {{"scale", scale},
                  {"workers", w},
                  {"read_fraction", mix},
                  {"ops_per_worker", ops},
                  {"skew", serve::skew_name(skew)},
                  {"theta", theta},
                  {"cache", use_cache},
                  {"policy", serve::backpressure_name(policy)},
                  {"read_p50_us", us(r.read_lat.percentile_ns(50))},
                  {"read_p99_us", us(r.read_lat.percentile_ns(99))},
                  {"read_p999_us", us(r.read_lat.percentile_ns(99.9))},
                  {"write_p50_us", us(r.write_lat.percentile_ns(50))},
                  {"write_p99_us", us(r.write_lat.percentile_ns(99))},
                  {"write_p999_us", us(r.write_lat.percentile_ns(99.9))},
                  {"sheds", static_cast<std::int64_t>(r.sheds)}},
                 summarize_trials({r.wall_s}), report);
      }
    }
  }
  table.print(std::cout);

  // ---- differential self-check: compaction must not change answers ------
  {
    Engine direct(n);
    direct.apply_batch(edges);
    direct.publish();
    const auto want = direct.labels();
    const auto got = steady_engine.labels();
    for (std::size_t i = 0; i < want.size(); ++i) {
      if (want[i] != got[i]) {
        std::cerr << "loadgen: FATAL: pipeline labels diverge from direct "
                     "apply at vertex "
                  << i << " (" << got[i] << " != " << want[i] << ")\n";
        return 1;
      }
    }
  }
  std::cout << "\nself-check: pipeline labels match direct apply "
               "(compaction is answer-preserving)\n";
  std::cout << "expected shape: the cache turns hot Zipfian reads into "
               "near-constant lookups (p50 flat as workers grow); write "
               "p99 tracks queue contention and the backpressure policy.\n";
  return 0;
}
