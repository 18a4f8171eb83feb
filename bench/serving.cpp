// Mixed read/write serving workload, one driver for src/serve's QueryEngine
// and src/shard's ShardedEngine.
//
// One writer thread streams a uniform-random edge list into the engine in
// batches (apply_batch + publish per batch) while R reader threads issue
// SoA query batches against the published snapshots.  The read fraction
// sets how many queries ride alongside the edge stream
// (queries = edges * f / (1 - f)) and the key sampler which vertices they
// touch (uniform or Zipfian, the YCSB-style skew).  The QueryEngine sweep
// varies the write batch (--batch-sizes: snapshot freshness against
// publish amortization), the ShardedEngine sweep the shard count
// (--shards, at --edge-batch: the cost of quotient maintenance and publish
// fan-out).  Readers fail the run on a backwards epoch or, sharded, on an
// atom that mixes shard epochs.  Each sweep point reports ingest time,
// query throughput and batch-latency p50/p95/p99.
//
// With --json the run emits afforest-bench-1 records per tier ("serve" /
// "shard"):
//
//   * graph "<tier>-urand" — a "serial-uf" anchor plus
//     "<tier>-query-steady" (one query batch against the final snapshot, no
//     concurrent writer; sharded at --steady-shards).  Compute-bound, so
//     the anchor-normalized ratio is stable across machines: these are the
//     records the perf-smoke gate tracks.
//   * graph "<tier>-urand-mixed" — "<tier>-ingest" / "<tier>-query" per
//     sweep point, with the serving and shard telemetry counters.  Their
//     wall times depend on how the scheduler interleaves writer and
//     readers, so they carry no anchor and ratio mode reports them as notes.
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
#include "serve/query_batch.hpp"
#include "serve/query_engine.hpp"
#include "serve/workload.hpp"
#include "shard/sharded_engine.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace afforest;
using NodeID = std::int32_t;
using QueryEngine = serve::QueryEngine<NodeID>;
using ShardedEngine = shard::ShardedEngine<NodeID>;

struct MixConfig {
  std::int64_t num_nodes = 0;
  std::int64_t edge_batch = 1024;
  std::int64_t query_batch = 256;
  int readers = 2;
  double read_fraction = 0.9;
  serve::Skew skew = serve::Skew::kUniform;
  double theta = 0.99;
  std::uint64_t seed = 42;
};

struct MixResult {
  double wall_s = 0;                     ///< whole mixed phase
  double ingest_s = 0;                   ///< writer thread's portion
  std::vector<double> batch_latencies_s; ///< one sample per query batch
  std::uint64_t queries = 0;
  std::uint64_t epoch_violations = 0;    ///< should stay 0
  std::int64_t components = 0;           ///< final component count
};

/// Runs one full mixed phase on a fresh Engine(num_nodes, engine_args...):
/// the writer streams `edges` in batches, readers issue query batches
/// until the target query count is served.
template <typename Engine, typename... EngineArgs>
MixResult run_mixed(const EdgeList<NodeID>& edges, const MixConfig& cfg,
                    EngineArgs... engine_args) {
  Engine engine(cfg.num_nodes, engine_args...);
  const std::int64_t m = static_cast<std::int64_t>(edges.size());

  const double f = std::clamp(cfg.read_fraction, 0.0, 0.99);
  const auto target_queries =
      static_cast<std::uint64_t>(static_cast<double>(m) * f / (1.0 - f));

  const serve::KeySampler sampler(
      cfg.skew, static_cast<std::uint64_t>(cfg.num_nodes), cfg.theta);
  const Xoshiro256 root_rng(cfg.seed);

  MixResult result;
  std::atomic<std::uint64_t> queries_served{0};
  std::atomic<std::uint64_t> epoch_violations{0};
  std::vector<std::vector<double>> latencies(
      static_cast<std::size_t>(std::max(cfg.readers, 1)));

  Timer wall;
  wall.start();

  std::thread writer([&] {
    Timer t;
    t.start();
    for (std::int64_t start = 0; start < m; start += cfg.edge_batch) {
      const auto count = static_cast<std::size_t>(
          std::min(cfg.edge_batch, m - start));
      engine.apply_batch(edges.data() + start, count);
      engine.publish();
    }
    if (m == 0) engine.publish();  // at least one epoch turn per phase
    t.stop();
    result.ingest_s = t.seconds();
  });

  std::vector<std::thread> reader_threads;
  reader_threads.reserve(static_cast<std::size_t>(cfg.readers));
  for (int r = 0; r < cfg.readers; ++r) {
    reader_threads.emplace_back([&, r] {
      Xoshiro256 rng = root_rng.split(static_cast<std::uint64_t>(r) + 1);
      serve::QueryBatch<NodeID> batch;
      std::uint64_t last_epoch = 0;
      while (queries_served.fetch_add(
                 static_cast<std::uint64_t>(cfg.query_batch)) <
             target_queries) {
        // The sharded tier's extra invariant: every shard snapshot in one
        // atom carries the same epoch.
        if constexpr (requires(const Engine& e) {
                        Engine::shard_epochs(e.acquire());
                      }) {
          const auto view = engine.acquire();
          for (const std::uint64_t e : Engine::shard_epochs(view))
            if (e != view.epoch()) epoch_violations.fetch_add(1);
        }
        batch.clear();
        for (std::int64_t i = 0; i < cfg.query_batch; ++i)
          batch.add(static_cast<NodeID>(sampler.next(rng)),
                    static_cast<NodeID>(sampler.next(rng)));
        Timer t;
        t.start();
        engine.answer(batch);
        t.stop();
        latencies[static_cast<std::size_t>(r)].push_back(t.seconds());
        if (batch.epoch < last_epoch) epoch_violations.fetch_add(1);
        last_epoch = batch.epoch;
      }
    });
  }

  writer.join();
  for (auto& t : reader_threads) t.join();
  wall.stop();

  result.wall_s = wall.seconds();
  for (const auto& per_reader : latencies) {
    result.queries += static_cast<std::uint64_t>(per_reader.size()) *
                      static_cast<std::uint64_t>(cfg.query_batch);
    result.batch_latencies_s.insert(result.batch_latencies_s.end(),
                                    per_reader.begin(), per_reader.end());
  }
  result.epoch_violations = epoch_violations.load();
  result.components = engine.component_count();
  return result;
}

/// What every sweep point shares: the stream, the trial count, and where
/// rows and records go.
struct Sweep {
  const EdgeList<NodeID>& edges;
  int scale;
  int trials;
  TextTable& table;
  bench::JsonReporter& json;

  /// Record params: scale and trials, the point's own knobs, then `tail`.
  [[nodiscard]] std::vector<bench::Param> params(
      std::vector<bench::Param> knobs,
      const std::vector<bench::Param>& tail) const {
    knobs.insert(knobs.begin(), {{"scale", scale}, {"trials", trials}});
    knobs.insert(knobs.end(), tail.begin(), tail.end());
    return knobs;
  }
};

/// One sweep point on Engine(num_nodes, engine_args...): `trials` timed
/// mixed phases and one table row; with --json, the "<tier>-ingest" and
/// "<tier>-query" records on graph "<tier>-urand-mixed", carrying the
/// counters of one armed extra phase (the timed phases run with telemetry
/// dark).  Returns false when a reader saw an epoch violation.
template <typename Engine, typename... EngineArgs>
bool sweep_point(const Sweep& sweep, const MixConfig& cfg,
                 const std::string& tier, const std::string& engine_name,
                 const std::vector<bench::Param>& knobs,
                 EngineArgs... engine_args) {
  std::vector<double> ingest_times;
  std::vector<double> all_latencies;
  MixResult last;
  for (int t = 0; t < std::max(1, sweep.trials); ++t) {
    last = run_mixed<Engine>(sweep.edges, cfg, engine_args...);
    ingest_times.push_back(last.ingest_s);
    all_latencies.insert(all_latencies.end(), last.batch_latencies_s.begin(),
                         last.batch_latencies_s.end());
    if (last.epoch_violations != 0) {
      std::cerr << "serving: FATAL: " << engine_name << " readers observed "
                << last.epoch_violations << " epoch violation(s)\n";
      return false;
    }
  }

  const double qps =
      last.wall_s > 0 ? static_cast<double>(last.queries) / last.wall_s : 0;
  sweep.table.add_row(
      {engine_name, std::to_string(cfg.edge_batch),
       TextTable::fmt(median(ingest_times) * 1e3, 2),
       TextTable::fmt(last.wall_s * 1e3, 2), std::to_string(last.queries),
       TextTable::fmt(qps / 1e3, 1),
       TextTable::fmt(percentile(all_latencies, 50) * 1e6, 1),
       TextTable::fmt(percentile(all_latencies, 95) * 1e6, 1),
       TextTable::fmt(percentile(all_latencies, 99) * 1e6, 1),
       std::to_string(last.components)});

  if (sweep.json.collect()) {
    const telemetry::Report report = bench::measure_counters(
        [&] { run_mixed<Engine>(sweep.edges, cfg, engine_args...); });
    const auto params = sweep.params(
        knobs, {{"query_batch", cfg.query_batch},
                {"readers", cfg.readers},
                {"read_fraction", cfg.read_fraction},
                {"skew", serve::skew_name(cfg.skew)},
                {"theta", cfg.theta}});
    const std::string graph = tier + "-urand-mixed";
    sweep.json.add(graph, tier + "-ingest", params,
                   summarize_trials(ingest_times), report);
    sweep.json.add(graph, tier + "-query", params,
                   summarize_trials(all_latencies), report);
  }
  return true;
}

/// Steady-state query throughput on Engine(num_nodes, engine_args...)
/// holding the whole stream: `queries` answered in one batch with no
/// concurrent writer.  Compute-bound, so the "<tier>-query-steady" record
/// on graph "<tier>-urand" is the anchor-normalized one the perf-smoke
/// gate tracks.
template <typename Engine, typename... EngineArgs>
void steady_pass(const Sweep& sweep, const MixConfig& cfg,
                 serve::QueryBatch<NodeID>& queries, const std::string& tier,
                 const std::string& engine_name,
                 const std::vector<bench::Param>& knobs,
                 EngineArgs... engine_args) {
  Engine engine(cfg.num_nodes, engine_args...);
  engine.apply_batch(sweep.edges);
  engine.publish();
  const TrialSummary steady =
      bench::time_trials([&] { engine.answer(queries); }, sweep.trials);
  const auto count = static_cast<double>(queries.count());
  const double mqps =
      steady.median_s > 0 ? count / steady.median_s / 1e6 : 0;
  std::cout << "steady-state (no writer, " << engine_name
            << "): " << queries.count() << " queries in "
            << TextTable::fmt(steady.median_s * 1e3, 2) << " ms median ("
            << TextTable::fmt(mqps, 1) << " Mq/s)\n";
  if (sweep.json.collect()) {
    const telemetry::Report report =
        bench::measure_counters([&] { engine.answer(queries); });
    sweep.json.add(tier + "-urand", tier + "-query-steady",
                   sweep.params(knobs, {{"skew", serve::skew_name(cfg.skew)},
                                        {"theta", cfg.theta}}),
                   steady, report);
  }
}

}  // namespace

int main(int argc, char** argv) {
  CommandLine cl(argc, argv);
  cl.describe("scale", "log2 of vertex count (default 14)");
  cl.describe("trials", "mixed-phase repetitions per sweep point (default 3)");
  cl.describe("degree", "average degree of the streamed graph (default 8)");
  cl.describe("read-fraction",
              "fraction of operations that are queries (default 0.9)");
  cl.describe("skew", "query key distribution: uniform | zipfian");
  cl.describe("theta", "zipfian skew parameter in (0,1) (default 0.99)");
  cl.describe("readers", "number of query threads (default 2)");
  cl.describe("query-batch", "queries per QueryBatch (default 256)");
  cl.describe("batch-sizes",
              "comma-separated QueryEngine write-batch sweep "
              "(default 256,1024,4096)");
  cl.describe("shards",
              "comma-separated ShardedEngine shard-count sweep "
              "(default 1,2,4,7)");
  cl.describe("edge-batch",
              "edges per apply+publish round in the shard sweep "
              "(default 1024)");
  cl.describe("steady-queries",
              "steady-state throughput batch size (default 65536; 0 skips)");
  cl.describe("steady-shards",
              "shard count for the sharded steady-state record (default 4)");
  cl.describe("seed", "workload RNG seed (default 42)");
  bench::JsonReporter json(cl, "serving");
  if (!bench::standard_preamble(
          cl, "Serving: mixed read/write connectivity workload"))
    return 0;
  const int scale = static_cast<int>(cl.get_int("scale", 14));
  const int trials = static_cast<int>(cl.get_int("trials", 3));
  const int degree = static_cast<int>(cl.get_int("degree", 8));
  const double read_fraction = cl.get_double("read-fraction", 0.9);
  const std::string skew_str = cl.get_string("skew", "uniform");
  const double theta = cl.get_double("theta", 0.99);
  const int readers = static_cast<int>(cl.get_int("readers", 2));
  const std::int64_t query_batch = cl.get_int("query-batch", 256);
  const std::string batch_csv = cl.get_string("batch-sizes", "256,1024,4096");
  const std::string shards_csv = cl.get_string("shards", "1,2,4,7");
  const std::int64_t edge_batch = cl.get_int("edge-batch", 1024);
  const std::int64_t steady_queries = cl.get_int("steady-queries", 1 << 16);
  const int steady_shards = static_cast<int>(cl.get_int("steady-shards", 4));
  const auto seed = static_cast<std::uint64_t>(cl.get_int("seed", 42));
  bench::warn_unknown_flags(cl);

  const auto positive = [](auto v) { return v > 0; };
  serve::Skew skew;
  std::vector<std::int64_t> batch_sizes;
  std::vector<int> shard_counts;
  try {
    skew = serve::parse_skew(skew_str);
    batch_sizes = bench::parse_list<std::int64_t>(batch_csv, "batch-sizes",
                                                  positive, "positive");
    shard_counts =
        bench::parse_list<int>(shards_csv, "shards", positive, "positive");
    if (edge_batch <= 0 || query_batch <= 0 || steady_shards <= 0)
      throw std::invalid_argument(
          "--edge-batch/--query-batch/--steady-shards must be positive");
  } catch (const std::invalid_argument& e) {
    std::cerr << "serving: " << e.what() << "\n";
    return 2;
  }

  const std::int64_t n = std::int64_t{1} << scale;
  const std::int64_t m = n * degree;
  const EdgeList<NodeID> edges = generate_uniform_edges<NodeID>(n, m, seed);
  std::cout << "stream: urand V=" << n << " E=" << m
            << " read_fraction=" << read_fraction << " skew="
            << serve::skew_name(skew) << " readers=" << readers << "\n\n";

  // Ratio-mode anchor: serial union-find over the same edge list, reported
  // on both engines' graphs so bench_compare normalizes each tier's
  // records without reference to the fig8a suite.
  const auto anchor_summary = bench::time_trials(
      [&] { union_find_cc(edges, n); }, trials);
  for (const char* graph : {"serve-urand", "shard-urand"})
    json.add(graph, "serial-uf", {{"scale", scale}, {"trials", trials}},
             anchor_summary);

  TextTable table({"engine", "batch", "ingest ms", "wall ms", "queries",
                   "kq/s", "lat p50 us", "lat p95 us", "lat p99 us",
                   "comps"});
  const Sweep sweep{edges, scale, trials, table, json};
  MixConfig cfg{.num_nodes = n, .query_batch = query_batch,
                .readers = readers, .read_fraction = read_fraction,
                .skew = skew, .theta = theta, .seed = seed};
  for (const std::int64_t batch : batch_sizes) {
    cfg.edge_batch = batch;
    if (!sweep_point<QueryEngine>(sweep, cfg, "serve", "query",
                                  {{"batch", batch}}))
      return 1;
  }
  cfg.edge_batch = edge_batch;
  for (const int shards : shard_counts) {
    if (!sweep_point<ShardedEngine>(
            sweep, cfg, "shard", "shards=" + std::to_string(shards),
            {{"shards", shards}, {"edge_batch", edge_batch}}, shards))
      return 1;
  }
  table.print(std::cout);

  if (steady_queries > 0) {
    const serve::KeySampler sampler(skew, static_cast<std::uint64_t>(n),
                                    theta);
    Xoshiro256 rng = Xoshiro256(seed).split(0xBEEF);
    serve::QueryBatch<NodeID> queries;
    for (std::int64_t i = 0; i < steady_queries; ++i)
      queries.add(static_cast<NodeID>(sampler.next(rng)),
                  static_cast<NodeID>(sampler.next(rng)));
    std::cout << "\n";
    steady_pass<QueryEngine>(sweep, cfg, queries, "serve", "query",
                             {{"steady_queries", steady_queries}});
    steady_pass<ShardedEngine>(
        sweep, cfg, queries, "shard",
        "shards=" + std::to_string(steady_shards),
        {{"steady_queries", steady_queries}, {"shards", steady_shards}},
        steady_shards);
  }
  std::cout << "\nexpected shape: larger write batches amortize publishes "
               "(lower ingest time) at the cost of staler snapshots; more "
               "shards cost ingest time (publish fan-out + quotient "
               "maintenance); query latency stays near-flat because reads "
               "never block on the writer and sharding adds one hash lookup "
               "per endpoint.\n";
  return 0;
}
