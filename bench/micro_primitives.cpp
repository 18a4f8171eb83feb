// google-benchmark microbenchmarks of Afforest's primitives and the graph
// substrate: link on pre-merged vs fresh trees, compress on shallow vs deep
// forests, sample_frequent_element, CSR build (urand and Kronecker rows),
// and full algorithm runs on a fixed graph.
//
// Custom main (instead of benchmark_main) so the binary shares the harness
// convention: --json <path> mirrors every benchmark's per-iteration real
// time into an afforest-bench-1 document alongside google-benchmark's
// normal console output.
#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "bench/harness.hpp"
#include "cc/afforest.hpp"
#include "cc/registry.hpp"
#include "graph/builder.hpp"
#include "graph/generators/kronecker.hpp"
#include "graph/generators/uniform.hpp"
#include "graph/generators/suite.hpp"

namespace {

using namespace afforest;
using NodeID = std::int32_t;

void BM_LinkFreshSingletons(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  for (auto _ : state) {
    state.PauseTiming();
    auto comp = identity_labels<NodeID>(n);
    state.ResumeTiming();
    for (std::int64_t v = 1; v < n; ++v)
      link(static_cast<NodeID>(v - 1), static_cast<NodeID>(v), comp);
    benchmark::DoNotOptimize(comp.data());
  }
  state.SetItemsProcessed(state.iterations() * (n - 1));
}
BENCHMARK(BM_LinkFreshSingletons)->Range(1 << 10, 1 << 16);

void BM_LinkAlreadyConverged(benchmark::State& state) {
  // The Table II insight: validating a converged tree costs ~1 iteration.
  const std::int64_t n = state.range(0);
  auto comp = identity_labels<NodeID>(n);
  for (std::int64_t v = 1; v < n; ++v)
    link(static_cast<NodeID>(v - 1), static_cast<NodeID>(v), comp);
  compress_all(comp);
  for (auto _ : state) {
    for (std::int64_t v = 1; v < n; ++v)
      link(static_cast<NodeID>(v - 1), static_cast<NodeID>(v), comp);
    benchmark::DoNotOptimize(comp.data());
  }
  state.SetItemsProcessed(state.iterations() * (n - 1));
}
BENCHMARK(BM_LinkAlreadyConverged)->Range(1 << 10, 1 << 16);

void BM_CompressShallowForest(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  auto base = identity_labels<NodeID>(n);
  for (std::int64_t v = 1; v < n; ++v)
    link(static_cast<NodeID>(v - 1), static_cast<NodeID>(v), base);
  compress_all(base);
  for (auto _ : state) {
    state.PauseTiming();
    auto comp = base.clone();
    state.ResumeTiming();
    compress_all(comp);
    benchmark::DoNotOptimize(comp.data());
  }
}
BENCHMARK(BM_CompressShallowForest)->Range(1 << 10, 1 << 16);

void BM_SampleFrequentElement(benchmark::State& state) {
  pvector<NodeID> comp(1 << 16, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sample_frequent_element(comp, static_cast<std::int32_t>(state.range(0))));
  }
}
BENCHMARK(BM_SampleFrequentElement)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

void BM_BuildCSR(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  const auto edges = generate_uniform_edges<NodeID>(n, 8 * n, 1);
  for (auto _ : state) {
    auto g = build_undirected(edges, n);
    benchmark::DoNotOptimize(g.num_stored_edges());
  }
  state.SetItemsProcessed(state.iterations() * 8 * n);
}
BENCHMARK(BM_BuildCSR)->Range(1 << 10, 1 << 15);

// Kronecker rows are skewed: at scales 12-16, 31-48% of the deduplicated
// entries sit in rows of 256 or more, which the builder radix-sorts, where
// urand's rows average 16 entries and never reach that path.
void BM_BuildCSRKron(benchmark::State& state) {
  const auto scale = static_cast<int>(state.range(0));
  const auto edges = generate_kronecker_edges<NodeID>(scale, 16, 1);
  for (auto _ : state) {
    auto g = build_undirected(edges, std::int64_t{1} << scale);
    benchmark::DoNotOptimize(g.num_stored_edges());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(edges.size()));
}
BENCHMARK(BM_BuildCSRKron)->DenseRange(12, 16, 2);

void BM_FullAlgorithm(benchmark::State& state, const char* algo_name) {
  static const Graph g = make_suite_graph("kron", 14);
  const auto& algo = cc_algorithm(algo_name);
  for (auto _ : state) {
    auto labels = algo.run(g);
    benchmark::DoNotOptimize(labels.data());
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK_CAPTURE(BM_FullAlgorithm, afforest, "afforest");
BENCHMARK_CAPTURE(BM_FullAlgorithm, afforest_noskip, "afforest-noskip");
BENCHMARK_CAPTURE(BM_FullAlgorithm, sv, "sv");
BENCHMARK_CAPTURE(BM_FullAlgorithm, dobfs, "dobfs");

// Console reporter that additionally collects each run as a JsonRecord
// (graph="micro", algorithm=benchmark name, median = per-iteration real
// seconds).  google-benchmark reports one aggregate Run per benchmark by
// default, so min/p25/p75/max collapse onto the same value.
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& r : runs) {
      if (r.error_occurred) continue;
      const double per_iter_s =
          r.iterations > 0
              ? r.real_accumulated_time / static_cast<double>(r.iterations)
              : 0.0;
      TrialSummary t;
      t.median_s = t.p25_s = t.p75_s = t.min_s = t.max_s = per_iter_s;
      t.trials = 1;
      bench::JsonRecord rec;
      rec.graph = "micro";
      rec.algorithm = r.benchmark_name();
      rec.params = {
          {"iterations",
           static_cast<std::int64_t>(r.iterations)},
          {"items_per_second",
           r.counters.find("items_per_second") != r.counters.end()
               ? static_cast<double>(r.counters.at("items_per_second"))
               : 0.0}};
      rec.trials = t;
      records.push_back(std::move(rec));
    }
    ConsoleReporter::ReportRuns(runs);
  }

  std::vector<bench::JsonRecord> records;
};

}  // namespace

int main(int argc, char** argv) {
  // Extract --json <path> / --json=<path> before handing the rest to
  // google-benchmark (which rejects unknown flags).
  std::string json_path;
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc) + 1);
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      args.push_back(argv[i]);
    }
  }
  args.push_back(nullptr);
  int bench_argc = static_cast<int>(args.size()) - 1;

  benchmark::Initialize(&bench_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data()))
    return 1;
  CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  if (!json_path.empty() &&
      !afforest::bench::emit_json(json_path, "micro_primitives",
                                  reporter.records))
    return 1;
  return 0;
}
