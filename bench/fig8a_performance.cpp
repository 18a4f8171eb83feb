// Reproduces Fig 8a: runtime of Afforest vs all baselines on every suite
// graph, with the paper's reporting (median of N trials, 25th/75th
// percentiles) plus speedup-over-SV and speedup-over-best-non-SV columns.
//
// Expected shape: Afforest fastest or near-fastest everywhere; large
// speedups over SV (paper: 2.49–67x); DOBFS can win on single-component
// urand (paper observed 0.47x there).
//
// --algorithms a,b and --graphs x,y time a subset, named as in the
// registry and the suite (an unknown name exits 2 and lists the valid
// ones); without them every algorithm runs on every suite graph.
#include <iostream>

#include "bench/harness.hpp"
#include "cc/registry.hpp"
#include "cc/verifier.hpp"
#include "cc/union_find.hpp"
#include "graph/generators/suite.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace afforest;
  CommandLine cl(argc, argv);
  cl.describe("scale", "log2 of vertex count per graph (default 15)");
  cl.describe("trials", "timing trials per algorithm (default 7; paper 16)");
  cl.describe("verify", "verify every result against union-find (default true)");
  cl.describe("algorithms",
              "comma-separated registry names to time (default all)");
  cl.describe("graphs", "comma-separated suite graphs to time (default all)");
  bench::JsonReporter json(cl, "fig8a_performance");
  if (!bench::standard_preamble(
          cl, "Fig 8a: CC runtime across algorithms and graph families"))
    return 0;
  const int scale = static_cast<int>(cl.get_int("scale", 15));
  const int trials = static_cast<int>(cl.get_int("trials", 7));
  const bool verify = cl.get_bool("verify", true);
  std::vector<std::string> algorithms, graphs;
  {
    std::vector<std::string> all_algorithms, all_graphs;
    for (const auto& algo : cc_algorithms()) all_algorithms.push_back(algo.name);
    for (const auto& entry : graph_suite_entries())
      all_graphs.push_back(entry.name);
    try {
      algorithms = bench::select_names(cl.get_string("algorithms", ""),
                                       all_algorithms, "algorithms");
      graphs = bench::select_names(cl.get_string("graphs", ""), all_graphs,
                                   "graphs");
    } catch (const std::invalid_argument& e) {
      std::cerr << "fig8a_performance: " << e.what() << "\n";
      return 2;
    }
  }
  bench::warn_unknown_flags(cl);

  for (const auto& name : graphs) {
    const Graph g = make_suite_graph(name, scale);
    std::cout << "graph=" << name << " V=" << g.num_nodes()
              << " E=" << g.num_edges() << "\n";
    const auto truth = verify ? union_find_cc(g)
                              : ComponentLabels<std::int32_t>{};

    TextTable table({"algorithm", "median ms", "p25 ms", "p75 ms",
                     "vs sv", "ok"});
    double sv_median = 0;
    std::vector<std::pair<std::string, TrialSummary>> results;
    for (const auto& algo_name : algorithms) {
      const AlgorithmEntry& algo = cc_algorithm(algo_name);
      const auto summary = bench::time_trials([&] { algo.run(g); }, trials);
      if (algo.name == "sv") sv_median = summary.median_s;
      results.emplace_back(algo.name, summary);
      if (json.collect()) {
        // Counters ride on a separate armed pass so the timed trials above
        // stay untouched by telemetry.
        json.add(name, algo.name,
                 {{"scale", scale}, {"trials", trials}}, summary,
                 bench::measure_counters([&] { algo.run(g); }));
      }
    }
    for (const auto& [algo_name, summary] : results) {
      const bool ok =
          !verify || labels_equivalent(cc_algorithm(algo_name).run(g), truth);
      table.add_row(
          {algo_name, TextTable::fmt(summary.median_s * 1e3, 2),
           TextTable::fmt(summary.p25_s * 1e3, 2),
           TextTable::fmt(summary.p75_s * 1e3, 2),
           summary.median_s > 0 && sv_median > 0  // sv may be filtered out
               ? TextTable::fmt(sv_median / summary.median_s, 2) + "x"
               : "-",
           ok ? "yes" : "NO"});
    }
    table.print(std::cout);
    std::cout << '\n';
  }
  std::cout << "expected shape: afforest > sv everywhere; dobfs may beat "
               "afforest on urand (single giant component).\n";
  return 0;
}
