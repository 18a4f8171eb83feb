// Per-phase time breakdown of Afforest across the suite: how the budget
// splits between init, sampling rounds, compress passes, the giant-
// component search, and the (mostly skipped) final link phase.
#include <iostream>

#include "bench/harness.hpp"
#include "cc/afforest.hpp"
#include "graph/generators/suite.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace afforest;
  CommandLine cl(argc, argv);
  cl.describe("scale", "log2 of vertex count per graph (default 15)");
  cl.describe("trials", "runs per graph, minimum-of reported (default 5)");
  cl.describe("csv", "emit CSV instead of the text table");
  bench::JsonReporter json(cl, "phase_breakdown");
  if (!bench::standard_preamble(cl, "Afforest phase-time breakdown"))
    return 0;
  const int scale = static_cast<int>(cl.get_int("scale", 15));
  const int trials = static_cast<int>(cl.get_int("trials", 5));
  const bool csv = cl.get_bool("csv", false);
  bench::warn_unknown_flags(cl);

  TextTable table({"graph", "init ms", "sampling ms", "compress ms",
                   "find ms", "final link ms", "total ms", "final %"});
  for (const auto& entry : graph_suite_entries()) {
    const Graph g = make_suite_graph(entry.name, scale);
    AfforestPhaseTimes best;
    double best_total = 1e30;
    for (int t = 0; t < trials; ++t) {
      // Unarmed: armed counters inflate link/compress and would skew the
      // phase shares this table reports.
      AfforestPhaseTimes times;
      afforest_cc(g, {}, &times);
      if (times.total_s() < best_total) {
        best_total = times.total_s();
        best = times;
      }
    }
    table.add_row({entry.name, TextTable::fmt(best.init_s * 1e3, 3),
                   TextTable::fmt(best.sampling_s * 1e3, 3),
                   TextTable::fmt(best.compress_s * 1e3, 3),
                   TextTable::fmt(best.find_component_s * 1e3, 3),
                   TextTable::fmt(best.final_link_s * 1e3, 3),
                   TextTable::fmt(best.total_s() * 1e3, 3),
                   TextTable::fmt(100.0 * best.final_link_s /
                                      std::max(1e-12, best.total_s()), 1)});
    if (json.collect()) {
      // params holds only true inputs (bench_compare.py keys records on
      // (graph, algorithm, params), so measured values here would make
      // every record unmatchable between runs).  Per-phase wall times
      // travel in the telemetry `phases` array instead — afforest_cc
      // records each phase under its afforest.* name when armed.
      json.add(entry.name, "afforest",
               {{"scale", scale}, {"trials", trials}},
               TrialSummary{},
               bench::measure_counters([&] { afforest_cc(g); }));
    }
  }
  if (csv)
    table.print_csv(std::cout);
  else
    table.print(std::cout);
  std::cout << "\nexpected shape: on giant-component graphs the final link "
               "phase is a small share of the total (skipping works).\n";
  return 0;
}
