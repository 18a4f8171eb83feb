// §V-A worst-case study: how expensive are link and compress on the
// paper's adversarial constructions, and how far do realistic runs sit
// from the O(|V|) / O(|V|^2) bounds?
//
//   [1] adversarial star, serial adversarial edge order: total link-loop
//       iterations vs edge count (the unbounded-walk scenario)
//   [2] linear-depth chain: first compress cost vs a depth-1 forest
//   [3] the same star processed by the full parallel Afforest — showing
//       the interleaved compress defuses the adversarial order
#include <iostream>

#include "analysis/instrumented.hpp"
#include "bench/harness.hpp"
#include "cc/afforest.hpp"
#include "cc/verifier.hpp"
#include "cc/union_find.hpp"
#include "graph/builder.hpp"
#include "graph/generators/adversarial.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace afforest;
  CommandLine cl(argc, argv);
  cl.describe("scale", "log2 of vertex count (default 14)");
  cl.describe("trials", "timing trials (default 5)");
  bench::JsonReporter json(cl, "worstcase");
  if (!bench::standard_preamble(cl, "SecV-A worst cases: link & compress"))
    return 0;
  const int scale = static_cast<int>(cl.get_int("scale", 14));
  const int trials = static_cast<int>(cl.get_int("trials", 5));
  bench::warn_unknown_flags(cl);
  const std::int64_t n = std::int64_t{1} << scale;

  std::cout << "[1] serial adversarial star (n=" << n << ")\n";
  {
    const auto edges = adversarial_star_edges<std::int32_t>(n);
    auto comp = identity_labels<std::int32_t>(n);
    LinkCounter counter;
    for (const auto& [u, v] : edges) link(u, v, comp, counter.probe());
    const std::int64_t iters = counter.stats().local_iterations;
    TextTable table({"edges", "link-loop iterations", "iters/edge"});
    table.add_row({TextTable::fmt_int(static_cast<long long>(edges.size())),
                   TextTable::fmt_int(iters),
                   TextTable::fmt(static_cast<double>(iters) /
                                      static_cast<double>(edges.size()), 3)});
    table.print(std::cout);
    json.add("adversarial-star", "link-serial",
             {{"scale", scale},
              {"edges", static_cast<std::int64_t>(edges.size())},
              {"link_loop_iterations", iters}},
             TrialSummary{});
  }

  std::cout << "\n[2] compress on linear-depth chain vs depth-1 forest\n";
  {
    TextTable table({"input", "median ms"});
    const auto deep = bench::time_trials(
        [&] {
          auto pi = linear_depth_forest<std::int32_t>(n);
          compress_all(pi);
        },
        trials);
    const auto shallow = bench::time_trials(
        [&] {
          auto pi = identity_labels<std::int32_t>(n);
          compress_all(pi);
        },
        trials);
    table.add_row({"linear-depth chain", TextTable::fmt(deep.median_s * 1e3, 3)});
    table.add_row({"depth-1 forest", TextTable::fmt(shallow.median_s * 1e3, 3)});
    table.print(std::cout);
    json.add("linear-depth-chain", "compress-all",
             {{"scale", scale}, {"trials", trials}}, deep);
    json.add("depth-1-forest", "compress-all",
             {{"scale", scale}, {"trials", trials}}, shallow);
  }

  std::cout << "\n[3] full Afforest on the adversarial star\n";
  {
    const Graph g = build_undirected(adversarial_star_edges<std::int32_t>(n), n);
    ComponentLabels<std::int32_t> labels;
    const auto stats = afforest_instrumented(g, &labels);
    TextTable table({"avg link iters", "max tree depth", "correct"});
    table.add_row({TextTable::fmt(stats.avg_local_iterations(), 3),
                   TextTable::fmt_int(stats.max_tree_depth),
                   labels_equivalent(labels, union_find_cc(g)) ? "yes" : "NO"});
    table.print(std::cout);
    json.add("adversarial-star", "afforest",
             {{"scale", scale},
              {"avg_local_iterations", stats.avg_local_iterations()},
              {"max_tree_depth", stats.max_tree_depth}},
             TrialSummary{});
  }
  std::cout << "\nexpected shape: serial adversarial order costs >1 "
               "iters/edge; interleaved compress keeps the full algorithm "
               "near 1.\n";
  return 0;
}
