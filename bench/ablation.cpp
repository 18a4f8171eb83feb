// Ablation studies for the design choices DESIGN.md §6 calls out:
//   1. neighbor_rounds sweep (paper fixes 2; what do 0..8 cost?) on the
//      default link, RemSplice, which unites the k neighbors in one pass
//      and one compress
//   2. compress interleaving (disable the per-round compress: tree depth
//      blows up and the final link slows down); both rows use RootHook
//   3. sampling strategy: neighbor rounds vs uniform edges
//   4. sample_frequent_element sample count vs skip accuracy
//   5. link choice: the paper's root hook (Fig 3), k rounds each followed
//      by a compress, vs Rem splicing, the default, whose rounds run as
//      one pass; with and without the skip
#include <iostream>

#include "analysis/instrumented.hpp"
#include "bench/harness.hpp"
#include "cc/afforest.hpp"
#include "cc/component_stats.hpp"
#include "cc/union_find.hpp"
#include "graph/generators/suite.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace afforest;
  CommandLine cl(argc, argv);
  cl.describe("scale", "log2 of vertex count (default 15)");
  cl.describe("graph", "suite graph (default web)");
  cl.describe("trials", "timing trials (default 5)");
  bench::JsonReporter json(cl, "ablation");
  if (!bench::standard_preamble(cl, "Ablations: rounds, compress, sampling, link"))
    return 0;
  const int scale = static_cast<int>(cl.get_int("scale", 15));
  const std::string graph_name = cl.get_string("graph", "web");
  const int trials = static_cast<int>(cl.get_int("trials", 5));
  bench::warn_unknown_flags(cl);

  const Graph g = make_suite_graph(graph_name, scale);
  std::cout << "graph=" << graph_name << " V=" << g.num_nodes()
            << " E=" << g.num_edges() << "\n\n";

  std::cout << "[1] neighbor_rounds sweep (paper default: 2)\n";
  {
    TextTable table({"rounds", "median ms (skip)", "median ms (no skip)"});
    for (int r : {0, 1, 2, 3, 4, 8}) {
      AfforestOptions with_skip;
      with_skip.sampling = NeighborRounds{r};
      AfforestOptions no_skip = with_skip;
      no_skip.skip_largest = false;
      const auto t1 =
          bench::time_trials([&] { afforest_cc(g, with_skip); }, trials);
      const auto t2 =
          bench::time_trials([&] { afforest_cc(g, no_skip); }, trials);
      table.add_row({TextTable::fmt_int(r),
                     TextTable::fmt(t1.median_s * 1e3, 2),
                     TextTable::fmt(t2.median_s * 1e3, 2)});
      json.add(graph_name, "afforest",
               {{"scale", scale}, {"trials", trials},
                {"neighbor_rounds", r}, {"skip_largest", true}}, t1);
      json.add(graph_name, "afforest-noskip",
               {{"scale", scale}, {"trials", trials},
                {"neighbor_rounds", r}, {"skip_largest", false}}, t2);
    }
    table.print(std::cout);
  }

  std::cout << "\n[2] compress interleaving (tree depth after sampling)\n";
  {
    TextTable table({"variant", "median ms", "max tree depth"});
    // One change at a time: afforest_no_interleave links with link(), so
    // the interleaved row must too, or it would time the link choice.
    AfforestOptions interleaved;
    interleaved.skip_largest = false;
    interleaved.link = RootHook{};
    const auto t_with =
        bench::time_trials([&] { afforest_cc(g, interleaved); }, trials);
    const auto t_without =
        bench::time_trials([&] { afforest_no_interleave(g, 2); }, trials);
    const auto depth_with = afforest_instrumented(g).max_tree_depth;
    // The no-interleave depth is taken when the final link begins, after
    // the sampling rounds the interleaved compress would have flattened.
    struct DepthAfterSampling : TelemetryProbe {
      std::int64_t* depth;

      void phase(AfforestPhase which, std::int32_t,
                 const pvector<std::int32_t>& comp) const {
        if (which == AfforestPhase::kFinalLink) *depth = max_tree_depth(comp);
      }
    };
    std::int64_t depth_without = 0;
    afforest_no_interleave(g, 2, DepthAfterSampling{{}, &depth_without});
    table.add_row({"interleaved compress",
                   TextTable::fmt(t_with.median_s * 1e3, 2),
                   TextTable::fmt_int(depth_with)});
    table.add_row({"no interleave", TextTable::fmt(t_without.median_s * 1e3, 2),
                   TextTable::fmt_int(depth_without)});
    json.add(graph_name, "afforest-noskip",
             {{"scale", scale}, {"trials", trials}, {"link", "root-hook"},
              {"max_tree_depth", depth_with}}, t_with);
    json.add(graph_name, "afforest-no-interleave",
             {{"scale", scale}, {"trials", trials}, {"link", "root-hook"},
              {"max_tree_depth", depth_without}}, t_without);
    table.print(std::cout);
  }

  std::cout << "\n[3] sampling strategy: neighbor rounds vs uniform edges\n";
  {
    // §VI-A's tracking argument: neighbor-prefix samples resume from an
    // offset; uniform samples must be reprocessed in the final phase.
    TextTable table({"strategy", "median ms"});
    const auto t_nbr = bench::time_trials([&] { afforest_cc(g); }, trials);
    table.add_row({"neighbor rounds (2)",
                   TextTable::fmt(t_nbr.median_s * 1e3, 2)});
    json.add(graph_name, "afforest",
             {{"scale", scale}, {"trials", trials},
              {"sampling", "neighbor-rounds"}}, t_nbr);
    for (double p : {0.05, 0.1, 0.25}) {
      AfforestOptions uniform;
      uniform.sampling = UniformEdges{p};
      const auto t =
          bench::time_trials([&] { afforest_cc(g, uniform); }, trials);
      table.add_row({"uniform p=" + TextTable::fmt(p, 2),
                     TextTable::fmt(t.median_s * 1e3, 2)});
      json.add(graph_name, "afforest-uniform",
               {{"scale", scale}, {"trials", trials},
                {"sampling", "uniform"}, {"sample_p", p}}, t);
    }
    table.print(std::cout);
  }

  std::cout << "\n[4] sample count vs skip accuracy\n";
  {
    // Ground truth giant component after 2 rounds, via exact counting.
    AfforestOptions base;
    TextTable table({"samples", "found giant label", "median ms"});
    for (int samples : {4, 16, 64, 256, 1024, 4096}) {
      AfforestOptions opts = base;
      opts.sample_count = samples;
      // Correctness holds regardless; measure time and whether the sampled
      // label matches the exact mode of the final labeling.
      const auto labels = afforest_cc(g, opts);
      const auto exact = largest_component_label(labels);
      const auto sampled =
          sample_frequent_element(labels, samples, opts.sample_seed);
      const auto t =
          bench::time_trials([&] { afforest_cc(g, opts); }, trials);
      table.add_row({TextTable::fmt_int(samples),
                     sampled == exact ? "yes" : "no",
                     TextTable::fmt(t.median_s * 1e3, 2)});
      json.add(graph_name, "afforest",
               {{"scale", scale}, {"trials", trials},
                {"sample_count", samples},
                {"found_giant", sampled == exact}}, t);
    }
    table.print(std::cout);
  }

  std::cout << "\n[5] link choice (paper Fig 3 root hook vs Rem splicing)\n";
  {
    using Link = decltype(AfforestOptions::link);
    TextTable table({"link", "median ms (skip)", "median ms (no skip)"});
    for (const auto& [name, link] :
         {std::pair<std::string, Link>{"root-hook", RootHook{}},
          std::pair<std::string, Link>{"rem-splice", RemSplice{}}}) {
      AfforestOptions with_skip;
      with_skip.link = link;
      AfforestOptions no_skip = with_skip;
      no_skip.skip_largest = false;
      const auto t1 =
          bench::time_trials([&] { afforest_cc(g, with_skip); }, trials);
      const auto t2 =
          bench::time_trials([&] { afforest_cc(g, no_skip); }, trials);
      table.add_row({name, TextTable::fmt(t1.median_s * 1e3, 2),
                     TextTable::fmt(t2.median_s * 1e3, 2)});
      json.add(graph_name, "afforest",
               {{"scale", scale}, {"trials", trials}, {"link", name},
                {"skip_largest", true}}, t1);
      json.add(graph_name, "afforest-noskip",
               {{"scale", scale}, {"trials", trials}, {"link", name},
                {"skip_largest", false}}, t2);
    }
    table.print(std::cout);
  }
  return 0;
}
