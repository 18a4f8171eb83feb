// Load-balancing ablation (the CPU rendition of §VI-B's representation
// discussion): Afforest's final phase on the PerVertex vs Chunked schedule
// vs edge-list SV, on skewed (kron, twitter) and uniform (road, urand)
// degree distributions, sweeping the chunk size.
#include <iostream>

#include "bench/harness.hpp"
#include "cc/afforest.hpp"
#include "cc/registry.hpp"
#include "graph/generators/suite.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace afforest;
  CommandLine cl(argc, argv);
  cl.describe("scale", "log2 of vertex count (default 15)");
  cl.describe("trials", "timing trials per cell (default 5)");
  bench::JsonReporter json(cl, "load_balance");
  if (!bench::standard_preamble(
          cl, "load-balancing: vertex vs chunk scheduling vs edge list"))
    return 0;
  const int scale = static_cast<int>(cl.get_int("scale", 15));
  const int trials = static_cast<int>(cl.get_int("trials", 5));
  bench::warn_unknown_flags(cl);

  for (const auto* name : {"kron", "twitter", "urand", "road"}) {
    const Graph g = make_suite_graph(name, scale);
    std::cout << "graph=" << name << " V=" << g.num_nodes()
              << " E=" << g.num_edges() << "\n";
    TextTable table({"scheduler", "median ms"});
    {
      const auto& algo = cc_algorithm("afforest");
      const auto t = bench::time_trials([&] { algo.run(g); }, trials);
      table.add_row({"vertex-parallel", TextTable::fmt(t.median_s * 1e3, 2)});
      json.add(name, "afforest",
               {{"scale", scale}, {"trials", trials},
                {"scheduler", "vertex-parallel"}}, t);
    }
    for (std::int64_t chunk : {16, 64, 256, 1024}) {
      AfforestOptions opts;
      opts.schedule = Chunked{chunk};
      const auto t =
          bench::time_trials([&] { afforest_cc(g, opts); }, trials);
      table.add_row({"chunked (" + std::to_string(chunk) + ")",
                     TextTable::fmt(t.median_s * 1e3, 2)});
      json.add(name, "afforest-chunked",
               {{"scale", scale}, {"trials", trials},
                {"scheduler", "chunked"}, {"chunk", chunk}}, t);
    }
    {
      const auto& algo = cc_algorithm("sv-edgelist");
      const auto t = bench::time_trials([&] { algo.run(g); }, trials);
      table.add_row({"edge-list SV", TextTable::fmt(t.median_s * 1e3, 2)});
      json.add(name, "sv-edgelist",
               {{"scale", scale}, {"trials", trials},
                {"scheduler", "edge-list"}}, t);
    }
    table.print(std::cout);
    std::cout << '\n';
  }
  std::cout << "expected shape (multi-core host): chunking helps skewed "
               "graphs' final phase; uniform-degree graphs see overhead "
               "only.\n";
  return 0;
}
