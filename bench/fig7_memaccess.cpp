// Reproduces Fig 7: memory access pattern of the parent array π for
// (a) SV, (b) Afforest without component skipping, (c) full Afforest,
// on a urand graph (paper uses |V|=2^12, |E|=2^19).
//
// Each phase prints a text heat-map row over π's index space plus its
// access count.  Expected shape: SV's hook phases touch π densely and
// repeatedly every iteration; Afforest's link rounds are sequential with a
// hot region near the start of π (tree roots); component skipping shrinks
// the final link phase to almost nothing.
#include <iostream>

#include "analysis/locality.hpp"
#include "analysis/memtrace.hpp"
#include "bench/harness.hpp"
#include "graph/builder.hpp"
#include "graph/generators/uniform.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace afforest;
  CommandLine cl(argc, argv);
  cl.describe("scale", "log2 of vertex count (default 12, as in the paper)");
  cl.describe("edge-scale", "log2 of edge count (default 19)");
  cl.describe("buckets", "heat-map resolution (default 64)");
  bench::JsonReporter json(cl, "fig7_memaccess");
  if (!bench::standard_preamble(cl,
                                "Fig 7: pi memory access pattern by phase"))
    return 0;
  const int scale = static_cast<int>(cl.get_int("scale", 12));
  const int edge_scale = static_cast<int>(cl.get_int("edge-scale", 19));
  const int buckets = static_cast<int>(cl.get_int("buckets", 64));
  bench::warn_unknown_flags(cl);

  const std::int64_t n = std::int64_t{1} << scale;
  const Graph g = build_undirected(
      generate_uniform_edges<std::int32_t>(n, std::int64_t{1} << edge_scale,
                                           42),
      n);
  std::cout << "graph=urand V=" << g.num_nodes() << " E=" << g.num_edges()
            << "\n";

  std::cout << "\n(a) Shiloach-Vishkin  (I=init, Hk=hook, Sk=shortcut)\n";
  const auto sv = run_traced_sv(g);
  sv.trace.render_heatmap(std::cout, buckets, n);
  std::cout << "total accesses: " << sv.trace.total_accesses() << "\n";

  // Panels (b) and (c) trace the paper's Fig 3 link, RootHook.
  AfforestOptions skip;
  skip.link = RootHook{};
  AfforestOptions no_skip = skip;
  no_skip.skip_largest = false;

  std::cout << "\n(b) Afforest, no component skip  (Lk=link, Ck=compress)\n";
  const auto aff_ns = run_traced_afforest(g, no_skip);
  aff_ns.trace.render_heatmap(std::cout, buckets, n);
  std::cout << "total accesses: " << aff_ns.trace.total_accesses() << "\n";

  std::cout << "\n(c) Afforest  (F=find largest component)\n";
  const auto aff = run_traced_afforest(g, skip);
  aff.trace.render_heatmap(std::cout, buckets, n);
  std::cout << "total accesses: " << aff.trace.total_accesses() << "\n";

  std::cout << "\nlocality metrics (all phases aggregated):\n";
  TextTable metrics({"algorithm", "accesses", "sequential frac",
                     "footprint", "gini concentration"});
  auto add_metrics = [&](const char* name, const TraceResult& r) {
    const auto m = compute_locality(r.trace, -1, n);
    metrics.add_row({name, TextTable::fmt_int(m.total_accesses),
                     TextTable::fmt(m.sequential_fraction, 3),
                     TextTable::fmt_int(m.footprint),
                     TextTable::fmt(m.gini_concentration, 3)});
    json.add("urand", name,
             {{"scale", scale},
              {"edge_scale", edge_scale},
              {"total_accesses", m.total_accesses},
              {"sequential_fraction", m.sequential_fraction},
              {"footprint", m.footprint},
              {"gini_concentration", m.gini_concentration}},
             TrialSummary{});
  };
  add_metrics("sv", sv);
  add_metrics("afforest-noskip", aff_ns);
  add_metrics("afforest", aff);
  metrics.print(std::cout);

  std::cout << "\nexpected shape: SV >> Afforest total accesses; skipping "
               "empties the final link phase (L*); Afforest is more "
               "sequential and more root-concentrated (SecV-C).\n";
  return 0;
}
