#include "cc/registry.hpp"

#include <stdexcept>
#include <utility>

#include "cc/afforest.hpp"
#include "cc/bfs_cc.hpp"
#include "cc/dobfs_cc.hpp"
#include "cc/label_propagation.hpp"
#include "cc/shiloach_vishkin.hpp"
#include "cc/contraction.hpp"
#include "cc/multistep.hpp"
#include "cc/rem.hpp"
#include "cc/union_find.hpp"
#include "graph/edge_list.hpp"

namespace afforest {

namespace {

TelemetrySink*& sink_slot() {
  static TelemetrySink* sink = nullptr;
  return sink;
}

/// Wrap a registry lambda so a dispatch feeds the installed sink.  The
/// telemetry reset/capture pair only runs when a sink is attached AND
/// telemetry is armed, so plain dispatches keep their exact former cost.
CCFunction with_sink(std::string name, CCFunction fn) {
  return [name = std::move(name),
          fn = std::move(fn)](const Graph& g) -> ComponentLabels<std::int32_t> {
    TelemetrySink* sink = sink_slot();
    if (sink == nullptr || !telemetry::enabled()) return fn(g);
    telemetry::reset();
    ComponentLabels<std::int32_t> labels = fn(g);
    sink->consume(name, telemetry::capture());
    return labels;
  };
}

/// An entry whose kernel reads each unordered edge from one stored
/// direction, or follows out-rows only, so it needs symmetric storage: on a
/// directed graph its run throws std::invalid_argument naming the
/// algorithm instead of returning wrong labels.
AlgorithmEntry symmetric_only(std::string name, std::string description,
                              CCFunction fn) {
  CCFunction guarded = [name, fn = std::move(fn)](
                           const Graph& g) -> ComponentLabels<std::int32_t> {
    if (g.directed())
      throw std::invalid_argument(
          name + ": needs an undirected (symmetric) graph, got a directed one");
    return fn(g);
  };
  return {std::move(name), std::move(description), std::move(guarded)};
}

std::vector<AlgorithmEntry> wrap_all(std::vector<AlgorithmEntry> raw) {
  for (auto& e : raw) e.run = with_sink(e.name, std::move(e.run));
  return raw;
}

}  // namespace

TelemetrySink* set_telemetry_sink(TelemetrySink* sink) {
  TelemetrySink* previous = sink_slot();
  sink_slot() = sink;
  return previous;
}

TelemetrySink* telemetry_sink() { return sink_slot(); }

const std::vector<AlgorithmEntry>& cc_algorithms() {
  static const std::vector<AlgorithmEntry> algorithms = wrap_all({
      {"afforest",
       "Afforest with neighbor sampling + component skipping, "
       "Rem splicing link",
       [](const Graph& g) { return afforest_cc(g); }},
      {"afforest-noskip", "Afforest without large-component skipping",
       [](const Graph& g) { return afforest_no_skip(g); }},
      {"sv", "Shiloach-Vishkin (CSR, GAPBS formulation)",
       [](const Graph& g) { return shiloach_vishkin(g); }},
      {"sv-original", "Shiloach-Vishkin with the 1982 stagnant-root hook",
       [](const Graph& g) { return shiloach_vishkin_original(g); }},
      symmetric_only(
          "sv-edgelist",
          "Shiloach-Vishkin over an explicit edge list "
          "(Soman et al.'s GPU formulation on CPU)",
          [](const Graph& g) {
            return shiloach_vishkin_edgelist(lower_edges(g), g.num_nodes());
          }),
      symmetric_only("lp", "synchronous min-label propagation",
                     [](const Graph& g) { return label_propagation(g); }),
      symmetric_only("lp-frontier", "data-driven min-label propagation",
                     [](const Graph& g) {
                       return label_propagation_frontier(g);
                     }),
      symmetric_only("bfs", "BFS-CC (parallel BFS per component)",
                     [](const Graph& g) { return bfs_cc(g); }),
      symmetric_only("dobfs", "direction-optimizing BFS-CC",
                     [](const Graph& g) { return dobfs_cc(g); }),
      symmetric_only("multistep",
                     "giant-component BFS + label propagation remainder "
                     "(Slota et al. hybrid)",
                     [](const Graph& g) { return multistep_cc(g); }),
      symmetric_only("contraction",
                     "hook-and-contract quotient rounds "
                     "(Hirschberg/Blelloch family)",
                     [](const Graph& g) { return contraction_cc(g); }),
      {"rem", "Rem's union-find with path splicing (serial)",
       [](const Graph& g) { return rem_cc(g); }},
      {"rem-parallel",
       "lock-free Rem with CAS splicing (Afforest's splice link, no "
       "sampling)",
       [](const Graph& g) { return rem_cc_parallel(g); }},
      {"serial-uf", "serial union-find reference",
       [](const Graph& g) { return union_find_cc(g); }},
  });
  return algorithms;
}

const AlgorithmEntry& cc_algorithm(const std::string& name) {
  for (const auto& a : cc_algorithms())
    if (a.name == name) return a;
  throw std::invalid_argument("unknown CC algorithm: " + name);
}

bool is_cc_algorithm(const std::string& name) {
  for (const auto& a : cc_algorithms())
    if (a.name == name) return true;
  return false;
}

}  // namespace afforest
