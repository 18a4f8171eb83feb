#include "analysis/convergence.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

#include "cc/afforest.hpp"
#include "cc/component_stats.hpp"
#include "cc/spanning_forest.hpp"
#include "cc/union_find.hpp"
#include "graph/edge_list.hpp"
#include "util/rng.hpp"

namespace afforest {

std::string to_string(PartitionStrategy s) {
  switch (s) {
    case PartitionStrategy::kRowPartition:
      return "row";
    case PartitionStrategy::kRandomEdges:
      return "random";
    case PartitionStrategy::kNeighborRounds:
      return "neighbor";
    case PartitionStrategy::kOptimalSF:
      return "optimal-sf";
  }
  throw std::invalid_argument("bad PartitionStrategy");
}

namespace {

using NodeID = Graph::NodeID;
using Batch = EdgeList<NodeID>;

std::vector<Batch> split_batches(Batch edges, int num_batches) {
  std::vector<Batch> out;
  const std::size_t total = edges.size();
  const std::size_t per =
      (total + static_cast<std::size_t>(num_batches) - 1) /
      static_cast<std::size_t>(num_batches);
  for (std::size_t start = 0; start < total; start += per) {
    Batch b;
    const std::size_t end = std::min(total, start + per);
    b.reserve(end - start);
    for (std::size_t i = start; i < end; ++i) b.push_back(edges[i]);
    out.push_back(std::move(b));
  }
  return out;
}

std::vector<Batch> make_batches(const Graph& g, const ConvergenceOptions& o) {
  switch (o.strategy) {
    case PartitionStrategy::kRowPartition: {
      // Contiguous vertex blocks; a batch holds all edges whose source row
      // falls in the block (each unordered edge assigned to its lower row).
      Batch edges = lower_edges(g);  // already sorted by source row
      return split_batches(std::move(edges), o.num_batches);
    }
    case PartitionStrategy::kRandomEdges: {
      Batch edges = lower_edges(g);
      Xoshiro256 rng(o.shuffle_seed);
      for (std::size_t i = edges.size(); i > 1; --i)
        std::swap(edges[i - 1], edges[rng.next_bounded(i)]);
      return split_batches(std::move(edges), o.num_batches);
    }
    case PartitionStrategy::kNeighborRounds: {
      // Round r: the r-th neighbor of every vertex.  To keep each unordered
      // edge counted once (as the paper's X axis does), a round emits
      // (v, N(v)[r]) for all v; duplicates across directions are inherent
      // to neighbor sampling and counted as processed work.
      std::vector<Batch> rounds;
      std::int64_t max_deg = 0;
      for (std::int64_t v = 0; v < g.num_nodes(); ++v)
        max_deg = std::max(max_deg, g.out_degree(static_cast<NodeID>(v)));
      for (std::int64_t r = 0; r < max_deg; ++r) {
        Batch b;
        for (std::int64_t v = 0; v < g.num_nodes(); ++v)
          if (r < g.out_degree(static_cast<NodeID>(v)))
            b.push_back({static_cast<NodeID>(v),
                         g.neighbor(static_cast<NodeID>(v), r)});
        if (!b.empty()) rounds.push_back(std::move(b));
      }
      return rounds;
    }
    case PartitionStrategy::kOptimalSF: {
      std::vector<Batch> out;
      out.push_back(spanning_forest(g));
      // Remainder in row order so the tail is comparable to row sampling.
      Batch rest = lower_edges(g);
      auto rest_batches = split_batches(std::move(rest), o.num_batches);
      for (auto& b : rest_batches) out.push_back(std::move(b));
      return out;
    }
  }
  throw std::invalid_argument("bad PartitionStrategy");
}

}  // namespace

std::vector<ConvergencePoint> measure_convergence(const Graph& g,
                                                  ConvergenceOptions opts) {
  const std::int64_t n = g.num_nodes();
  if (n == 0) return {};

  // Ground truth for the measures.
  const auto truth = union_find_cc(g);
  const std::int64_t true_components = count_components(truth);
  const NodeID cmax_label = largest_component_label(truth);
  std::int64_t cmax_size = 0;
  for (NodeID l : truth)
    if (l == cmax_label) ++cmax_size;

  auto comp = identity_labels<NodeID>(n);
  const auto batches = make_batches(g, opts);
  std::int64_t total_edges = 0;
  for (const auto& b : batches)
    total_edges += static_cast<std::int64_t>(b.size());

  std::vector<ConvergencePoint> points;
  points.reserve(batches.size());
  std::int64_t processed = 0;
  for (const auto& batch : batches) {
    const std::int64_t bn = static_cast<std::int64_t>(batch.size());
#pragma omp parallel for schedule(static)
    for (std::int64_t i = 0; i < bn; ++i)
      link(batch[i].u, batch[i].v, comp);
    compress_all(comp);
    processed += bn;

    // T_t: remaining trees; with compressed depth-1 trees a root is any v
    // with comp[v] == v.
    std::int64_t trees = 0;
    std::int64_t best_tree_in_cmax = 0;
    {
      std::unordered_map<NodeID, std::int64_t> cmax_tree_sizes;
      for (std::int64_t v = 0; v < n; ++v) {
        if (comp[v] == static_cast<NodeID>(v)) ++trees;
        if (truth[v] == cmax_label) ++cmax_tree_sizes[comp[v]];
      }
      for (const auto& [_, size] : cmax_tree_sizes)
        best_tree_in_cmax = std::max(best_tree_in_cmax, size);
    }

    ConvergencePoint p;
    p.pct_edges_processed = 100.0 * static_cast<double>(processed) /
                            static_cast<double>(std::max<std::int64_t>(
                                1, total_edges));
    p.linkage = n == true_components
                    ? 1.0
                    : static_cast<double>(n - trees) /
                          static_cast<double>(n - true_components);
    p.coverage = cmax_size == 0 ? 1.0
                                : static_cast<double>(best_tree_in_cmax) /
                                      static_cast<double>(cmax_size);
    points.push_back(p);
  }
  return points;
}

}  // namespace afforest
