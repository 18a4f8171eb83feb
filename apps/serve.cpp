// Standalone demo of the serving layer: streams a uniform-random edge list
// into a QueryEngine (or, with --shards N, an N-shard ShardedEngine) batch
// by batch, printing how each published snapshot evolves (epoch, component
// count, size of vertex 0's component, sharded boundary traffic), then
// answers a handful of point queries against the final snapshot.
//
// The smallest end-to-end tour of src/serve and src/shard; bench/serving is
// the instrumented version with mixed readers and both sweeps.
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <limits>

#include "analysis/telemetry.hpp"
#include "graph/generators/uniform.hpp"
#include "serve/query_batch.hpp"
#include "serve/query_engine.hpp"
#include "shard/sharded_engine.hpp"
#include "util/cli.hpp"

namespace {

using namespace afforest;
using NodeID = std::int32_t;

/// The apply/publish/print loop, then the point queries, on either engine.
template <typename Engine>
void stream(Engine& engine, const EdgeList<NodeID>& edges,
            std::int64_t batch) {
  constexpr bool kSharded = requires(const Engine& e) { e.num_shards(); };
  const std::int64_t n = engine.num_nodes();
  const auto m = static_cast<std::int64_t>(edges.size());
  std::cout << "serving " << m << " edges over " << n << " vertices";
  if constexpr (kSharded)
    std::cout << " across " << engine.num_shards() << " shards";
  std::cout << ", " << batch << " per publish\n";
  for (std::int64_t start = 0; start < m; start += batch) {
    const auto count = static_cast<std::size_t>(std::min(batch, m - start));
    engine.apply_batch(edges.data() + start, count);
    engine.publish();
    const auto view = engine.acquire();
    std::cout << "epoch " << view.epoch() << ": edges "
              << (start + static_cast<std::int64_t>(count)) << "/" << m
              << ", components " << view.component_count() << ", |comp(0)| "
              << view.component_size(0);
    if constexpr (kSharded) {
      const auto snap = telemetry::snapshot();
      std::cout << ", boundary msgs " << snap.shard_boundary_msgs
                << ", quotient edges " << snap.shard_quotient_edges;
    }
    std::cout << "\n";
  }

  serve::QueryBatch<NodeID> queries;
  for (NodeID v = 0; v < 4 && v < n; ++v)
    queries.add(0, static_cast<NodeID>((v * n) / 4));
  engine.answer(queries);
  std::cout << "\npoint queries @ epoch " << queries.epoch << ":\n";
  for (std::size_t i = 0; i < queries.count(); ++i) {
    std::cout << "  connected(" << queries.u[i] << ", " << queries.v[i]
              << ") = " << (queries.connected[i] ? "yes" : "no")
              << "  comp=" << queries.component[i]
              << " size=" << queries.component_size[i];
    if constexpr (kSharded)
      std::cout << " shard=" << engine.shard_of(queries.v[i]);
    std::cout << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  CommandLine cl(argc, argv);
  cl.describe("scale", "log2 of vertex count (default 12)");
  cl.describe("degree", "average degree of the streamed graph (default 4)");
  cl.describe("batch", "edges applied per publish (default 1024)");
  cl.describe("shards",
              "serve through a ShardedEngine with this many shards "
              "(default: none, a single QueryEngine)");
  cl.describe("seed", "edge-stream RNG seed (default 42)");
  if (cl.help_requested()) {
    cl.print_help("serve: streaming connectivity demo");
    return 0;
  }
  const int scale = static_cast<int>(cl.get_int("scale", 12));
  const int degree = static_cast<int>(cl.get_int("degree", 4));
  const std::int64_t batch = cl.get_int("batch", 1024);
  const std::int64_t shards = cl.get_int("shards", 0);
  const auto seed = static_cast<std::uint64_t>(cl.get_int("seed", 42));
  for (const auto& f : cl.unknown_flags())
    std::cerr << "warning: unknown flag --" << f << " ignored\n";
  if (batch <= 0 || shards < 0 || shards > std::numeric_limits<int>::max()) {
    std::cerr << "serve: --batch and --shards must be positive\n";
    return 2;
  }

  const std::int64_t n = std::int64_t{1} << scale;
  const std::int64_t m = n * degree;
  const auto edges = generate_uniform_edges<NodeID>(n, m, seed);
  if (shards == 0) {
    serve::QueryEngine<NodeID> engine(n);
    stream(engine, edges, batch);
  } else {
    const telemetry::ScopedEnable armed;  // for the boundary counters
    shard::ShardedEngine<NodeID> engine(n, static_cast<int>(shards));
    stream(engine, edges, batch);
  }
  return 0;
}
