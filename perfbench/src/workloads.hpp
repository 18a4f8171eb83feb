#pragma once

#include <cstdint>
#include <string>

#include "analysis/telemetry.hpp"
#include "bench_core.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// Thread budget: every workload runs exactly this many runnable threads
/// (cc: one OpenMP team; serving: producer + reader + a writer team of
/// kWriterTeam), and refuses to report on a host with fewer CPUs.
inline constexpr int kThreads = 4;
inline constexpr int kWriterTeam = 2;

/// Total wall time (ms) recorded under one telemetry phase.
inline double phase_total_ms(const afforest::telemetry::Report& rep,
                             const char* name) {
  for (const auto& p : rep.phases)
    if (p.name == name) return p.seconds * 1e3;
  return 0.0;
}

inline double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

/// The link/compress primitive counters: the cc layer's link and compress
/// run under afforest_cc's solves and under every serving apply and publish.
inline void put_primitive_counters(Result& r,
                                   const afforest::telemetry::Counters& c) {
  r.put("cc.cas_fail_ratio", ratio(c.cas_failures, c.cas_attempts), "ratio");
  r.put("cc.link_retries_per_call", ratio(c.link_retries, c.link_calls),
        "ratio");
  r.put("cc.compress_hops_per_vertex",
        ratio(c.compress_hops, c.compress_calls), "hops");
}

Result run_cc(const Args& args);     ///< cc-kron, cc-road
Result run_serve(const Args& args);  ///< serve-ingest, shard-ingest

}  // namespace perfbench
