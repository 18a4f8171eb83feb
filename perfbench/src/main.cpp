// perfbench: runs one benchmark workload in this process and prints one
// JSON line with its metrics, validity record and operation counts.
//
//   perfbench --workload <cc-kron|cc-road|serve-ingest|shard-ingest>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Exit status: 0 for a valid run whose answers all checked out, 1 when an
// answer check failed (the record is still printed), 2 for bad arguments or
// a refused run (runnable threads above nproc, assertions on, generator
// behind, backlog growing, or too few samples for a percentile).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "analysis/telemetry.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", key.c_str());
      return 2;
    }
  }
  if (args.seconds <= 0) {
    std::fprintf(stderr, "perfbench: --seconds must be positive\n");
    return 2;
  }

  // Telemetry is armed only inside a traced run, never from the
  // environment.
  afforest::telemetry::set_enabled(false);
  perfbench::Result result;
  try {
    if (args.workload == "cc-kron" || args.workload == "cc-road") {
      result = perfbench::run_cc(args);
    } else if (args.workload == "serve-ingest" ||
               args.workload == "shard-ingest") {
      result = perfbench::run_serve(args);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                   args.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  perfbench::print_result(result);
  if (!result.refusal.empty()) return 2;
  return result.failed == 0 ? 0 : 1;
}
