// Convergence guards for the fixpoint-iteration algorithms.
//
// Shiloach–Vishkin, label propagation, and Multistep's cleanup loop all
// iterate "until nothing changes".  On correct code and sane inputs that
// terminates (every productive SV iteration retires at least one root;
// a label travels at most one hop per LP iteration), but a bug — or a
// data race reintroduced by a future edit — can spin them forever with no
// diagnostic.  Each loop therefore runs under an iteration ceiling; when
// it is exceeded the algorithm throws ConvergenceError carrying enough
// context to file a useful report, and the app driver's --fallback mode
// (apps/driver.hpp) can catch it and degrade to serial union-find.
//
// The default ceiling is structural: 2·|V| + 64, which no terminating run
// can reach (SV performs at most |V| productive iterations + 1, LP at most
// diameter + 1 ≤ |V|).  AFFOREST_MAX_ITER overrides it for tests and for
// operators who want a tighter leash; 0 disables the guard entirely.
#pragma once

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

#include "util/env.hpp"

namespace afforest {

/// Thrown when an iterative CC kernel, or another guarded loop, exceeds its
/// ceiling; the message names the knob that sets it.
class ConvergenceError : public std::runtime_error {
 public:
  ConvergenceError(const std::string& algorithm, std::int64_t iterations,
                   std::int64_t ceiling,
                   const std::string& knob = "AFFOREST_MAX_ITER",
                   const std::string& detail = "")
      : std::runtime_error(algorithm + ": no convergence after " +
                           std::to_string(iterations) +
                           " iterations (ceiling " +
                           std::to_string(ceiling) +
                           (detail.empty() ? "" : "; " + detail) +
                           "; raise " + knob + " or suspect a livelock)"),
        algorithm_(algorithm),
        iterations_(iterations),
        ceiling_(ceiling) {}

  [[nodiscard]] const std::string& algorithm() const noexcept {
    return algorithm_;
  }
  [[nodiscard]] std::int64_t iterations() const noexcept {
    return iterations_;
  }
  [[nodiscard]] std::int64_t ceiling() const noexcept { return ceiling_; }

 private:
  std::string algorithm_;
  std::int64_t iterations_;
  std::int64_t ceiling_;
};

/// Iteration ceiling for a graph of `num_nodes` vertices: the
/// AFFOREST_MAX_ITER override when set (0 disables the guard), else the
/// structural bound 2·|V| + 64.  Read once per algorithm invocation.
inline std::int64_t iteration_ceiling(std::int64_t num_nodes) {
  if (const auto v = env::as_int64("AFFOREST_MAX_ITER"); v && *v >= 0)
    return *v == 0 ? std::numeric_limits<std::int64_t>::max() : *v;
  return 2 * num_nodes + 64;
}

/// Call at the top of each fixpoint iteration, after incrementing the
/// iteration counter: throws once the loop runs past its ceiling.  A loop
/// bounded by another knob than AFFOREST_MAX_ITER names it, and may pass
/// `detail`, called only on the throw, to say what held the loop.
template <typename Detail = std::string (*)()>
void check_convergence_guard(const char* algorithm, std::int64_t iterations,
                             std::int64_t ceiling,
                             const char* knob = "AFFOREST_MAX_ITER",
                             Detail detail = [] { return std::string(); }) {
  if (iterations > ceiling)
    throw ConvergenceError(algorithm, iterations, ceiling, knob, detail());
}

}  // namespace afforest
