// Software memory-access tracer for the parent array π (paper Fig 7).
//
// The paper visualizes which π addresses each algorithm phase touches
// (heat-map) and which thread touches them (scatter).  That is an
// algorithmic property — which indices are read/written when — so a
// software trace reproduces it exactly: a probe on the driver logs every
// π load and store with (phase, thread, index, is_write).
//
// run_traced_sv runs shiloach_vishkin, and run_traced_afforest runs
// afforest_cc, each under that recording probe, so the trace observes the
// code the kernels run.  Both return the trace plus the resulting labels.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "cc/afforest.hpp"
#include "cc/common.hpp"
#include "graph/csr_graph.hpp"

namespace afforest {

struct MemEvent {
  std::int64_t index;    ///< π index accessed
  std::uint16_t phase;   ///< id from MemTrace::begin_phase
  std::uint16_t thread;  ///< OpenMP thread id
  bool is_write;
};

class MemTrace {
 public:
  MemTrace();

  /// Starts a new algorithm phase (e.g. "I", "L1", "C1", "F", "H");
  /// subsequent records are attributed to it.  Returns the phase id.
  int begin_phase(const std::string& name);

  /// Thread-safe (per-thread buffers); called by the recording probe.
  void record(std::int64_t index, bool is_write);

  [[nodiscard]] const std::vector<std::string>& phase_names() const {
    return phase_names_;
  }

  /// All events, merged (ordering within a thread is preserved).
  [[nodiscard]] std::vector<MemEvent> events() const;

  [[nodiscard]] std::int64_t total_accesses() const;
  [[nodiscard]] std::int64_t accesses_in_phase(int phase) const;

  /// Histogram of accesses in `phase` over `buckets` equal index ranges of
  /// [0, domain).  The Fig 7 heat-map rows.
  [[nodiscard]] std::vector<std::int64_t> access_histogram(
      int phase, int buckets, std::int64_t domain) const;

  /// Renders one text heat-map row per phase ('.' = cold … '#' = hot).
  void render_heatmap(std::ostream& os, int buckets,
                      std::int64_t domain) const;

 private:
  std::vector<std::string> phase_names_;
  int current_phase_ = -1;
  std::vector<std::vector<MemEvent>> per_thread_;
};

struct TraceResult {
  MemTrace trace;
  ComponentLabels<std::int32_t> labels;
};

/// shiloach_vishkin(g) through the tracer.  Phases: I, then per iteration
/// H<i> (hook) and S<i> (shortcut, compress_all: 2 + 2·hops per vertex).
TraceResult run_traced_sv(const Graph& g);

/// afforest_cc(g, opts) through the tracer, for every option cell.  Phases:
/// I, per sampling round L<i> / C<i> (the uniform pass is L1 / C1), then F
/// (find largest component, if skipping), L* (final link), C* (final
/// compress).  A CAS counts as one write, and compress(v) makes 2 + 2·hops
/// accesses.  The paper's Fig 3 cell is opts.link = RootHook{}.
TraceResult run_traced_afforest(const Graph& g, AfforestOptions opts = {});

}  // namespace afforest
