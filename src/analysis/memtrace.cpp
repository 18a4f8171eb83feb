#include "analysis/memtrace.hpp"

#include <omp.h>

#include <algorithm>
#include <ostream>
#include <stdexcept>

#include "cc/shiloach_vishkin.hpp"

namespace afforest {

MemTrace::MemTrace() : per_thread_(static_cast<std::size_t>(
                           std::max(1, omp_get_max_threads()))) {}

int MemTrace::begin_phase(const std::string& name) {
  phase_names_.push_back(name);
  current_phase_ = static_cast<int>(phase_names_.size()) - 1;
  return current_phase_;
}

void MemTrace::record(std::int64_t index, bool is_write) {
  if (current_phase_ < 0)
    throw std::logic_error("MemTrace::record before begin_phase");
  const auto tid = static_cast<std::size_t>(omp_get_thread_num());
  per_thread_[tid].push_back(MemEvent{
      index, static_cast<std::uint16_t>(current_phase_),
      static_cast<std::uint16_t>(tid), is_write});
}

std::vector<MemEvent> MemTrace::events() const {
  std::vector<MemEvent> out;
  std::size_t total = 0;
  for (const auto& t : per_thread_) total += t.size();
  out.reserve(total);
  for (const auto& t : per_thread_) out.insert(out.end(), t.begin(), t.end());
  return out;
}

std::int64_t MemTrace::total_accesses() const {
  std::int64_t total = 0;
  for (const auto& t : per_thread_)
    total += static_cast<std::int64_t>(t.size());
  return total;
}

std::int64_t MemTrace::accesses_in_phase(int phase) const {
  std::int64_t total = 0;
  for (const auto& t : per_thread_)
    for (const auto& e : t)
      if (e.phase == phase) ++total;
  return total;
}

std::vector<std::int64_t> MemTrace::access_histogram(
    int phase, int buckets, std::int64_t domain) const {
  std::vector<std::int64_t> hist(static_cast<std::size_t>(buckets), 0);
  if (domain <= 0) return hist;
  for (const auto& t : per_thread_) {
    for (const auto& e : t) {
      if (e.phase != phase) continue;
      auto b = static_cast<std::size_t>(e.index * buckets / domain);
      if (b >= hist.size()) b = hist.size() - 1;
      ++hist[b];
    }
  }
  return hist;
}

void MemTrace::render_heatmap(std::ostream& os, int buckets,
                              std::int64_t domain) const {
  static constexpr char kShades[] = " .:-=+*#%@";
  for (std::size_t p = 0; p < phase_names_.size(); ++p) {
    const auto hist = access_histogram(static_cast<int>(p), buckets, domain);
    const std::int64_t peak =
        *std::max_element(hist.begin(), hist.end());
    os << phase_names_[p];
    for (std::size_t pad = phase_names_[p].size(); pad < 5; ++pad) os << ' ';
    os << '|';
    for (const auto count : hist) {
      const std::size_t shade =
          peak == 0 ? 0
                    : static_cast<std::size_t>(
                          count * (sizeof(kShades) - 2) / peak);
      os << kShades[shade];
    }
    os << "|  accesses=" << accesses_in_phase(static_cast<int>(p)) << '\n';
  }
}

namespace {

using NodeID = std::int32_t;

// Forwards every π access of an afforest_cc or shiloach_vishkin solve to a
// MemTrace and names the phases as Fig 7 does.  A CAS is recorded as one
// write.
struct TraceProbe : TelemetryProbe {
  MemTrace* trace;

  void read(std::int64_t i) const { trace->record(i, false); }
  void write(std::int64_t i) const { trace->record(i, true); }
  void phase(AfforestPhase which, std::int32_t round,
             const pvector<NodeID>&) const {
    const std::string r = std::to_string(round + 1);
    switch (which) {
      case AfforestPhase::kSample: trace->begin_phase("L" + r); break;
      case AfforestPhase::kCompress: trace->begin_phase("C" + r); break;
      case AfforestPhase::kFindLargest: trace->begin_phase("F"); break;
      case AfforestPhase::kFinalLink: trace->begin_phase("L*"); break;
      case AfforestPhase::kFinalCompress: trace->begin_phase("C*"); break;
      case AfforestPhase::kSVHook: trace->begin_phase("H" + r); break;
      case AfforestPhase::kSVStagnant: trace->begin_phase("T" + r); break;
      case AfforestPhase::kSVShortcut: trace->begin_phase("S" + r); break;
    }
  }
};

// Runs solve(probe) under a fresh trace.  identity_labels writes every
// slot once, before the driver's first phase boundary: phase I.
template <typename Solve>
TraceResult traced(const Graph& g, Solve solve) {
  TraceResult result;
  result.trace.begin_phase("I");
  for (std::int64_t v = 0; v < g.num_nodes(); ++v)
    result.trace.record(v, true);
  result.labels = solve(TraceProbe{{}, &result.trace});
  return result;
}

}  // namespace

TraceResult run_traced_sv(const Graph& g) {
  return traced(g, [&](TraceProbe probe) {
    return shiloach_vishkin(g, nullptr, probe);
  });
}

TraceResult run_traced_afforest(const Graph& g, AfforestOptions opts) {
  return traced(g, [&](TraceProbe probe) {
    return afforest_cc(g, opts, nullptr, probe);
  });
}

}  // namespace afforest
