// Shared helpers for the table/figure benchmark binaries: repeated-trial
// timing with the paper's reporting convention (median, 25th/75th
// percentiles) and common CLI plumbing.
#pragma once

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <stdexcept>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "analysis/telemetry.hpp"
#include "util/cli.hpp"
#include "util/env.hpp"
#include "util/json_writer.hpp"
#include "util/platform.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace afforest::bench {

/// Wall-clock budget for one time_trials call, from AFFOREST_WATCHDOG_S
/// (seconds; 0 or unset = unlimited).  The watchdog is cooperative: it is
/// consulted between trials, so a run over budget finishes its current
/// trial, reports what it has, and skips the rest — a hung benchmark grid
/// degrades to a partial report instead of stalling the whole sweep.
/// (Kernels that fail to converge at all are covered separately by the
/// iteration guards in src/cc/guards.hpp.)
inline double watchdog_budget_seconds() {
  if (const auto v = env::as_double("AFFOREST_WATCHDOG_S"); v && *v > 0.0)
    return *v;
  return 0.0;
}

/// Times `fn` `trials` times and summarizes (median / p25 / p75), matching
/// §VI's methodology.  The function's side effects are discarded.  When
/// `budget_seconds` > 0 (default: AFFOREST_WATCHDOG_S), trials stop early
/// once the budget is spent; at least one trial always runs.
inline TrialSummary time_trials(const std::function<void()>& fn, int trials,
                                double budget_seconds =
                                    watchdog_budget_seconds()) {
  // "At least one trial always runs": a non-positive count previously
  // skipped the loop entirely and handed summarize_trials an empty sample.
  trials = std::max(1, trials);
  std::vector<double> seconds;
  seconds.reserve(static_cast<std::size_t>(trials));
  double elapsed = 0.0;
  for (int t = 0; t < trials; ++t) {
    if (budget_seconds > 0.0 && t > 0 && elapsed > budget_seconds) {
      std::cerr << "watchdog: trial budget of " << budget_seconds
                << " s spent after " << t << "/" << trials
                << " trials; reporting the partial sample\n";
      break;
    }
    Timer timer;
    timer.start();
    fn();
    timer.stop();
    seconds.push_back(timer.seconds());
    elapsed += timer.seconds();
  }
  return summarize_trials(seconds);
}

/// Standard preamble: handles --help, prints the experiment banner, and
/// warns about unknown flags.
inline bool standard_preamble(const CommandLine& cl,
                              const std::string& description) {
  if (cl.help_requested()) {
    cl.print_help(description);
    return false;
  }
  std::cout << "== " << description << "\n"
            << "host: " << platform_summary() << "\n\n";
  return true;
}

/// Report leftover (likely misspelled) flags after all get_* calls.
inline void warn_unknown_flags(const CommandLine& cl) {
  for (const auto& f : cl.unknown_flags())
    std::cerr << "warning: unknown flag --" << f << " ignored\n";
}

/// The names a comma-separated flag value selects, in `valid`'s order; an
/// empty value selects every name.  Throws std::invalid_argument naming the
/// first unknown entry and listing the valid names.
inline std::vector<std::string> select_names(
    const std::string& csv, const std::vector<std::string>& valid,
    const std::string& flag) {
  std::vector<std::string> wanted;
  for (std::size_t pos = 0; pos <= csv.size();) {
    const std::size_t comma = std::min(csv.find(',', pos), csv.size());
    if (comma > pos) wanted.push_back(csv.substr(pos, comma - pos));
    pos = comma + 1;
  }
  for (const auto& name : wanted) {
    if (std::find(valid.begin(), valid.end(), name) != valid.end()) continue;
    std::string names;
    for (const auto& v : valid) names += (names.empty() ? "" : ", ") + v;
    throw std::invalid_argument("--" + flag + ": unknown name '" + name +
                                "' (valid: " + names + ")");
  }
  if (wanted.empty()) return valid;
  std::vector<std::string> selected;
  for (const auto& v : valid)
    if (std::find(wanted.begin(), wanted.end(), v) != wanted.end())
      selected.push_back(v);
  return selected;
}

/// The numbers a comma-separated flag value lists, in order (empty entries
/// are skipped).  Throws std::invalid_argument naming the flag when an
/// entry is not a whole T (trailing characters included), lies outside
/// T's range, or fails `valid` (`requirement` says what `valid` wants),
/// and when no entry is left.
template <typename T, typename Valid>
std::vector<T> parse_list(const std::string& csv, const std::string& flag,
                          Valid valid, const std::string& requirement) {
  std::vector<T> out;
  for (std::size_t pos = 0; pos <= csv.size();) {
    const std::size_t comma = std::min(csv.find(',', pos), csv.size());
    const std::string entry = csv.substr(pos, comma - pos);
    pos = comma + 1;
    if (entry.empty()) continue;
    T value{};
    const char* last = entry.data() + entry.size();
    const auto [end, ec] = std::from_chars(entry.data(), last, value);
    const std::string problem =
        ec == std::errc::result_out_of_range ? "is out of range"
        : ec != std::errc() || end != last   ? "is not a number"
        : !valid(value)                      ? "is not " + requirement
                                             : "";
    if (!problem.empty())
      throw std::invalid_argument("--" + flag + ": entry '" + entry + "' " +
                                  problem);
    out.push_back(value);
  }
  if (out.empty())
    throw std::invalid_argument("--" + flag + " parsed to an empty list");
  return out;
}

// ---- machine-readable output (--json) -------------------------------------
// Every benchmark binary can mirror its human-readable tables into one JSON
// document per run (schema "afforest-bench-1"; glossary and refresh
// procedure in docs/BENCHMARKING.md).  scripts/bench_compare.py consumes
// these files, and the perf-smoke CI job diffs them against
// results/baseline.json.

/// One typed benchmark parameter (scale, trials, threads, ...).  The
/// implicit constructors let call sites write
///   {{"scale", 15}, {"family", "kron"}, {"verify", true}}.
struct Param {
  enum class Kind { kString, kInt, kDouble, kBool };

  Param(std::string name_, const char* v)
      : name(std::move(name_)), kind(Kind::kString), s(v) {}
  Param(std::string name_, std::string v)
      : name(std::move(name_)), kind(Kind::kString), s(std::move(v)) {}
  Param(std::string name_, std::int64_t v)
      : name(std::move(name_)), kind(Kind::kInt), i(v) {}
  Param(std::string name_, int v)
      : name(std::move(name_)), kind(Kind::kInt), i(v) {}
  Param(std::string name_, double v)
      : name(std::move(name_)), kind(Kind::kDouble), d(v) {}
  Param(std::string name_, bool v)
      : name(std::move(name_)), kind(Kind::kBool), b(v) {}

  std::string name;
  Kind kind;
  std::string s;
  std::int64_t i = 0;
  double d = 0;
  bool b = false;
};

/// One benchmark measurement: a (graph, algorithm) pair with its trial
/// summary and, when telemetry was captured for the run, the kernel
/// counters/phase times/peak RSS.
struct JsonRecord {
  std::string graph;
  std::string algorithm;
  std::vector<Param> params;
  TrialSummary trials;
  bool has_telemetry = false;
  telemetry::Report report;
};

/// Runs `fn` once with telemetry armed (fresh counters) and returns the
/// captured report.  Used for the counters attached to JSON records: the
/// instrumented pass is separate from the timed trials, so arming the
/// counters can never skew the timings it annotates.
inline telemetry::Report measure_counters(const std::function<void()>& fn) {
  const telemetry::ScopedEnable scoped(/*fresh=*/true);
  fn();
  return telemetry::capture();
}

/// Serializes a full run (host/build preamble + records) as the
/// "afforest-bench-1" schema.  Exposed separately from JsonReporter so
/// tests can validate the document without touching the filesystem.
inline std::string render_json(const std::string& experiment,
                               const std::vector<JsonRecord>& records) {
  json::Writer w;
  w.begin_object();
  w.key("schema").value("afforest-bench-1");
  w.key("experiment").value(experiment);

  w.key("host").begin_object();
  w.key("summary").value(platform_summary());
  w.key("hardware_threads").value(std::int64_t{hardware_threads()});
  w.key("omp_threads").value(std::int64_t{num_threads()});
  w.end_object();

  w.key("build").begin_object();
#ifdef __VERSION__
  w.key("compiler").value(std::string(__VERSION__));
#else
  w.key("compiler").value("unknown");
#endif
#ifdef NDEBUG
  w.key("assertions").value(false);
#else
  w.key("assertions").value(true);
#endif
  w.key("telemetry_compiled_in").value(telemetry::compiled_in());
  w.end_object();

  w.key("records").begin_array();
  for (const JsonRecord& r : records) {
    w.begin_object();
    w.key("graph").value(r.graph);
    w.key("algorithm").value(r.algorithm);
    w.key("params").begin_object();
    for (const Param& p : r.params) {
      w.key(p.name);
      switch (p.kind) {
        case Param::Kind::kString: w.value(p.s); break;
        case Param::Kind::kInt: w.value(p.i); break;
        case Param::Kind::kDouble: w.value(p.d); break;
        case Param::Kind::kBool: w.value(p.b); break;
      }
    }
    w.end_object();
    w.key("trials").begin_object();
    w.key("median_s").value(r.trials.median_s);
    w.key("p25_s").value(r.trials.p25_s);
    w.key("p75_s").value(r.trials.p75_s);
    w.key("min_s").value(r.trials.min_s);
    w.key("max_s").value(r.trials.max_s);
    w.key("count").value(static_cast<std::uint64_t>(r.trials.trials));
    w.end_object();
    if (r.has_telemetry) {
      w.key("counters").begin_object();
      telemetry::for_each_counter(
          r.report.counters,
          [&w](const char* name, std::uint64_t v) { w.key(name).value(v); });
      w.end_object();
      w.key("phases").begin_array();
      for (const telemetry::PhaseSample& ph : r.report.phases) {
        w.begin_object();
        w.key("name").value(ph.name);
        w.key("seconds").value(ph.seconds);
        w.key("count").value(ph.count);
        w.end_object();
      }
      w.end_array();
      w.key("peak_rss_bytes").value(r.report.peak_rss_bytes);
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

/// Writes the document to `path`; returns false (with a stderr note) on
/// I/O failure so benchmark teardown never throws.
inline bool emit_json(const std::string& path, const std::string& experiment,
                      const std::vector<JsonRecord>& records) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "json: cannot open " << path << " for writing\n";
    return false;
  }
  out << render_json(experiment, records) << '\n';
  if (!out) {
    std::cerr << "json: write to " << path << " failed\n";
    return false;
  }
  return true;
}

/// --json plumbing for a benchmark binary: declares the flag, collects
/// records, and writes the document on flush().  When --json is absent the
/// reporter is inert (collect() returns false → callers skip the extra
/// counter pass entirely).
class JsonReporter {
 public:
  JsonReporter(CommandLine& cl, std::string experiment)
      : experiment_(std::move(experiment)) {
    cl.describe("json",
                "write machine-readable results (afforest-bench-1 schema) "
                "to this path");
    path_ = cl.get_string("json", "");
  }

  /// True when --json was given and records should be collected.
  [[nodiscard]] bool collect() const { return !path_.empty(); }

  void add(JsonRecord record) {
    if (collect()) records_.push_back(std::move(record));
  }

  /// Convenience: time-summary-only record.
  void add(const std::string& graph, const std::string& algorithm,
           std::vector<Param> params, const TrialSummary& trials) {
    JsonRecord r;
    r.graph = graph;
    r.algorithm = algorithm;
    r.params = std::move(params);
    r.trials = trials;
    add(std::move(r));
  }

  /// Convenience: record with a telemetry report attached.
  void add(const std::string& graph, const std::string& algorithm,
           std::vector<Param> params, const TrialSummary& trials,
           telemetry::Report report) {
    JsonRecord r;
    r.graph = graph;
    r.algorithm = algorithm;
    r.params = std::move(params);
    r.trials = trials;
    r.has_telemetry = true;
    r.report = std::move(report);
    add(std::move(r));
  }

  /// Writes the file (no-op without --json).  Returns true on success or
  /// when inert.
  bool flush() {
    if (!collect()) return true;
    if (flushed_) return true;
    flushed_ = true;
    const bool ok = emit_json(path_, experiment_, records_);
    if (ok)
      std::cout << "json: wrote " << records_.size() << " record(s) to "
                << path_ << "\n";
    return ok;
  }

  ~JsonReporter() { flush(); }
  JsonReporter(const JsonReporter&) = delete;
  JsonReporter& operator=(const JsonReporter&) = delete;

 private:
  std::string experiment_;
  std::string path_;
  std::vector<JsonRecord> records_;
  bool flushed_ = false;
};

}  // namespace afforest::bench
