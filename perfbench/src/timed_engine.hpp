// Engine timing adapter: satisfies IngestPipeline's apply seam
// (apply_batch / publish / acquire / connected / num_nodes) around a
// QueryEngine or ShardedEngine and, in the traced run, records a span
// around each writer call.  The pump span opened by the benchmark's
// consumer loop is their parent, so pump self time (drain, sort/dedupe,
// no-op filter) is the pump span minus its apply and publish children.
#pragma once

#include <cstdint>
#include <vector>

#include "bench_core.hpp"

namespace perfbench {

enum class SpanKind : std::uint8_t { kPump, kApply, kPublish };

struct Span {
  SpanKind kind;
  std::int64_t parent;  ///< index of the enclosing span, -1 for a root
  double start_s;
  double end_s;

  [[nodiscard]] double ms() const { return (end_s - start_s) * 1e3; }
};

/// In-memory span log, written by the single consumer thread only and read
/// after the run.  Disabled logs record nothing and read no clock.
class SpanLog {
 public:
  SpanLog(bool enabled, Clock::time_point epoch)
      : enabled_(enabled), epoch_(epoch) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Opens a span; returns its index (or -1 when disabled).
  std::int64_t open(SpanKind kind) {
    if (!enabled_) return -1;
    spans_.push_back({kind, current_, now(), 0});
    current_ = static_cast<std::int64_t>(spans_.size()) - 1;
    return current_;
  }

  void close(std::int64_t index) {
    if (index < 0) return;
    spans_[index].end_s = now();
    current_ = spans_[index].parent;
  }

  /// Drops a closed span that turned out to cover no work (a pump that
  /// drained nothing), so idle polling does not grow the log.
  void discard(std::int64_t index) {
    if (index >= 0 && index + 1 == static_cast<std::int64_t>(spans_.size()))
      spans_.pop_back();
  }

 private:
  [[nodiscard]] double now() const {
    return seconds_between(epoch_, Clock::now());
  }

  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::int64_t current_ = -1;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, SpanKind kind) : log_(log), index_(log.open(kind)) {}
  ~ScopedSpan() { log_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  std::int64_t index_;
};

template <typename EngineT>
class TimedEngine {
 public:
  TimedEngine(EngineT& engine, SpanLog& log) : engine_(engine), log_(log) {}

  [[nodiscard]] std::int64_t num_nodes() const { return engine_.num_nodes(); }
  [[nodiscard]] auto acquire() const { return engine_.acquire(); }
  [[nodiscard]] bool connected(NodeID u, NodeID v) const {
    return engine_.connected(u, v);
  }

  void apply_batch(const Edges& batch) {
    const ScopedSpan span(log_, SpanKind::kApply);
    engine_.apply_batch(batch);
  }

  void publish() {
    const ScopedSpan span(log_, SpanKind::kPublish);
    engine_.publish();
  }

 private:
  EngineT& engine_;
  SpanLog& log_;
};

}  // namespace perfbench
