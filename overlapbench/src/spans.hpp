// Stage spans for the traced run.
//
// The benchmark times each layer from outside: a Span object wraps one call
// into a layer's public function and records (name, start, end, parent,
// request id) into a per-thread in-memory buffer. Nothing is written until
// the run ends. With tracing off a Span costs one predictable branch, so
// the untraced run measures the end-to-end metrics and a separate traced
// run gives the per-layer numbers.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace overlapbench {

using Clock = std::chrono::steady_clock;

/// Seconds since `start`.
inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// One finished span. Times are seconds since the tracer's epoch; `parent`
/// indexes the same thread's span list (-1 = top level on its thread).
struct SpanRecord {
  const char* name = "";
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
  int thread = 0;
  std::int64_t id = -1;  // request/repetition the span belongs to
};

/// Turns span recording on or off for spans opened from now on, on every
/// thread without a ThreadTracing override.
void set_tracing(bool on);

/// Overrides set_tracing() on the calling thread while alive (the serve
/// workload's client threads alternate traced and untraced requests).
class ThreadTracing {
 public:
  explicit ThreadTracing(bool on);
  ~ThreadTracing();
  ThreadTracing(const ThreadTracing&) = delete;
  ThreadTracing& operator=(const ThreadTracing&) = delete;

 private:
  int previous_;
};

/// Drops every recorded span (the next window starts clean).
void clear_spans();

/// All spans recorded so far, grouped by thread in opening order.
std::vector<std::vector<SpanRecord>> collect_spans();

/// RAII span around one call into a layer.
class Span {
 public:
  explicit Span(const char* name, std::int64_t id = -1);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int index_ = -1;  // slot in this thread's buffer; -1 = not recording
};

/// Per-name totals derived from the spans of one window.
struct LayerTimes {
  std::map<std::string, double> total_s;  // summed span durations
  std::map<std::string, double> self_s;   // durations minus child spans
  std::map<std::string, std::int64_t> calls;

  /// Mean self time per call of `name` (0 when never called).
  double mean_self(const std::string& name) const;
  double total_self(const std::string& name) const;
  double total(const std::string& name) const;
};

LayerTimes derive_layer_times(
    const std::vector<std::vector<SpanRecord>>& spans);

/// Writes per-name totals to `path` / adds those read from `path` into
/// `into`: a set-up child process hands its layer times to the parent so.
void write_layer_times(const LayerTimes& times, const std::string& path);
void merge_layer_times(const std::string& path, LayerTimes& into);

/// Writes the spans as JSON lines (one object per span) to `path`.
void write_spans(const std::vector<std::vector<SpanRecord>>& spans,
                 const std::string& path);

}  // namespace overlapbench
