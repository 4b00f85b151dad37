// Shared pieces of the benchmark driver: the run configuration, the outcome
// every workload fills in, and the three workload entry points.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "spans.hpp"

namespace overlapbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for this run (inputs, stores, Paraver bundles);
  /// removed by main() when the run ends.
  std::string work_dir;
  /// Where the traced run writes its spans.
  std::string spans_path;
  /// The osim_serve binary the serve workload starts.
  std::string serve_binary;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports. attempted/failed count the workload's operations
/// (app analyses, scenarios, requests) plus every correctness check; a
/// failure is an exception, a refusal or an output that fails a check.
struct Outcome {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// The end-to-end figures under their pipeline names (analysis_p50_s,
  /// sweep_warm_scenarios_per_s, ...), for the readable summary and the
  /// run record.
  std::vector<Metric> summary;

  /// Counts one failed operation and says why on stderr.
  void fail(const std::string& why);
  /// Counts one check: attempted, and failed when !ok.
  void check(bool ok, const std::string& what);
  void e2e(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
  void report(const std::string& name, double value, const std::string& unit) {
    summary.push_back({name, value, unit});
  }
};

/// Median / percentile of a sample (0 for an empty one).
double median_of(std::vector<double> xs);
double percentile_of(std::vector<double> xs, double p);

/// Peak resident memory of this process, in MB.
double peak_rss_mb();

/// A traced window must spend at least this share of its driving threads'
/// wall time inside calls to measured layers, or a stage went unmeasured.
inline constexpr double kMinCoverage = 0.9;

/// Per-layer metrics shared by all workloads: the set-up layers, tracing
/// coverage (checked against kMinCoverage) and tracing overhead.
/// `traced_wall_s` sums the driving threads' traced time, `top_names` are
/// the spans those threads open at top level and `glue_names` those among
/// them that are the benchmark's own code. run.py reports every per-layer
/// name a workload does not exercise as 0, so every traced run prints the
/// full list.
void add_common_layers(const LayerTimes& setup, const LayerTimes& window,
                       double traced_wall_s,
                       const std::vector<std::string>& top_names,
                       const std::vector<std::string>& glue_names,
                       double untraced_latency, double traced_latency,
                       Outcome& out);

void run_analyze(const RunConfig& config, Outcome& out);
void run_sweep(const RunConfig& config, Outcome& out);
void run_serve(const RunConfig& config, Outcome& out);

}  // namespace overlapbench
