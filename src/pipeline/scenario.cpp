#include "pipeline/scenario.hpp"

#include <cmath>
#include <filesystem>
#include <limits>
#include <utility>

#include "common/expect.hpp"
#include "common/strings.hpp"
#include "dimemas/collectives.hpp"
#include "dimemas/platform_io.hpp"
#include "dimemas/progress.hpp"
#include "dimemas/replay.hpp"
#include "faults/spec.hpp"
#include "overlap/transform.hpp"
#include "pipeline/lint_cache.hpp"
#include "pipeline/report.hpp"
#include "trace/binary_io.hpp"

namespace osim::pipeline {

const char* trace_variant_name(TraceVariant variant) {
  switch (variant) {
    case TraceVariant::kOriginal: return "original";
    case TraceVariant::kOverlapMeasured: return "overlap-measured";
    case TraceVariant::kOverlapIdeal: return "overlap-ideal";
  }
  OSIM_UNREACHABLE("unknown TraceVariant");
}

ReplayContext make_context(const trace::AnnotatedTrace& annotated,
                           TraceVariant variant,
                           const overlap::OverlapOptions& overlap_options,
                           dimemas::Platform platform,
                           dimemas::ReplayOptions replay_options) {
  if (variant == TraceVariant::kOriginal) {
    return ReplayContext(overlap::lower_original(annotated),
                         std::move(platform), replay_options);
  }
  overlap::OverlapOptions options = overlap_options;
  options.pattern = variant == TraceVariant::kOverlapIdeal
                        ? overlap::PatternMode::kIdeal
                        : overlap::PatternMode::kMeasured;
  return ReplayContext(overlap::transform(annotated, options),
                       std::move(platform), replay_options);
}

dimemas::SimResult run_scenario(const ReplayContext& context) {
  return dimemas::replay(context.trace(), context.platform(),
                         context.options());
}

void ScenarioSpec::register_flags(Flags& flags,
                                  const std::string& trace_help) {
  flags.add("trace", &trace_path, trace_help);
  flags.add("bandwidth", &bandwidth, "link bandwidth in MB/s");
  flags.add("latency", &latency, "per-message latency in us");
  flags.add("buses", &buses, "global buses (0 = unlimited)");
  flags.add("ports", &ports, "input/output ports per node");
  flags.add("eager", &eager, "eager protocol threshold in bytes");
  flags.add("collectives", &collectives,
            "collective algorithm: binomial-tree | linear | "
            "recursive-doubling");
  flags.add("faults", &fault_spec,
            "fault-injection spec, e.g. 'seed=7;loss=0.02;degrade=0-1,"
            "bw=0.5' (see faults/spec.hpp for the grammar)");
  flags.add("progress", &progress_spec,
            "MPI progress model: 'offload' (default), 'app', or "
            "'thread[,tax=F]' (see dimemas/progress.hpp for the grammar)");
}

dimemas::Platform lower_platform(const ScenarioSpec& spec,
                                 std::int32_t num_ranks,
                                 const std::string& platform_file) {
  if (!platform_file.empty()) {
    dimemas::Platform platform = dimemas::read_platform_file(platform_file);
    if (platform.num_nodes < num_ranks) {
      throw Error(strprintf("platform has %d nodes but the trace needs %d",
                            platform.num_nodes, num_ranks));
    }
    return platform;
  }
  // The ranges dimemas/platform_io.cpp enforces on platform files; outside
  // them the network model's invariants would abort the replay.
  constexpr std::int64_t kMaxInt32 = std::numeric_limits<std::int32_t>::max();
  if (!std::isfinite(spec.bandwidth) || spec.bandwidth <= 0.0) {
    throw UsageError(strprintf("--bandwidth must be a finite number > 0, "
                               "got %g", spec.bandwidth));
  }
  if (!std::isfinite(spec.latency) || spec.latency < 0.0) {
    throw UsageError(strprintf("--latency must be a finite number >= 0, "
                               "got %g", spec.latency));
  }
  if (spec.buses < 0 || spec.buses > kMaxInt32) {
    throw UsageError(strprintf("--buses must be in [0, %lld], got %lld",
                               static_cast<long long>(kMaxInt32),
                               static_cast<long long>(spec.buses)));
  }
  if (spec.ports <= 0 || spec.ports > kMaxInt32) {
    throw UsageError(strprintf("--ports must be in [1, %lld], got %lld",
                               static_cast<long long>(kMaxInt32),
                               static_cast<long long>(spec.ports)));
  }
  if (spec.eager < 0) {
    throw UsageError(strprintf("--eager must be >= 0, got %lld",
                               static_cast<long long>(spec.eager)));
  }
  dimemas::Platform platform;
  platform.num_nodes = num_ranks;
  platform.bandwidth_MBps = spec.bandwidth;
  platform.latency_us = spec.latency;
  platform.num_buses = static_cast<std::int32_t>(spec.buses);
  platform.input_ports = static_cast<std::int32_t>(spec.ports);
  platform.output_ports = static_cast<std::int32_t>(spec.ports);
  platform.eager_threshold_bytes = static_cast<std::uint64_t>(spec.eager);
  return platform;
}

dimemas::ReplayOptions lower_options(const ScenarioSpec& spec,
                                     bool collect_metrics) {
  dimemas::ReplayOptions options;
  options.collect_metrics = collect_metrics;
  options.collective_algo = dimemas::parse_collective_algo(spec.collectives);
  // The model parsers report malformed specs as plain errors; from a flag
  // or a request they are usage errors.
  try {
    if (!spec.fault_spec.empty()) {
      options.faults = faults::parse_spec(spec.fault_spec);
    }
    if (!spec.progress_spec.empty()) {
      options.progress = dimemas::parse_progress_spec(spec.progress_spec);
    }
  } catch (const Error& e) {
    throw UsageError(e.what());
  }
  return options;
}

TraceInfo probe_trace(const std::string& path) {
  const trace::Trace t = trace::read_any_file(path);
  TraceInfo info;
  info.fingerprint = fingerprint_of(t);
  info.num_ranks = t.num_ranks;
  std::error_code ec;
  const std::uintmax_t bytes = std::filesystem::file_size(path, ec);
  info.file_bytes = ec ? 0 : static_cast<std::uint64_t>(bytes);
  return info;
}

Fingerprint spec_fingerprint(const ScenarioSpec& spec, const TraceInfo& trace,
                             bool collect_metrics,
                             const std::string& platform_file) {
  return combined_fingerprint(
      trace.fingerprint, lower_platform(spec, trace.num_ranks, platform_file),
      lower_options(spec, collect_metrics));
}

std::string scenario_report(const dimemas::SimResult& result,
                            const trace::Trace& trace,
                            const dimemas::Platform& platform,
                            store::ScenarioStore* store) {
  lint::LintOptions lint_options;
  lint_options.eager_threshold_bytes = platform.eager_threshold_bytes;
  const lint::Report lint_report =
      lint_with_cache(trace, lint_options, store);
  return replay_report_json(result, platform,
                            trace.app.empty() ? "app" : trace.app,
                            &lint_report);
}

}  // namespace osim::pipeline
