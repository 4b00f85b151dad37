// analyze: one user's whole overlap analysis of an app, serially, from its
// annotated trace file to the finished report set — read .ann → lower the
// original → transform real and ideal → build contexts → lint each trace
// and each pair → replay the three variants with metrics → critical path →
// report JSON → Paraver bundle.
//
// Why this workload: annotated ingest, the transform and lint dominate it
// while replay is a small share, so front-end gains show here and
// replay-only gains barely move it.
#include <cstdio>
#include <filesystem>

#include "analysis/critical_path.hpp"
#include "analysis/speedup.hpp"
#include "bench.hpp"
#include "common/expect.hpp"
#include "dimemas/replay.hpp"
#include "inputs.hpp"
#include "lint/lint.hpp"
#include "overlap/transform.hpp"
#include "paraver/paraver.hpp"
#include "pipeline/context.hpp"
#include "pipeline/report.hpp"
#include "pipeline/study.hpp"
#include "trace/annotated_io.hpp"

namespace overlapbench {
namespace {

using namespace osim;

// The ROADMAP baseline sizes.
constexpr std::int32_t kRanks = 64;
constexpr std::int32_t kIterations = 8;
const std::vector<std::string> kApps = {"nas_cg", "sweep3d", "pop"};

struct AppAnalysis {
  /// The finished report set: each variant's run report (lint block
  /// embedded) and critical-path rendering.
  std::string reports;
  double makespans[3] = {0.0, 0.0, 0.0};  // original, real, ideal
  std::uint64_t des_events = 0;
  std::uint64_t diagnostics = 0;
  std::uint64_t report_bytes = 0;
};

AppAnalysis analyze_app(const AnnotatedInput& input,
                        const std::string& prv_dir, std::int64_t id) {
  Span top("analyze.app", id);
  const std::string& app = input.size.app->name();
  const dimemas::Platform& platform = input.size.platform;

  trace::AnnotatedTrace annotated;
  {
    Span span("trace.read_annotated", id);
    annotated = trace::read_annotated_file(input.path);
  }
  trace::Trace lowered[3];
  {
    Span span("overlap.lower_original", id);
    lowered[0] = overlap::lower_original(annotated);
  }
  overlap::OverlapOptions real;
  overlap::OverlapOptions ideal;
  ideal.pattern = overlap::PatternMode::kIdeal;
  {
    Span span("overlap.transform", id);
    lowered[1] = overlap::transform(annotated, real);
  }
  {
    Span span("overlap.transform", id);
    lowered[2] = overlap::transform(annotated, ideal);
  }

  dimemas::ReplayOptions options;
  options.record_timeline = true;
  options.record_comms = true;
  options.collect_metrics = true;
  std::vector<pipeline::ReplayContext> contexts;
  for (trace::Trace& trace : lowered) {
    Span span("pipeline.context", id);
    contexts.emplace_back(std::move(trace), platform, options);
  }

  lint::LintOptions lint_options;
  lint_options.eager_threshold_bytes = platform.eager_threshold_bytes;
  lint::Report lint_reports[3];
  for (int v = 0; v < 3; ++v) {
    {
      Span span("lint.lint_trace", id);
      lint_reports[v] = lint::lint_trace(contexts[v].trace(), lint_options);
    }
    if (v > 0) {
      Span span("lint.lint_transform", id);
      lint_reports[v].merge(lint::lint_transform(
          contexts[0].trace(), contexts[v].trace(), lint_options));
    }
  }

  static const char* const kVariants[] = {"original", "overlap_real",
                                          "overlap_ideal"};
  AppAnalysis out;
  for (int v = 0; v < 3; ++v) {
    const pipeline::ReplayContext& context = contexts[v];
    dimemas::SimResult result;
    {
      Span span("dimemas.replay", id);
      result = dimemas::replay(context.trace(), context.platform(),
                               context.options());
    }
    analysis::CriticalPath path;
    {
      Span span("analysis.critical_path", id);
      path = analysis::critical_path(result);
    }
    std::string report;
    {
      Span span("pipeline.report_json", id);
      report = pipeline::replay_report_json(result, platform, app,
                                            &lint_reports[v]);
    }
    {
      Span span("paraver.write_prv", id);
      paraver::write_prv_bundle(result,
                                prv_dir + "/" + app + "." + kVariants[v], app);
    }
    out.makespans[v] = result.makespan;
    out.des_events += result.des_events;
    out.diagnostics += lint_reports[v].diagnostics().size();
    out.report_bytes += report.size();
    out.reports += report;
    out.reports += analysis::render(path);
  }
  return out;
}

/// Per-repetition totals: identical on every repetition of one seed.
struct RepCounts {
  std::uint64_t des_events = 0;
  std::uint64_t diagnostics = 0;
  std::uint64_t report_bytes = 0;
  double makespan_sum = 0.0;
  std::int64_t scenarios = 0;
};

}  // namespace

void run_analyze(const RunConfig& config, Outcome& out) {
  std::vector<AnnotatedInput> inputs;
  LayerTimes setup_layers;
  const SetupTimes setup = median_setup([&](int i) {
    const std::string dir = config.work_dir + "/inputs" + std::to_string(i);
    std::filesystem::create_directories(dir);
    inputs = annotated_inputs(kApps, kRanks, kIterations, config.seed, dir);
    run_setup_child([&] { write_annotated_inputs(inputs); }, config.trace,
                    config.work_dir, setup_layers);
  });
  const std::string& prv_dir = config.work_dir;
  std::uint64_t annotated_bytes = 0;
  for (const AnnotatedInput& input : inputs) {
    annotated_bytes += std::filesystem::file_size(input.path);
  }

  // Correctness reference: the first repetition's report set per app.
  std::vector<std::string> first_reports(inputs.size());
  std::vector<AppAnalysis> first_results(inputs.size());
  RepCounts counts;
  std::int64_t next_id = 0;
  // Per-app analysis latencies; with --trace 1 repetitions alternate
  // untraced / traced, so drift cannot pose as tracing overhead.
  std::vector<double> latencies[2];
  double traced_wall_s = 0.0;
  std::uint64_t traced_events = 0;
  std::int64_t analyses = 0;

  const Clock::time_point start = Clock::now();
  for (int r = 0; r == 0 || seconds_since(start) < config.seconds; ++r) {
    const bool traced = config.trace && r % 2 == 1;
    set_tracing(traced);
    const Clock::time_point rep_start = Clock::now();
    RepCounts rep;
    for (std::size_t a = 0; a < inputs.size(); ++a) {
      ++out.attempted;
      const Clock::time_point t0 = Clock::now();
      AppAnalysis result;
      try {
        result = analyze_app(inputs[a], prv_dir, next_id++);
      } catch (const std::exception& e) {
        out.fail(std::string("analyze ") + kApps[a] + ": " + e.what());
        continue;
      }
      latencies[traced].push_back(seconds_since(t0));
      ++analyses;
      if (traced) traced_events += result.des_events;
      if (first_reports[a].empty()) {
        first_reports[a] = result.reports;
        first_results[a] = result;
      } else if (result.reports != first_reports[a]) {
        out.fail("analyze " + kApps[a] +
                 ": report set differs from the first repetition");
      }
      rep.des_events += result.des_events;
      rep.diagnostics += result.diagnostics;
      rep.report_bytes += result.report_bytes;
      for (const double m : result.makespans) rep.makespan_sum += m;
      rep.scenarios += 3;
    }
    if (traced) traced_wall_s += seconds_since(rep_start);
    counts = rep;
  }
  set_tracing(false);
  const double wall_s = seconds_since(start);
  const std::vector<std::vector<SpanRecord>> spans = collect_spans();

  // The timed path's makespans must match the library's own three-variant
  // evaluation of the same annotated trace.
  for (std::size_t a = 0; a < inputs.size(); ++a) {
    pipeline::Study study;
    const analysis::OverlapOutcome expected = analysis::evaluate_overlap(
        study, trace::read_annotated_file(inputs[a].path),
        inputs[a].size.platform);
    const double* got = first_results[a].makespans;
    out.check(got[0] == expected.t_original &&
                  got[1] == expected.t_overlapped_real &&
                  got[2] == expected.t_overlapped_ideal,
              "analyze " + kApps[a] +
                  ": makespans differ from analysis::evaluate_overlap");
  }

  if (!config.trace) {
    const double p50 = median_of(latencies[0]);
    const double p90 = percentile_of(latencies[0], 90);
    // Analyses per second of analysis time. A sum, not a median: host speed
    // drifts in phases of tens of seconds, and a sum averages the phases a
    // run spans where a median jumps to whichever one dominates (over ten
    // runs IQR/median 0.055, against 0.079 for 3 / the sum of the per-app
    // medians).
    double analysis_s = 0.0;
    for (const double t : latencies[0]) analysis_s += t;
    const double rate = static_cast<double>(latencies[0].size()) / analysis_s;
    out.report("analyses_per_wall_s", static_cast<double>(analyses) / wall_s,
               "1/s");
    out.report("analysis_p50_s", p50, "s");
    out.report("analysis_p90_s", p90, "s");
    out.report("analyses", static_cast<double>(analyses), "count");
    out.e2e("setup_s", setup.cpu_s, "s");
    out.report("setup_wall_s", setup.wall_s, "s");
    out.e2e("latency_p50_ms", p50 * 1e3, "ms");
    out.e2e("latency_p90_ms", p90 * 1e3, "ms");
    out.e2e("throughput_per_s", rate, "1/s");
    out.report("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  write_spans(spans, config.spans_path);
  const LayerTimes layers = derive_layer_times(spans);
  out.layer("trace.read_annotated_s", layers.mean_self("trace.read_annotated"),
            "s");
  out.layer("trace.annotated_bytes", static_cast<double>(annotated_bytes),
            "bytes");
  out.layer("overlap.lower_original_s",
            layers.mean_self("overlap.lower_original"), "s");
  out.layer("overlap.transform_s", layers.mean_self("overlap.transform"), "s");
  out.layer("pipeline.context_s", layers.mean_self("pipeline.context"), "s");
  out.layer("lint.lint_trace_s", layers.mean_self("lint.lint_trace"), "s");
  out.layer("lint.lint_transform_s", layers.mean_self("lint.lint_transform"),
            "s");
  out.layer("lint.diagnostics", static_cast<double>(counts.diagnostics),
            "count");
  out.layer("dimemas.replay_s", layers.mean_self("dimemas.replay"), "s");
  out.layer("dimemas.des_events", static_cast<double>(counts.des_events),
            "count");
  const double replay_s = layers.total_self("dimemas.replay");
  out.layer("dimemas.events_per_s",
            replay_s > 0.0 ? static_cast<double>(traced_events) / replay_s
                           : 0.0,
            "1/s");
  out.layer("analysis.critical_path_s",
            layers.mean_self("analysis.critical_path"), "s");
  out.layer("pipeline.report_json_s", layers.mean_self("pipeline.report_json"),
            "s");
  out.layer("pipeline.report_bytes", static_cast<double>(counts.report_bytes),
            "bytes");
  out.layer("paraver.write_prv_s", layers.mean_self("paraver.write_prv"), "s");
  out.layer("sim.makespan_sum_s", counts.makespan_sum, "s");
  out.layer("sim.scenarios", static_cast<double>(counts.scenarios), "count");
  add_common_layers(setup_layers, layers, traced_wall_s, {"analyze.app"},
                    {"analyze.app"}, median_of(latencies[0]),
                    median_of(latencies[1]), out);
}

}  // namespace overlapbench
