// sweep: a seeded platform sweep over the binary original, real and ideal
// traces of all six apps, on a serial Study (jobs 1), answered first cold (a
// fresh Study on an empty store: every scenario replays and is published)
// and then warm (a second fresh Study on the now-full store: none replays).
//
// Why this workload: the event loop and the network model dominate the cold
// pass and store reads dominate the warm pass, while annotated parsing and
// lint are absent. The store is written in one pass and read in the other,
// so a codec change that helps one side and hurts the other shows up.
#include <filesystem>
#include <mutex>
#include <optional>

#include "bench.hpp"
#include "common/rng.hpp"
#include "dimemas/progress.hpp"
#include "dimemas/replay.hpp"
#include "inputs.hpp"
#include "pipeline/context.hpp"
#include "pipeline/study.hpp"
#include "store/store.hpp"
#include "trace/binary_io.hpp"

namespace overlapbench {
namespace {

using namespace osim;

// The ROADMAP baseline sizes, as on analyze.
constexpr std::int32_t kRanks = 64;
constexpr std::int32_t kIterations = 8;
/// Scenarios per trace and pass: every axis has three levels, and each
/// level appears exactly twice per trace, so seeds change which levels meet
/// (and the bandwidths) but not how much of each level a pass replays.
constexpr std::size_t kScenariosPerTrace = 6;
/// Scenarios re-replayed straight through dimemas::replay, outside the
/// Study and its store, as a check.
constexpr std::size_t kDirectSample = 12;
/// Study threads. Serial: on a shared 4-vCPU VM, host CPU steal slowed
/// sweeps on 2 or 4 pool threads by 30-100% for minutes at a time, so only
/// the serial sweep was measured steady. The Study pool is not exercised.
constexpr int kJobs = 1;

/// One sampled point: which trace, and the platform/options to replay on.
struct SweepPoint {
  std::size_t input = 0;
  dimemas::Platform platform;
  dimemas::ReplayOptions options;
};

/// The slots 0..kScenariosPerTrace-1 in a seeded order.
std::vector<std::size_t> shuffled_slots(Rng& rng) {
  std::vector<std::size_t> slots(kScenariosPerTrace);
  for (std::size_t i = 0; i < slots.size(); ++i) slots[i] = i;
  for (std::size_t i = slots.size() - 1; i > 0; --i) {
    std::swap(slots[i], slots[rng.below(i + 1)]);
  }
  return slots;
}

/// The seeded, balanced axis sample over bandwidth (one draw per sixth of
/// 100..1000 MB/s), latency, buses, eager threshold, collective algorithm
/// and progress regime. Points interleave the traces, so consecutive
/// scenarios replay different apps.
std::vector<SweepPoint> sample_sweep(const std::vector<BinaryInput>& inputs,
                                     std::uint64_t seed) {
  static const double kLatencies[] = {1.0, 4.0, 16.0};
  static const std::int32_t kBuses[] = {0, 4, 16};
  static const std::uint64_t kEager[] = {4096, 16384, 65536};
  static const dimemas::CollectiveAlgo kAlgos[] = {
      dimemas::CollectiveAlgo::kBinomialTree, dimemas::CollectiveAlgo::kLinear,
      dimemas::CollectiveAlgo::kRecursiveDoubling};
  static const char* const kProgress[] = {"offload", "app", "thread"};
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 0x5eedull);
  std::vector<SweepPoint> points(inputs.size() * kScenariosPerTrace);
  for (std::size_t t = 0; t < inputs.size(); ++t) {
    const std::vector<std::size_t> band = shuffled_slots(rng);
    const std::vector<std::size_t> latency = shuffled_slots(rng);
    const std::vector<std::size_t> buses = shuffled_slots(rng);
    const std::vector<std::size_t> eager = shuffled_slots(rng);
    const std::vector<std::size_t> algo = shuffled_slots(rng);
    const std::vector<std::size_t> progress = shuffled_slots(rng);
    for (std::size_t k = 0; k < kScenariosPerTrace; ++k) {
      SweepPoint& point = points[k * inputs.size() + t];
      point.input = t;
      point.platform = inputs[t].size.platform;
      point.platform.bandwidth_MBps =
          100.0 + 150.0 * (static_cast<double>(band[k]) + rng.uniform());
      point.platform.latency_us = kLatencies[latency[k] % 3];
      point.platform.num_buses = kBuses[buses[k] % 3];
      point.platform.eager_threshold_bytes = kEager[eager[k] % 3];
      point.options.collective_algo = kAlgos[algo[k] % 3];
      point.options.progress =
          dimemas::parse_progress_spec(kProgress[progress[k] % 3]);
    }
  }
  return points;
}

struct Pass {
  std::vector<double> makespans;
  double wall_s = 0.0;
  std::vector<double> latencies_s;  // each scenario's in-lambda time
  std::size_t replays = 0;
  std::uint64_t store_hits = 0;
  std::uint64_t store_misses = 0;
};

/// One user's sweep, as a fresh process would run it: read the traces,
/// validate them once, derive the scenarios, map them on a fresh Study.
/// Returns the contexts too, for the direct-replay check.
Pass run_pass(const std::vector<BinaryInput>& inputs,
              const std::vector<SweepPoint>& points,
              const std::string& store_dir, bool warm,
              std::vector<pipeline::ReplayContext>* scenarios_out) {
  Span top(warm ? "sweep.warm_pass" : "sweep.cold_pass");
  Pass pass;
  const Clock::time_point start = Clock::now();
  std::vector<std::optional<pipeline::ReplayContext>> bases(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    trace::Trace trace;
    {
      Span span("trace.read_binary");
      trace = trace::read_binary_file(inputs[i].path);
    }
    Span span("pipeline.context");
    bases[i].emplace(std::move(trace), inputs[i].size.platform);
  }
  std::vector<pipeline::ReplayContext> scenarios;
  {
    Span span("pipeline.derive");
    scenarios.reserve(points.size());
    for (const SweepPoint& point : points) {
      scenarios.push_back(bases[point.input]
                              ->with_platform(point.platform)
                              .with_options(point.options));
    }
  }
  {
    pipeline::StudyOptions options;
    options.jobs = kJobs;
    options.cache_dir = store_dir;
    std::optional<pipeline::Study> held;
    {
      Span span("pipeline.study_open");
      held.emplace(options);
    }
    pipeline::Study& study = *held;
    std::mutex latencies_mutex;
    const char* scenario_span =
        warm ? "pipeline.warm_scenario" : "pipeline.cold_scenario";
    {
      Span map_span("pipeline.study_map");
      pass.makespans = study.map(
          scenarios, [&](const pipeline::ReplayContext& context) {
            Span inner(scenario_span);
            const Clock::time_point t0 = Clock::now();
            const double makespan = study.makespan(context);
            const double latency = seconds_since(t0);
            std::lock_guard<std::mutex> lock(latencies_mutex);
            pass.latencies_s.push_back(latency);
            return makespan;
          });
    }
    pass.replays = study.cache_misses();
    pass.store_hits = study.store()->hits();
    pass.store_misses = study.store()->misses();
    Span close("pipeline.study_close");  // flushes the store's writes
    held.reset();
  }
  pass.wall_s = seconds_since(start);
  if (scenarios_out != nullptr) *scenarios_out = std::move(scenarios);
  return pass;
}

}  // namespace

void run_sweep(const RunConfig& config, Outcome& out) {
  std::vector<BinaryInput> inputs;
  LayerTimes setup_layers;
  const SetupTimes setup = median_setup([&](int i) {
    const std::string dir = config.work_dir + "/inputs" + std::to_string(i);
    std::filesystem::create_directories(dir);
    inputs = binary_inputs(kRanks, kIterations, config.seed, dir);
    run_setup_child([&] { write_binary_inputs(inputs); }, config.trace,
                    config.work_dir, setup_layers);
  });
  const std::vector<SweepPoint> points = sample_sweep(inputs, config.seed);

  // Per-cycle figures; with --trace 1 cycles alternate untraced / traced,
  // so drift cannot pose as tracing overhead ([0] untraced, [1] traced).
  std::vector<double> cold_walls;
  std::vector<double> warm_walls;
  // Every cold-pass scenario's latency, pooled over the run's passes: the
  // pooled percentiles spread less over ten runs than the median of
  // per-pass percentiles (p50 0.104 against 0.130). Replay work sets these.
  // Warm-pass percentiles are not reported: with pool threads, store reads
  // queued on the store's one index lock, so they split between waited and
  // unwaited reads and the p90 jumped between the two from run to run.
  std::vector<double> cold_latencies;
  std::vector<double> cycle_walls[2];
  double traced_wall_s = 0.0;
  std::vector<double> reference;  // the first cold pass's makespans
  std::vector<pipeline::ReplayContext> scenarios;
  std::uint64_t bytes_written = 0;
  Pass last_cold;
  Pass last_warm;

  // Cold then warm on one fresh store per cycle, until `seconds` elapse.
  const Clock::time_point start = Clock::now();
  for (int cycle = 0; cycle == 0 || seconds_since(start) < config.seconds;
       ++cycle) {
    const bool traced = config.trace && cycle % 2 == 1;
    set_tracing(traced);
    const Clock::time_point cycle_start = Clock::now();
    const std::string store_dir =
        config.work_dir + "/store" + std::to_string(cycle);
    out.attempted += static_cast<std::int64_t>(2 * points.size());
    try {
      const Pass cold =
          run_pass(inputs, points, store_dir, false,
                   reference.empty() ? &scenarios : nullptr);
      const Pass warm = run_pass(inputs, points, store_dir, true, nullptr);
      if (reference.empty()) {
        reference = cold.makespans;
        bytes_written = store::ScenarioStore(store_dir).stats().bytes;
      }
      for (std::size_t i = 0; i < points.size(); ++i) {
        if (cold.makespans[i] != reference[i]) {
          out.fail("sweep: cold makespan of scenario " + std::to_string(i) +
                   " differs between passes");
        }
        if (warm.makespans[i] != cold.makespans[i]) {
          out.fail("sweep: warm makespan of scenario " + std::to_string(i) +
                   " is not bit-identical to the cold pass");
        }
      }
      if (warm.replays != 0) {
        out.fail("sweep: the warm pass replayed " +
                 std::to_string(warm.replays) + " scenarios");
      }
      if (!traced) {
        cold_walls.push_back(cold.wall_s);
        warm_walls.push_back(warm.wall_s);
        cold_latencies.insert(cold_latencies.end(), cold.latencies_s.begin(),
                              cold.latencies_s.end());
      }
      last_cold = cold;
      last_warm = warm;
    } catch (const std::exception& e) {
      out.fail(std::string("sweep: ") + e.what());
    }
    std::filesystem::remove_all(store_dir);
    cycle_walls[traced].push_back(seconds_since(cycle_start));
    if (traced) traced_wall_s += cycle_walls[1].back();
  }
  set_tracing(false);
  const std::vector<std::vector<SpanRecord>> spans = collect_spans();
  clear_spans();

  // A seeded sample replayed straight through dimemas::replay must match
  // the Study's stored result bit for bit.
  Rng rng(config.seed + 17);
  std::uint64_t sample_events = 0;
  set_tracing(config.trace);
  for (std::size_t k = 0; k < kDirectSample && !scenarios.empty(); ++k) {
    const std::size_t i = rng.below(scenarios.size());
    const pipeline::ReplayContext& context = scenarios[i];
    try {
      dimemas::SimResult result;
      {
        Span span("dimemas.replay");
        result = dimemas::replay(context.trace(), context.platform(),
                                 context.options());
      }
      sample_events += result.des_events;
      out.check(result.makespan == reference[i],
                "sweep: direct replay of scenario " + std::to_string(i) +
                    " differs from the Study result");
    } catch (const std::exception& e) {
      out.fail(std::string("sweep: direct replay: ") + e.what());
    }
  }
  set_tracing(false);
  const LayerTimes replay_layers = derive_layer_times(collect_spans());
  clear_spans();

  if (!config.trace) {
    // Scenarios over the passes' summed wall time, not a median over
    // passes: host speed drifts in phases of tens of seconds, and a sum
    // averages the phases a run spans where a median jumps to whichever
    // one dominates (over ten runs IQR/median 0.069, against 0.100 for the
    // median pass).
    const double passes = static_cast<double>(cold_walls.size());
    const double scenarios = static_cast<double>(points.size()) * passes;
    double cold_s = 0.0;
    double warm_s = 0.0;
    for (const double w : cold_walls) cold_s += w;
    for (const double w : warm_walls) warm_s += w;
    const double cold_rate = scenarios / cold_s;
    out.report("sweep_cold_scenarios_per_s", cold_rate, "1/s");
    out.report("sweep_warm_scenarios_per_s", scenarios / warm_s, "1/s");
    out.report("sweep_passes", passes, "count");
    out.report("sweep_jobs", kJobs, "count");
    out.e2e("setup_s", setup.cpu_s, "s");
    out.report("setup_wall_s", setup.wall_s, "s");
    out.e2e("latency_p50_ms", median_of(cold_latencies) * 1e3, "ms");
    out.e2e("latency_p90_ms", percentile_of(cold_latencies, 90) * 1e3, "ms");
    out.e2e("throughput_per_s", cold_rate, "1/s");
    out.report("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  write_spans(spans, config.spans_path);
  const LayerTimes layers = derive_layer_times(spans);
  double makespan_sum = 0.0;
  for (const double m : reference) makespan_sum += m;
  out.layer("trace.read_binary_s", layers.mean_self("trace.read_binary"), "s");
  out.layer("pipeline.context_s", layers.mean_self("pipeline.context"), "s");
  out.layer("pipeline.cold_scenario_s",
            layers.mean_self("pipeline.cold_scenario"), "s");
  out.layer("pipeline.warm_scenario_s",
            layers.mean_self("pipeline.warm_scenario"), "s");
  out.layer("store.hits", static_cast<double>(last_warm.store_hits), "count");
  out.layer("store.misses", static_cast<double>(last_cold.store_misses),
            "count");
  out.layer("store.bytes_written", static_cast<double>(bytes_written),
            "bytes");
  out.layer("dimemas.replay_s", replay_layers.mean_self("dimemas.replay"),
            "s");
  out.layer("dimemas.des_events", static_cast<double>(sample_events), "count");
  const double replay_s = replay_layers.total_self("dimemas.replay");
  out.layer("dimemas.events_per_s",
            replay_s > 0.0 ? static_cast<double>(sample_events) / replay_s
                           : 0.0,
            "1/s");
  out.layer("sim.makespan_sum_s", makespan_sum, "s");
  out.layer("sim.scenarios", static_cast<double>(points.size()), "count");
  add_common_layers(setup_layers, layers, traced_wall_s,
                    {"sweep.cold_pass", "sweep.warm_pass"},
                    {"sweep.cold_pass", "sweep.warm_pass"},
                    median_of(cycle_walls[0]), median_of(cycle_walls[1]), out);
}

}  // namespace overlapbench
