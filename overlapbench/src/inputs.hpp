// Input generation. Everything a workload feeds the program is derived from
// the run's --seed: the apps' data seed, the sweep's axis sample and the
// serve submission order. The program only ever sees the generated files.
//
// The files are produced by a set-up child process: tracing is a stage of
// its own, run as its own process (osim_trace) in real use, and its
// threaded runtime's memory high-water mark depends on thread scheduling,
// so keeping it out of the benchmark process keeps peak_rss_mb about the
// measured work.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "apps/app.hpp"
#include "dimemas/platform.hpp"
#include "spans.hpp"

namespace overlapbench {

/// One app at one size, on the paper's platform with the app's Table I
/// bus count.
struct AppSize {
  const osim::apps::MiniApp* app = nullptr;
  osim::apps::AppConfig config;
  osim::dimemas::Platform platform;
};

/// `name` at `ranks` x `iterations` (ranks rounded up to the next count the
/// app supports), with the app's data seeded from `seed`.
AppSize app_size(const std::string& name, std::int32_t ranks,
                 std::int32_t iterations, std::uint64_t seed);

/// The analyze workload's input: an annotated trace file, <dir>/<app>.ann.
struct AnnotatedInput {
  AppSize size;
  std::string path;
};

std::vector<AnnotatedInput> annotated_inputs(
    const std::vector<std::string>& apps, std::int32_t ranks,
    std::int32_t iterations, std::uint64_t seed, const std::string& dir);

/// Traces each app and writes its annotated trace.
void write_annotated_inputs(const std::vector<AnnotatedInput>& inputs);

/// The sweep and serve workloads' input: one binary trace per app and
/// variant (original, overlap_real, overlap_ideal), all six apps, at
/// <dir>/<app>.<variant>.btrace.
struct BinaryInput {
  AppSize size;
  std::string variant;
  std::string path;
};

std::vector<BinaryInput> binary_inputs(std::int32_t ranks,
                                       std::int32_t iterations,
                                       std::uint64_t seed,
                                       const std::string& dir);

/// Traces each app once, lowers the three variants and writes them.
void write_binary_inputs(const std::vector<BinaryInput>& inputs);

/// Runs `produce` in a set-up child process and waits for it; throws when
/// the child fails. With `trace` the child records spans and its layer
/// times are merged into `layers` (through a file under `scratch_dir`).
void run_setup_child(const std::function<void()>& produce, bool trace,
                     const std::string& scratch_dir, LayerTimes& layers);

/// Set-ups per run.
inline constexpr int kSetups = 5;

/// Medians over a run's set-ups.
struct SetupTimes {
  /// CPU time (user + system) of this process and of the set-up children
  /// it waited for. This is setup_s: the set-up's threaded tracer runs one
  /// thread per rank, and its wall time doubled when other processes
  /// competed for the CPUs (0.67 s alone, 1.25 s beside 4 busy loops on 4
  /// vCPUs) while its CPU time stayed at 1.5 s.
  double cpu_s = 0.0;
  /// Wall time, for the summary.
  double wall_s = 0.0;
};

/// Runs `setup(i)` for i = 0..kSetups-1, with `between()` (untimed, when
/// given) before each set-up after the first, and returns the medians, so
/// one slow set-up does not move them. The inputs of the last set-up are
/// the ones the workload uses.
SetupTimes median_setup(const std::function<void(int)>& setup,
                        const std::function<void()>& between = nullptr);

}  // namespace overlapbench
