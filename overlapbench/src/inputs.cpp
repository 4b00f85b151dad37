#include "inputs.hpp"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>

#include "bench.hpp"
#include "common/expect.hpp"
#include "overlap/transform.hpp"
#include "trace/annotated_io.hpp"
#include "trace/binary_io.hpp"

namespace overlapbench {

using namespace osim;

AppSize app_size(const std::string& name, std::int32_t ranks,
                 std::int32_t iterations, std::uint64_t seed) {
  AppSize size;
  size.app = apps::find_app(name);
  if (size.app == nullptr) throw Error("unknown app " + name);
  size.config.ranks = ranks;
  size.config.iterations = iterations;
  size.config.seed = seed;
  while (!size.app->supports_ranks(size.config.ranks)) ++size.config.ranks;
  size.platform = dimemas::Platform::marenostrum(size.config.ranks,
                                                 size.app->paper_buses());
  return size;
}

namespace {

trace::AnnotatedTrace traced(const AppSize& size) {
  Span span("tracer.trace_app");
  return apps::trace_app(*size.app, size.config).annotated;
}

}  // namespace

std::vector<AnnotatedInput> annotated_inputs(
    const std::vector<std::string>& apps, std::int32_t ranks,
    std::int32_t iterations, std::uint64_t seed, const std::string& dir) {
  std::vector<AnnotatedInput> inputs;
  for (const std::string& name : apps) {
    inputs.push_back({app_size(name, ranks, iterations, seed),
                      dir + "/" + name + ".ann"});
  }
  return inputs;
}

void write_annotated_inputs(const std::vector<AnnotatedInput>& inputs) {
  for (const AnnotatedInput& input : inputs) {
    const trace::AnnotatedTrace annotated = traced(input.size);
    Span span("trace.write_annotated");
    trace::write_annotated_file(annotated, input.path);
  }
}

std::vector<BinaryInput> binary_inputs(std::int32_t ranks,
                                       std::int32_t iterations,
                                       std::uint64_t seed,
                                       const std::string& dir) {
  std::vector<BinaryInput> inputs;
  for (const apps::MiniApp* app : apps::registry()) {
    const AppSize size = app_size(app->name(), ranks, iterations, seed);
    for (const char* variant : {"original", "overlap_real", "overlap_ideal"}) {
      inputs.push_back({size, variant,
                        dir + "/" + app->name() + "." + variant + ".btrace"});
    }
  }
  return inputs;
}

void write_binary_inputs(const std::vector<BinaryInput>& inputs) {
  overlap::OverlapOptions real;
  overlap::OverlapOptions ideal;
  ideal.pattern = overlap::PatternMode::kIdeal;
  // Three consecutive entries per app, in binary_inputs() order.
  for (std::size_t i = 0; i + 2 < inputs.size(); i += 3) {
    const trace::AnnotatedTrace annotated = traced(inputs[i].size);
    const trace::Trace variants[] = {overlap::lower_original(annotated),
                                     overlap::transform(annotated, real),
                                     overlap::transform(annotated, ideal)};
    for (std::size_t v = 0; v < 3; ++v) {
      Span span("trace.write_binary");
      trace::write_binary_file(variants[v], inputs[i + v].path);
    }
  }
}

void run_setup_child(const std::function<void()>& produce, bool trace,
                     const std::string& scratch_dir, LayerTimes& layers) {
  const std::string layers_path = scratch_dir + "/setup.layers";
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) throw Error("fork failed");
  if (pid == 0) {
    int code = 0;
    try {
      set_tracing(trace);
      produce();
      set_tracing(false);
      if (trace) write_layer_times(derive_layer_times(collect_spans()),
                                   layers_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "[overlapbench] set-up failed: %s\n", e.what());
      code = 1;
    }
    std::fflush(stderr);
    ::_exit(code);  // no atexit handlers or inherited stdio buffers
  }
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    throw Error("set-up child process failed");
  }
  if (trace) {
    merge_layer_times(layers_path, layers);
    std::filesystem::remove(layers_path);
  }
}

namespace {

/// CPU seconds used so far by this process and its waited-for children.
double cpu_seconds() {
  double total = 0.0;
  for (const int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage usage{};
    ::getrusage(who, &usage);
    for (const timeval& t : {usage.ru_utime, usage.ru_stime}) {
      total += static_cast<double>(t.tv_sec) +
               static_cast<double>(t.tv_usec) * 1e-6;
    }
  }
  return total;
}

}  // namespace

SetupTimes median_setup(const std::function<void(int)>& setup,
                        const std::function<void()>& between) {
  std::vector<double> cpu;
  std::vector<double> wall;
  for (int i = 0; i < kSetups; ++i) {
    if (i > 0 && between) between();
    const double cpu_start = cpu_seconds();
    const Clock::time_point start = Clock::now();
    setup(i);
    wall.push_back(seconds_since(start));
    cpu.push_back(cpu_seconds() - cpu_start);
  }
  return {median_of(cpu), median_of(wall)};
}

}  // namespace overlapbench
