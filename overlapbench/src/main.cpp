// overlapbench — times the overlap-analysis pipeline end to end and layer by
// layer. See README.md next to this directory's CMakeLists.txt.
//
//   overlapbench --workload analyze|sweep|serve --seed N --seconds S
//                --trace 0|1 --serve-binary PATH
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics (the end-to-end metrics untraced, the per-layer
// metrics with --trace 1). Standard error carries a readable summary, and
// <out-dir> receives the full record (machine, build, every metric) and,
// for a traced run, the spans. Exit code 0 when every check passed, 1 when
// a correctness check failed, 2 on a usage error or a refused build.
#include <sched.h>
#include <sys/resource.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "bench.hpp"
#include "common/expect.hpp"
#include "common/flags.hpp"
#include "common/stats.hpp"
#include "metrics/json.hpp"

namespace overlapbench {

void Outcome::fail(const std::string& why) {
  ++failed;
  std::fprintf(stderr, "[overlapbench] FAILED: %s\n", why.c_str());
}

void Outcome::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) fail(what);
}

double median_of(std::vector<double> xs) {
  return xs.empty() ? 0.0 : osim::median(xs);
}

double percentile_of(std::vector<double> xs, double p) {
  return xs.empty() ? 0.0 : osim::percentile(xs, p);
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void add_common_layers(const LayerTimes& setup, const LayerTimes& window,
                       double traced_wall_s,
                       const std::vector<std::string>& top_names,
                       const std::vector<std::string>& glue_names,
                       double untraced_latency, double traced_latency,
                       Outcome& out) {
  out.layer("tracer.trace_app_s", setup.mean_self("tracer.trace_app"), "s");
  out.layer("trace.write_annotated_s",
            setup.mean_self("trace.write_annotated"), "s");
  out.layer("trace.write_binary_s", setup.mean_self("trace.write_binary"),
            "s");
  // Share of the driving threads' wall time spent inside a call to a
  // measured layer: top-level spans minus the benchmark's own glue.
  double covered = 0.0;
  for (const std::string& name : top_names) covered += window.total(name);
  for (const std::string& name : glue_names) {
    covered -= window.total_self(name);
  }
  const double coverage = covered / traced_wall_s;
  out.layer("tracing.coverage", coverage, "ratio");
  out.check(coverage >= kMinCoverage,
            "tracing: measured layers cover only " +
                std::to_string(coverage * 100.0) + "% of the traced time");
  out.layer("tracing.overhead_share",
            untraced_latency > 0.0
                ? (traced_latency - untraced_latency) / untraced_latency
                : 0.0,
            "ratio");
}

namespace {

int available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

bool optimized_build() {
#if defined(__OPTIMIZE__)
  return true;
#else
  return false;
#endif
}

/// The sanitizers the compiler instrumented this build with, comma
/// separated ("" for none): what OSIM_SANITIZE or sanitizer CXXFLAGS set.
std::string sanitizers() {
  std::string found;
#if defined(__SANITIZE_ADDRESS__)
  found += "address,";
#endif
#if defined(__SANITIZE_THREAD__)
  found += "thread,";
#endif
  if (!found.empty()) found.pop_back();
  return found;
}

void write_machine(osim::metrics::JsonWriter& w, int nproc) {
  utsname host{};
  ::uname(&host);
  w.key("machine").begin_object();
  w.key("nproc").value(static_cast<std::int64_t>(nproc));
  w.key("kernel").value(std::string(host.sysname) + " " + host.release);
  w.key("arch").value(host.machine);
  w.end_object();
  w.key("build").begin_object();
  w.key("compiler").value(OVERLAPBENCH_COMPILER);
  w.key("build_type").value(OVERLAPBENCH_BUILD_TYPE);
  w.key("sanitizers").value(sanitizers());
  w.key("optimized").value(optimized_build());
  w.end_object();
}

void write_metrics(osim::metrics::JsonWriter& w,
                   const std::vector<Metric>& metrics) {
  w.begin_object();
  for (const Metric& m : metrics) {
    w.key(m.name).begin_object();
    w.key("value").value(m.value);
    w.key("unit").value(m.unit);
    w.end_object();
  }
  w.end_object();
}

int run(int argc, char** argv) {
  RunConfig config;
  std::string seed = "1";
  std::int64_t trace = 0;
  std::string out_dir = ".bench_out";
  std::string work_root = ".bench_work";
  osim::Flags flags(
      "overlapbench: time the overlap-analysis pipeline end to end and per "
      "layer");
  flags.add("workload", &config.workload, "analyze | sweep | serve");
  flags.add("seed", &seed, "input seed (unsigned integer)");
  flags.add("seconds", &config.seconds, "measured window, in seconds");
  flags.add("trace", &trace, "1 = traced run reporting per-layer metrics");
  flags.add("serve-binary", &config.serve_binary,
            "the osim_serve binary (serve workload)");
  flags.add("out-dir", &out_dir, "where run records and spans are written");
  flags.add("work-dir", &work_root, "scratch root for inputs and stores");
  if (!flags.parse(argc, argv)) return 0;
  if (config.workload != "analyze" && config.workload != "sweep" &&
      config.workload != "serve") {
    throw osim::UsageError("--workload must be analyze, sweep or serve");
  }
  if (config.seconds <= 0.0) throw osim::UsageError("--seconds must be > 0");
  if (trace != 0 && trace != 1) throw osim::UsageError("--trace must be 0|1");
  config.seed = std::stoull(seed);
  config.trace = trace == 1;

  const std::string build_type = OVERLAPBENCH_BUILD_TYPE;
  if (build_type == "Debug" || !optimized_build() || !sanitizers().empty()) {
    std::fprintf(stderr,
                 "overlapbench: refusing to time a %s build (sanitizers "
                 "'%s'); configure Release or RelWithDebInfo without "
                 "sanitizers\n",
                 build_type.c_str(), sanitizers().c_str());
    return 2;
  }

  const int nproc = available_cpus();
  const std::string tag = config.workload + "-seed" + seed + "-trace" +
                          std::to_string(trace);
  config.work_dir = work_root + "/" + std::to_string(::getpid());
  config.spans_path = out_dir + "/" + tag + ".spans.jsonl";
  std::filesystem::create_directories(out_dir);
  std::filesystem::remove_all(config.work_dir);
  std::filesystem::create_directories(config.work_dir);

  Outcome out;
  try {
    if (config.workload == "analyze") {
      run_analyze(config, out);
    } else if (config.workload == "sweep") {
      run_sweep(config, out);
    } else {
      run_serve(config, out);
    }
  } catch (const std::exception& e) {
    ++out.attempted;
    out.fail(config.workload + ": " + e.what());
  }
  std::filesystem::remove_all(config.work_dir);
  if (out.attempted == 0) out.attempted = 1;

  // The printed metric set: the end-to-end metrics, or the per-layer ones
  // the workload measured (run.py adds the others as 0).
  const std::vector<Metric>& printed =
      config.trace ? out.per_layer : out.end_to_end;
  const bool correct = out.failed == 0;

  std::fprintf(stderr, "[overlapbench] %s seed %s%s: %s\n",
               config.workload.c_str(), seed.c_str(),
               config.trace ? " (traced)" : "",
               correct ? "all checks passed" : "CHECKS FAILED");
  for (const Metric& m : out.summary) {
    std::fprintf(stderr, "  %-28s %14.6g %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  for (const Metric& m : printed) {
    std::fprintf(stderr, "  %-28s %14.6g %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  const double error_rate =
      static_cast<double>(out.failed) / static_cast<double>(out.attempted);
  std::fprintf(stderr, "  %-28s %14.6g (%lld of %lld)\n", "error_rate",
               error_rate, static_cast<long long>(out.failed),
               static_cast<long long>(out.attempted));

  osim::metrics::JsonWriter record;
  record.begin_object();
  record.key("schema").value("overlapbench.run");
  record.key("version").value(std::int64_t{1});
  record.key("workload").value(config.workload);
  record.key("seed").value(seed);
  record.key("seconds").value(config.seconds);
  record.key("trace").value(config.trace);
  write_machine(record, nproc);
  record.key("correct").value(correct);
  record.key("attempted").value(out.attempted);
  record.key("failed").value(out.failed);
  record.key("error_rate").value(error_rate);
  record.key("summary");
  write_metrics(record, out.summary);
  record.key("metrics");
  write_metrics(record, printed);
  record.end_object();
  if (std::FILE* f = std::fopen((out_dir + "/" + tag + ".json").c_str(), "w")) {
    std::fprintf(f, "%s\n", record.str().c_str());
    std::fclose(f);
  }

  osim::metrics::JsonWriter line;
  line.begin_object();
  line.key("correct").value(correct);
  line.key("attempted").value(out.attempted);
  line.key("failed").value(out.failed);
  line.key("metrics");
  write_metrics(line, printed);
  line.end_object();
  std::printf("%s\n", line.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace overlapbench

int main(int argc, char** argv) {
  try {
    return overlapbench::run(argc, argv);
  } catch (const osim::UsageError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
