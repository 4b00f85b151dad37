// serve: osim_serve with a store, 2 forked workers and batching at its
// default; this process holds 2 closed-loop client connections that submit
// seeded scenarios over 16-rank binary traces. About one submission in four
// repeats one of the client's earlier scenarios, so it takes the
// dedupe / store-served (OSIMRPT1) path. Each client waits for its report
// and fetches it before sending the next.
//
// Why this workload: RPC framing, controller queueing, worker dispatch,
// report objects and the lint cache dominate while replay of small traces
// is minor; it is the only workload where the service's codec and scenario
// handling can regress latency.
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "bench.hpp"
#include "common/expect.hpp"
#include "common/rng.hpp"
#include "common/signals.hpp"
#include "dimemas/progress.hpp"
#include "inputs.hpp"
#include "lint/lint.hpp"
#include "pipeline/context.hpp"
#include "pipeline/lint_cache.hpp"
#include "pipeline/report.hpp"
#include "pipeline/study.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "trace/binary_io.hpp"

extern char** environ;

namespace overlapbench {
namespace {

using namespace osim;

constexpr std::int32_t kRanks = 16;
constexpr std::int32_t kIterations = 8;
constexpr int kClients = 2;
/// Requests per client checked against the batch report, drawn from the
/// client's first kCheckHorizon requests (every run gets that far).
constexpr int kChecksPerClient = 4;
constexpr int kCheckHorizon = 24;

/// A running osim_serve, in a process group of its own with its workers.
/// The destructor shuts it down and reaps the whole group, so no exit path
/// leaves a process behind.
class Service {
 public:
  Service(const std::string& binary, const std::string& socket,
          const std::string& store_dir, const std::string& log_path)
      : socket_(socket) {
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDIN_FILENO, "/dev/null",
                                     O_RDONLY, 0);
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log_path.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
    posix_spawnattr_t attr;
    posix_spawnattr_init(&attr);
    posix_spawnattr_setflags(&attr, POSIX_SPAWN_SETPGROUP);
    posix_spawnattr_setpgroup(&attr, 0);
    const std::string args[] = {binary,      "--socket",    socket,
                                "--workers", "2",           "--cache-dir",
                                store_dir};
    std::vector<char*> argv;
    for (const std::string& arg : args) {
      argv.push_back(const_cast<char*>(arg.c_str()));
    }
    argv.push_back(nullptr);
    const int rc = posix_spawn(&pid_, binary.c_str(), &actions, &attr,
                               argv.data(), environ);
    posix_spawnattr_destroy(&attr);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
      throw Error("cannot start " + binary + ": " + std::strerror(rc));
    }
  }
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;
  ~Service() { stop(); }

  /// Waits until the service answers a handshake.
  serve::ClientConnection connect() const {
    return serve::ClientConnection::connect_unix(socket_, 20000);
  }

  /// Asks for a shutdown and waits for the service and its workers to
  /// exit, killing the group after 10 s. Returns true when the service
  /// exited 0.
  bool stop() {
    if (pid_ <= 0) return true;
    try {
      serve::ClientConnection connection =
          serve::ClientConnection::connect_unix(socket_, 0);
      connection.call(serve::ClientMessage(serve::Shutdown{}));
    } catch (const std::exception&) {
      // Not answering: the kill below still ends it.
    }
    int status = 0;
    bool exited = false;
    const Clock::time_point start = Clock::now();
    // Workers the controller did not reap were re-parented to this process
    // (the subreaper), so waiting for any child covers them too.
    for (;;) {
      int child_status = 0;
      const pid_t pid = ::waitpid(-1, &child_status, WNOHANG);
      if (pid == pid_) {
        status = child_status;
        exited = true;
      }
      if (pid < 0) break;  // no children left
      if (pid == 0) {
        if (seconds_since(start) > 10.0) ::kill(-pid_, SIGKILL);
        ::usleep(2000);
      }
    }
    pid_ = -1;
    return exited && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

 private:
  std::string socket_;
  pid_t pid_ = -1;
};

/// Entry `j` of the run's seeded scenario pool. Each entry has its own
/// random stream, so either client can name any entry without coordination
/// and a client's submission sequence depends on the seed alone.
serve::ScenarioSpec pool_spec(std::uint64_t seed, std::uint64_t j,
                              const std::vector<BinaryInput>& in) {
  static const double kLatencies[] = {1.0, 2.0, 4.0, 8.0, 16.0};
  static const std::int64_t kBuses[] = {0, 2, 4, 8, 16};
  static const std::int64_t kEager[] = {4096, 16384, 65536};
  static const char* const kAlgos[] = {"binomial-tree", "linear",
                                       "recursive-doubling"};
  static const char* const kProgress[] = {"", "app", "thread"};
  Rng rng((seed + 1) * 0x9e3779b97f4a7c15ull ^ (j + 1) * 0xbf58476d1ce4e5b9ull);
  serve::ScenarioSpec spec;
  spec.trace_path = in[rng.below(in.size())].path;
  spec.bandwidth = rng.uniform(100.0, 1000.0);
  spec.latency = kLatencies[rng.below(5)];
  spec.buses = kBuses[rng.below(5)];
  spec.eager = kEager[rng.below(3)];
  spec.collectives = kAlgos[rng.below(3)];
  spec.progress_spec = kProgress[rng.below(3)];
  return spec;
}

/// The report `osim_replay --report` writes for `spec`, computed in this
/// process along the batch tool's own path: read the file, build the
/// platform and options from the flags, replay, lint, render.
std::string batch_report(const serve::ScenarioSpec& spec, double* makespan) {
  const trace::Trace t = trace::read_any_file(spec.trace_path);
  dimemas::Platform platform;
  platform.num_nodes = t.num_ranks;
  platform.bandwidth_MBps = spec.bandwidth;
  platform.latency_us = spec.latency;
  platform.num_buses = static_cast<std::int32_t>(spec.buses);
  platform.input_ports = static_cast<std::int32_t>(spec.ports);
  platform.output_ports = static_cast<std::int32_t>(spec.ports);
  platform.eager_threshold_bytes = static_cast<std::uint64_t>(spec.eager);
  dimemas::ReplayOptions options;
  options.collect_metrics = true;
  if (spec.collectives == "linear") {
    options.collective_algo = dimemas::CollectiveAlgo::kLinear;
  } else if (spec.collectives == "recursive-doubling") {
    options.collective_algo = dimemas::CollectiveAlgo::kRecursiveDoubling;
  }
  if (!spec.progress_spec.empty()) {
    options.progress = dimemas::parse_progress_spec(spec.progress_spec);
  }
  const pipeline::ReplayContext context(t, platform, options);
  const pipeline::Study study;
  const dimemas::SimResult result = study.run(context);
  *makespan = result.makespan;
  lint::LintOptions lint_options;
  lint_options.eager_threshold_bytes = platform.eager_threshold_bytes;
  const lint::Report lint_report =
      pipeline::lint_with_cache(t, lint_options, nullptr);
  return pipeline::replay_report_json(result, platform,
                                      t.app.empty() ? "app" : t.app,
                                      &lint_report);
}

/// Digest of the first report fetched for each pool entry, shared by the
/// clients: every later fetch of the entry must return the same bytes.
class Digests {
 public:
  bool agree(std::uint64_t entry, std::size_t digest) {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto [it, inserted] = first_.emplace(entry, digest);
    return inserted || it->second == digest;
  }

 private:
  std::mutex mutex_;
  std::unordered_map<std::uint64_t, std::size_t> first_;
};

/// What one client saw. Requests alternate untraced / traced under
/// --trace 1, so rtts_s[1] holds the traced ones.
struct ClientLog {
  std::vector<double> rtts_s[2];
  double traced_wall_s = 0.0;  // summed duration of traced iterations
  std::int64_t attempted = 0;
  std::vector<std::string> failures;
  /// Sampled (spec, fetched report) pairs for the batch comparison.
  std::vector<std::pair<serve::ScenarioSpec, std::string>> samples;
};

/// One closed-loop client: submit → wait → fetch, until the deadline.
class Client {
 public:
  Client(int index, std::uint64_t seed, const std::vector<BinaryInput>& in,
         Digests& digests)
      : index_(index),
        seed_(seed),
        inputs_(in),
        digests_(digests),
        rng_(seed * 7919 + 101 + static_cast<std::uint64_t>(index)) {
    Rng pick(seed * 31 + 7 + static_cast<std::uint64_t>(index));
    for (int k = 0; k < kChecksPerClient; ++k) {
      check_at_.push_back(static_cast<std::int64_t>(pick.below(kCheckHorizon)));
    }
  }

  void run(serve::ClientConnection& connection, Clock::time_point deadline,
           bool alternate, ClientLog& log) {
    while (Clock::now() < deadline) {
      const std::int64_t n = next_++;
      const bool traced = alternate && n % 2 == 1;
      const ThreadTracing tracing(traced);
      const Clock::time_point t0 = Clock::now();
      // One submission in four repeats an entry either client has reached;
      // the rest take this client's next fresh entry.
      std::uint64_t entry = 0;
      if (fresh_ > 0 && rng_.below(4) == 0) {
        entry = rng_.below(kClients * fresh_);
      } else {
        entry = kClients * fresh_++ + static_cast<std::uint64_t>(index_);
      }
      const serve::ScenarioSpec spec = pool_spec(seed_, entry, inputs_);
      ++log.attempted;
      std::string report;
      const std::string failure = request(connection, spec, n, report);
      if (!failure.empty()) {
        log.failures.push_back(failure);
        continue;
      }
      log.rtts_s[traced].push_back(seconds_since(t0));
      if (!digests_.agree(entry, std::hash<std::string>{}(report))) {
        log.failures.push_back("a repeated scenario fetched different bytes");
      }
      for (const std::int64_t at : check_at_) {
        if (at == n) log.samples.emplace_back(spec, report);
      }
      if (traced) log.traced_wall_s += seconds_since(t0);
    }
  }

 private:
  /// One request; returns "" on success, else why it failed.
  std::string request(serve::ClientConnection& connection,
                      const serve::ScenarioSpec& spec, std::int64_t n,
                      std::string& report) {
    const std::int64_t id = index_ * 1000000000LL + n;
    serve::ServerMessage reply;
    {
      Span span("serve.submit", id);
      reply = connection.call(serve::ClientMessage(serve::SubmitScenario{spec}));
    }
    const auto* submitted = std::get_if<serve::Submitted>(&reply);
    if (submitted == nullptr || submitted->tickets.size() != 1) {
      const auto* error = std::get_if<serve::ErrorReply>(&reply);
      return error != nullptr
                 ? std::string("submit refused (") +
                       serve::rpc_error_code_name(error->code) +
                       "): " + error->message
                 : "unexpected reply to submit";
    }
    const pipeline::Fingerprint ticket = submitted->tickets[0].ticket;
    {
      Span span("serve.wait", id);
      reply = connection.call(
          serve::ClientMessage(serve::PollStatus{ticket, true}));
    }
    const auto* status = std::get_if<serve::StatusReply>(&reply);
    if (status == nullptr || status->state != serve::JobState::kDone) {
      return status != nullptr ? "job ended " +
                                     std::string(serve::job_state_name(
                                         status->state)) +
                                     ": " + status->error
                               : "unexpected reply to poll";
    }
    {
      Span span("serve.fetch", id);
      reply = connection.call(serve::ClientMessage(serve::FetchReport{ticket}));
    }
    const auto* fetched = std::get_if<serve::ReportReply>(&reply);
    if (fetched == nullptr) return "fetch failed";
    report = fetched->report_json;
    return "";
  }

  const int index_;
  const std::uint64_t seed_;
  const std::vector<BinaryInput>& inputs_;
  Digests& digests_;
  Rng rng_;
  std::int64_t next_ = 0;
  std::uint64_t fresh_ = 0;  // fresh entries taken so far
  std::vector<std::int64_t> check_at_;
};

/// Unsigned counter `key` inside the server-stats JSON (0 when absent).
double stats_counter(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = json.find(needle);
  if (at == std::string::npos) return 0.0;
  return std::strtod(json.c_str() + at + needle.size(), nullptr);
}

}  // namespace

void run_serve(const RunConfig& config, Outcome& out) {
  // The service's workers outlive a controller that exits before reaping
  // them; as subreaper this process inherits and reaps them.
  ::prctl(PR_SET_CHILD_SUBREAPER, 1);
  ignore_sigpipe();

  std::vector<BinaryInput> inputs;
  std::unique_ptr<Service> service;
  LayerTimes setup_layers;
  // The previous set-up's service is stopped between set-ups, untimed.
  const SetupTimes setup = median_setup(
      [&](int i) {
        const std::string dir =
            config.work_dir + "/inputs" + std::to_string(i);
        std::filesystem::create_directories(dir);
        inputs = binary_inputs(kRanks, kIterations, config.seed, dir);
        run_setup_child([&] { write_binary_inputs(inputs); }, config.trace,
                        config.work_dir, setup_layers);
        service = std::make_unique<Service>(
            config.serve_binary, config.work_dir + "/s" + std::to_string(i),
            dir + "/store", config.work_dir + "/serve.log");
        service->connect();
      },
      [&] {
        service->stop();
        service.reset();
      });

  Digests digests;
  std::vector<Client> clients;
  std::vector<serve::ClientConnection> connections;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back(c, config.seed, inputs, digests);
    connections.push_back(service->connect());
  }

  // Both clients run closed loops until `seconds` elapse.
  std::vector<ClientLog> logs(kClients);
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(config.seconds));
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      try {
        clients[c].run(connections[c], deadline, config.trace, logs[c]);
      } catch (const std::exception& e) {
        logs[c].failures.push_back(e.what());
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const double wall_s = seconds_since(start);
  std::vector<double> rtts[2];
  std::vector<std::pair<serve::ScenarioSpec, std::string>> samples;
  double traced_wall_s = 0.0;
  for (ClientLog& log : logs) {
    out.attempted += log.attempted;
    for (const std::string& failure : log.failures) {
      out.fail("serve: " + failure);
    }
    for (int t = 0; t < 2; ++t) {
      rtts[t].insert(rtts[t].end(), log.rtts_s[t].begin(),
                     log.rtts_s[t].end());
    }
    traced_wall_s += log.traced_wall_s;
    for (auto& sample : log.samples) samples.push_back(std::move(sample));
  }
  const std::vector<std::vector<SpanRecord>> spans = collect_spans();

  std::string stats_json;
  try {
    const serve::ServerMessage reply =
        connections[0].call(serve::ClientMessage(serve::ServerStats{}));
    if (const auto* stats = std::get_if<serve::StatsReply>(&reply)) {
      stats_json = stats->stats_json;
    }
  } catch (const std::exception& e) {
    out.fail(std::string("serve: server-stats: ") + e.what());
  }
  connections.clear();
  out.check(service->stop(), "serve: osim_serve did not exit cleanly");
  service.reset();

  // Sampled fetched reports must be byte-identical to the batch report.
  double makespan_sum = 0.0;
  for (const auto& [spec, report] : samples) {
    try {
      double makespan = 0.0;
      out.check(batch_report(spec, &makespan) == report,
                "serve: fetched report differs from the batch report for " +
                    spec.trace_path);
      makespan_sum += makespan;
    } catch (const std::exception& e) {
      out.fail(std::string("serve: batch report: ") + e.what());
    }
  }

  if (!config.trace) {
    const double p50 = median_of(rtts[0]);
    const double p90 = percentile_of(rtts[0], 90);
    const double rate = static_cast<double>(rtts[0].size()) / wall_s;
    out.report("serve_rtt_p50_ms", p50 * 1e3, "ms");
    out.report("serve_rtt_p90_ms", p90 * 1e3, "ms");
    out.report("serve_scenarios_per_s", rate, "1/s");
    out.report("serve_requests", static_cast<double>(rtts[0].size()),
               "count");
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
  out.layer("serve.submit_s", layers.mean_self("serve.submit"), "s");
  out.layer("serve.wait_s", layers.mean_self("serve.wait"), "s");
  out.layer("serve.fetch_s", layers.mean_self("serve.fetch"), "s");
  out.layer("serve.shared", stats_counter(stats_json, "dedupe_shared"),
            "count");
  out.layer("serve.served_from_memory",
            stats_counter(stats_json, "dedupe_served_memory"), "count");
  out.layer("serve.served_from_store",
            stats_counter(stats_json, "dedupe_served_store"), "count");
  out.layer("serve.busy_rejects", stats_counter(stats_json, "busy_rejects"),
            "count");
  out.layer("sim.makespan_sum_s", makespan_sum, "s");
  out.layer("sim.scenarios", static_cast<double>(samples.size()), "count");
  add_common_layers(setup_layers, layers, traced_wall_s,
                    {"serve.submit", "serve.wait", "serve.fetch"}, {},
                    median_of(rtts[0]), median_of(rtts[1]), out);
}

}  // namespace overlapbench
