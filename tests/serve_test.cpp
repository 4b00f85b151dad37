// Tests for the analysis service (src/serve): protocol strictness
// (including the framing fuzzer the protocol header promises), the
// controller/worker life cycle, and the service-level acceptance
// properties — concurrent clients deduped onto one replay with
// byte-identical reports, admission-control rejection, worker-death
// retries, and a journaled restart that answers from the store without
// recomputing.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/codec.hpp"
#include "common/exit_codes.hpp"
#include "serve/client.hpp"
#include "serve/controller.hpp"
#include "serve/job.hpp"
#include "serve/protocol.hpp"
#include "trace/binary_io.hpp"
#include "trace/trace.hpp"

namespace osim::serve {
namespace {

namespace fs = std::filesystem;

pipeline::Fingerprint fp(std::uint64_t lo, std::uint64_t hi) {
  return pipeline::Fingerprint{lo, hi};
}

// Deterministic PRNG for the fuzzers (xorshift64*; no <random> seeding
// drift across platforms).
struct Rng {
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  std::uint64_t next() {
    state ^= state >> 12;
    state ^= state << 25;
    state ^= state >> 27;
    return state * 0x2545f4914f6cdd1dull;
  }
};

ScenarioSpec sample_spec(const std::string& trace_path, double bandwidth) {
  ScenarioSpec spec;
  spec.trace_path = trace_path;
  spec.bandwidth = bandwidth;
  return spec;
}

// Every client message variant, exercised by the round-trip test and used
// as the fuzzer corpus.
std::vector<ClientMessage> client_corpus() {
  ScenarioSpec spec = sample_spec("/tmp/a.trace", 125.0);
  spec.fault_spec = "drop=0.01,seed=7";
  spec.progress_spec = "thread,tax=0.5";
  SubmitStudy study;
  study.base = spec;
  study.bandwidths = {125.0, 250.0, 500.0};
  return {
      ClientMessage(SubmitScenario{spec}),
      ClientMessage(study),
      ClientMessage(PollStatus{fp(1, 2), true}),
      ClientMessage(FetchReport{fp(3, 4)}),
      ClientMessage(Cancel{fp(5, 6)}),
      ClientMessage(ServerStats{}),
      ClientMessage(Shutdown{}),
  };
}

std::vector<ServerMessage> server_corpus() {
  Submitted submitted;
  submitted.tickets = {{fp(1, 2), SubmitDisposition::kFresh},
                       {fp(3, 4), SubmitDisposition::kShared},
                       {fp(5, 6), SubmitDisposition::kServed}};
  return {
      ServerMessage(submitted),
      ServerMessage(StatusReply{fp(7, 8), JobState::kFailed, 2, "boom"}),
      ServerMessage(ReportReply{fp(9, 10), "{\"schema\":\"x\"}"}),
      ServerMessage(StatsReply{"{\"clients\":3}"}),
      ServerMessage(OkReply{}),
      ServerMessage(ErrorReply{RpcErrorCode::kBusy, "queue full"}),
  };
}

// --- protocol round trips ---------------------------------------------------

TEST(Protocol, HandshakeRoundTrip) {
  const std::string hs = handshake_bytes();
  ASSERT_EQ(hs.size(), kHandshakeBytes);
  EXPECT_TRUE(check_handshake(hs));
  for (std::size_t i = 0; i < hs.size(); ++i) {
    std::string bad = hs;
    bad[i] = static_cast<char>(bad[i] ^ 0x40);
    EXPECT_FALSE(check_handshake(bad)) << "flipped byte " << i;
  }
  EXPECT_FALSE(check_handshake(hs.substr(0, kHandshakeBytes - 1)));
}

TEST(Protocol, ClientMessagesRoundTrip) {
  for (const ClientMessage& message : client_corpus()) {
    const std::string payload = encode_client_message(message);
    const std::optional<ClientMessage> back = decode_client_message(payload);
    ASSERT_TRUE(back.has_value());
    EXPECT_TRUE(*back == message);
  }
}

TEST(Protocol, ServerMessagesRoundTrip) {
  for (const ServerMessage& message : server_corpus()) {
    const std::string payload = encode_server_message(message);
    const std::optional<ServerMessage> back = decode_server_message(payload);
    ASSERT_TRUE(back.has_value());
    EXPECT_TRUE(*back == message);
  }
}

TEST(Protocol, JobFramesRoundTrip) {
  JobRequest request;
  request.ticket = fp(11, 12);
  request.spec = sample_spec("t.trace", 500.0);
  const std::optional<JobRequest> request_back =
      decode_job_request(encode_job_request(request));
  ASSERT_TRUE(request_back.has_value());
  EXPECT_TRUE(*request_back == request);

  JobResult result;
  result.ticket = request.ticket;
  result.ok = true;
  result.report_json = "{\"makespan\":1.5}";
  const std::optional<JobResult> result_back =
      decode_job_result(encode_job_result(result));
  ASSERT_TRUE(result_back.has_value());
  EXPECT_TRUE(*result_back == result);
}

TEST(Protocol, DecodeRejectsTrailingBytes) {
  std::string payload = encode_client_message(ClientMessage(Shutdown{}));
  payload.push_back('\0');
  EXPECT_FALSE(decode_client_message(payload).has_value());
}

TEST(Protocol, DecodeRejectsUnknownType) {
  std::string payload;
  payload.push_back(static_cast<char>(200));
  EXPECT_FALSE(decode_client_message(payload).has_value());
  EXPECT_FALSE(decode_server_message(payload).has_value());
}

TEST(Protocol, FrameReaderReassemblesSplitFrames) {
  std::string stream;
  for (const ClientMessage& message : client_corpus()) {
    append_frame(stream, encode_client_message(message));
  }
  FrameReader reader;
  std::vector<std::string> payloads;
  for (const char byte : stream) {  // worst case: one byte per read()
    reader.feed(std::string_view(&byte, 1));
    while (std::optional<std::string> payload = reader.next()) {
      payloads.push_back(*payload);
    }
  }
  EXPECT_FALSE(reader.error());
  EXPECT_EQ(reader.buffered(), 0u);
  ASSERT_EQ(payloads.size(), client_corpus().size());
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    EXPECT_TRUE(decode_client_message(payloads[i]).has_value()) << i;
  }
}

// --- framing fuzzer ---------------------------------------------------------
//
// The promise under test (protocol.hpp): decoding is strict and total —
// bit-flipped, truncated and oversized-length frames either parse to a
// valid message or return nullopt, and a forged length never allocates.

TEST(Fuzz, BitFlippedFramesNeverCrash) {
  for (const ClientMessage& message : client_corpus()) {
    std::string frame;
    append_frame(frame, encode_client_message(message));
    for (std::size_t bit = 0; bit < frame.size() * 8; ++bit) {
      std::string mutant = frame;
      mutant[bit / 8] = static_cast<char>(mutant[bit / 8] ^ (1 << (bit % 8)));
      FrameReader reader;
      reader.feed(mutant);
      while (std::optional<std::string> payload = reader.next()) {
        decode_client_message(*payload);  // must not crash; result is free
        decode_server_message(*payload);
      }
      // A flipped length byte may declare an oversized frame; the reader
      // must have refused it without buffering the declared size.
      EXPECT_LE(reader.buffered(), mutant.size());
    }
  }
}

TEST(Fuzz, TruncatedFramesNeverYieldAFrame) {
  std::string frame;
  append_frame(frame,
               encode_client_message(ClientMessage(client_corpus()[1])));
  for (std::size_t len = 0; len < frame.size(); ++len) {
    FrameReader reader;
    reader.feed(frame.substr(0, len));
    if (len >= 4) {
      // Header complete, payload short: no frame yet, no error.
      EXPECT_FALSE(reader.next().has_value()) << len;
      EXPECT_FALSE(reader.error()) << len;
    } else {
      EXPECT_FALSE(reader.next().has_value()) << len;
    }
  }
  // Truncated *payloads* handed straight to the decoders must reject too.
  const std::string payload = encode_client_message(client_corpus()[1]);
  for (std::size_t len = 0; len < payload.size(); ++len) {
    EXPECT_FALSE(decode_client_message(payload.substr(0, len)).has_value())
        << len;
  }
}

TEST(Fuzz, OversizedLengthPoisonsWithoutAllocation) {
  for (const std::uint32_t declared :
       {kMaxFrameBytes + 1, 0x7fffffffu, 0xffffffffu}) {
    std::string header;
    codec::put_u32(header, declared);
    FrameReader reader;
    reader.feed(header);
    EXPECT_FALSE(reader.next().has_value());
    EXPECT_TRUE(reader.error()) << declared;
    // Only the 4 header bytes may be buffered — the declared length must
    // never be reserved.
    EXPECT_LE(reader.buffered(), header.size());
  }
}

TEST(Fuzz, RandomGarbageStreamsNeverCrash) {
  Rng rng;
  for (int round = 0; round < 50; ++round) {
    FrameReader reader;
    // Feed ~4 KB of garbage in ragged chunks, draining as a server would.
    for (int chunk = 0; chunk < 64 && !reader.error(); ++chunk) {
      std::string bytes;
      const std::size_t n = 1 + rng.next() % 64;
      for (std::size_t i = 0; i < n; ++i) {
        bytes.push_back(static_cast<char>(rng.next()));
      }
      reader.feed(bytes);
      while (std::optional<std::string> payload = reader.next()) {
        decode_client_message(*payload);
        decode_server_message(*payload);
      }
      EXPECT_LE(reader.buffered(), std::size_t{kMaxFrameBytes});
    }
  }
}

// --- the service ------------------------------------------------------------

#if defined(__unix__) || defined(__APPLE__)

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/osim_serve_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// A ring exchange over `ranks` ranks for `rounds` rounds; written to disk
// the way clients hand traces to the service.
std::string write_ring_trace(const std::string& dir, std::int32_t ranks,
                             int rounds) {
  trace::TraceBuilder b(ranks, 1000.0);
  for (trace::Rank r = 0; r < ranks; ++r) {
    const trace::Rank next = static_cast<trace::Rank>((r + 1) % ranks);
    const trace::Rank prev = static_cast<trace::Rank>((r + ranks - 1) % ranks);
    for (int i = 0; i < rounds; ++i) {
      b.irecv(r, prev, i, 32 * 1024, i + 1);
      b.compute(r, 20'000);
      b.send(r, next, i, 32 * 1024);
      b.wait(r, {i + 1});
    }
  }
  const std::string path = dir + "/ring.trace";
  trace::write_binary_file(std::move(b).build(), path);
  return path;
}

// Two ranks trading eager messages, each wait straight after its post:
// every immediate operation draws a zero-window lint diagnostic, so the
// run report outgrows the RPC frame cap while the replay stays small.
std::string write_zero_window_trace(const std::string& dir, int rounds) {
  trace::TraceBuilder b(2, 1000.0);
  for (trace::Rank r = 0; r < 2; ++r) {
    const trace::Rank peer = 1 - r;
    for (int i = 0; i < rounds; ++i) {
      b.isend(r, peer, i, 64, 2 * i + 1);
      b.wait(r, {2 * i + 1});
      b.irecv(r, peer, i, 64, 2 * i + 2);
      b.wait(r, {2 * i + 2});
    }
  }
  const std::string path = dir + "/zero_window.trace";
  trace::write_binary_file(std::move(b).build(), path);
  return path;
}

// Runs a Controller on its own thread and guarantees the thread is
// reaped: the destructor sends the shutdown RPC if the test did not.
class TestService {
 public:
  explicit TestService(ControllerOptions options)
      : socket_(options.socket_path) {
    thread_ = std::thread([this, options]() {
      try {
        Controller controller(options);
        exit_code_ = controller.run();
      } catch (const std::exception& e) {
        startup_error_ = e.what();
      }
    });
  }

  ~TestService() { shutdown(); }

  ClientConnection connect() {
    return ClientConnection::connect_unix(socket_, 5000 /* retry_ms */);
  }

  /// Sends the shutdown RPC (idempotent) and joins; returns run()'s exit
  /// code, or -1 when the controller failed to start.
  int shutdown() {
    if (thread_.joinable()) {
      try {
        connect().call(ClientMessage(Shutdown{}));
      } catch (...) {
        // Already shut down (or never started); join either way.
      }
      thread_.join();
    }
    EXPECT_EQ(startup_error_, "") << "controller failed to start";
    return exit_code_;
  }

 private:
  std::string socket_;
  std::thread thread_;
  int exit_code_ = -1;
  std::string startup_error_;
};

ControllerOptions thread_mode_options(const std::string& dir) {
  ControllerOptions options;
  options.socket_path = dir + "/osim.sock";
  options.workers = 2;
  options.fork_workers = false;
  return options;
}

// Submits `spec`, waits for the terminal state and fetches the report.
std::string submit_and_fetch(ClientConnection& connection,
                             const ScenarioSpec& spec,
                             SubmitDisposition* disposition = nullptr) {
  const ServerMessage reply =
      connection.call(ClientMessage(SubmitScenario{spec}));
  const auto* submitted = std::get_if<Submitted>(&reply);
  if (submitted == nullptr || submitted->tickets.size() != 1) {
    throw Error("submit was refused");
  }
  const TicketInfo info = submitted->tickets[0];
  if (disposition != nullptr) *disposition = info.disposition;
  const ServerMessage status =
      connection.call(ClientMessage(PollStatus{info.ticket, true}));
  const auto* terminal = std::get_if<StatusReply>(&status);
  if (terminal == nullptr || terminal->state != JobState::kDone) {
    throw Error("scenario did not complete");
  }
  const ServerMessage fetched =
      connection.call(ClientMessage(FetchReport{info.ticket}));
  const auto* report = std::get_if<ReportReply>(&fetched);
  if (report == nullptr) throw Error("fetch was refused");
  return report->report_json;
}

std::string fetch_stats(ClientConnection& connection) {
  const ServerMessage reply =
      connection.call(ClientMessage(ServerStats{}));
  const auto* stats = std::get_if<StatsReply>(&reply);
  EXPECT_NE(stats, nullptr);
  return stats != nullptr ? stats->stats_json : std::string();
}

TEST(Service, SubmitFetchMatchesDirectRun) {
  const std::string dir = fresh_dir("submit");
  const std::string trace_path = write_ring_trace(dir, 4, 3);
  const ScenarioSpec spec = sample_spec(trace_path, 250.0);

  TestService service(thread_mode_options(dir));
  ClientConnection connection = service.connect();
  SubmitDisposition disposition = SubmitDisposition::kServed;
  const std::string via_service =
      submit_and_fetch(connection, spec, &disposition);
  EXPECT_EQ(disposition, SubmitDisposition::kFresh);

  // The service's report must be the byte-identical osim_replay --report
  // document for the same trace and flags.
  const JobOutcome direct = run_job(
      spec,
      std::make_shared<const trace::Trace>(trace::read_any_file(trace_path)),
      nullptr);
  ASSERT_TRUE(direct.ok) << direct.error;
  EXPECT_EQ(via_service, direct.report_json);

  // A second submit of the same scenario is answered without a replay.
  SubmitDisposition again = SubmitDisposition::kFresh;
  EXPECT_EQ(submit_and_fetch(connection, spec, &again), via_service);
  EXPECT_EQ(again, SubmitDisposition::kServed);

  EXPECT_EQ(service.shutdown(), kExitOk);
}

TEST(Service, ConcurrentClientsShareOneReplay) {
  const std::string dir = fresh_dir("concurrent");
  const std::string trace_path = write_ring_trace(dir, 4, 4);
  const ScenarioSpec spec = sample_spec(trace_path, 250.0);

  TestService service(thread_mode_options(dir));
  constexpr int kClients = 6;
  std::vector<std::string> reports(kClients);
  std::vector<SubmitDisposition> dispositions(kClients);
  std::atomic<int> failures = 0;
  {
    std::vector<std::thread> threads;
    for (int i = 0; i < kClients; ++i) {
      threads.emplace_back([&, i]() {
        try {
          ClientConnection connection = service.connect();
          reports[i] =
              submit_and_fetch(connection, spec, &dispositions[i]);
        } catch (const std::exception&) {
          ++failures;
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  ASSERT_EQ(failures.load(), 0);

  // Exactly one client paid for the replay; everyone else joined it (in
  // flight) or was served the finished report. All reports byte-identical.
  int fresh = 0;
  for (const SubmitDisposition d : dispositions) {
    if (d == SubmitDisposition::kFresh) ++fresh;
  }
  EXPECT_EQ(fresh, 1);
  for (int i = 1; i < kClients; ++i) {
    EXPECT_EQ(reports[i], reports[0]) << "client " << i;
  }

  ClientConnection connection = service.connect();
  const std::string stats = fetch_stats(connection);
  EXPECT_NE(stats.find("\"replays_completed\":1"), std::string::npos) << stats;
  EXPECT_EQ(service.shutdown(), kExitOk);
}

TEST(Service, MalformedSubmitsAreBadRequests) {
  const std::string dir = fresh_dir("badreq");
  const std::string trace_path = write_ring_trace(dir, 2, 1);

  TestService service(thread_mode_options(dir));
  ClientConnection connection = service.connect();

  // Unreadable trace.
  {
    const ServerMessage reply = connection.call(ClientMessage(
        SubmitScenario{sample_spec(dir + "/missing.trace", 250.0)}));
    const auto* error = std::get_if<ErrorReply>(&reply);
    ASSERT_NE(error, nullptr);
    EXPECT_EQ(error->code, RpcErrorCode::kBadRequest);
  }
  // Unknown option spelling.
  {
    ScenarioSpec spec = sample_spec(trace_path, 250.0);
    spec.collectives = "telepathy";
    const ServerMessage reply =
        connection.call(ClientMessage(SubmitScenario{spec}));
    const auto* error = std::get_if<ErrorReply>(&reply);
    ASSERT_NE(error, nullptr);
    EXPECT_EQ(error->code, RpcErrorCode::kBadRequest);
  }
  // The connection survives both rejections.
  EXPECT_FALSE(submit_and_fetch(connection, sample_spec(trace_path, 250.0))
                   .empty());
  EXPECT_EQ(service.shutdown(), kExitOk);
}

TEST(Service, AdmissionControlRefusesWithBusy) {
  const std::string dir = fresh_dir("busy");
  const std::string trace_path = write_ring_trace(dir, 2, 1);

  ControllerOptions options = thread_mode_options(dir);
  options.max_queue = 0;  // no queue capacity: every fresh submit refused
  TestService service(options);
  ClientConnection connection = service.connect();

  const ServerMessage reply = connection.call(
      ClientMessage(SubmitScenario{sample_spec(trace_path, 250.0)}));
  const auto* error = std::get_if<ErrorReply>(&reply);
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->code, RpcErrorCode::kBusy);

  const std::string stats = fetch_stats(connection);
  EXPECT_NE(stats.find("\"busy_rejects\":1"), std::string::npos) << stats;
  EXPECT_EQ(service.shutdown(), kExitOk);
}

TEST(Service, StudySweepsAndTicketCommands) {
  const std::string dir = fresh_dir("study");
  const std::string trace_path = write_ring_trace(dir, 4, 2);

  TestService service(thread_mode_options(dir));
  ClientConnection connection = service.connect();

  // Unknown tickets answer kNotFound, and the connection survives.
  for (const ClientMessage& message :
       {ClientMessage(PollStatus{fp(1, 2), false}),
        ClientMessage(FetchReport{fp(1, 2)}),
        ClientMessage(Cancel{fp(1, 2)})}) {
    const ServerMessage reply = connection.call(message);
    const auto* error = std::get_if<ErrorReply>(&reply);
    ASSERT_NE(error, nullptr);
    EXPECT_EQ(error->code, RpcErrorCode::kNotFound);
  }

  SubmitStudy study;
  study.base = sample_spec(trace_path, 250.0);
  study.bandwidths = {125.0, 250.0, 500.0};
  const ServerMessage reply = connection.call(ClientMessage(study));
  const auto* submitted = std::get_if<Submitted>(&reply);
  ASSERT_NE(submitted, nullptr);
  ASSERT_EQ(submitted->tickets.size(), 3u);
  EXPECT_FALSE(submitted->tickets[0].ticket == submitted->tickets[1].ticket);

  std::vector<std::string> reports;
  for (const TicketInfo& info : submitted->tickets) {
    const ServerMessage status =
        connection.call(ClientMessage(PollStatus{info.ticket, true}));
    const auto* terminal = std::get_if<StatusReply>(&status);
    ASSERT_NE(terminal, nullptr);
    EXPECT_EQ(terminal->state, JobState::kDone);
    const ServerMessage fetched =
        connection.call(ClientMessage(FetchReport{info.ticket}));
    const auto* report = std::get_if<ReportReply>(&fetched);
    ASSERT_NE(report, nullptr);
    reports.push_back(report->report_json);
  }
  EXPECT_NE(reports[0], reports[1]);  // different bandwidths, different runs

  // Cancelling a finished scenario is a harmless detach: Ok, and the
  // report stays fetchable.
  const ServerMessage cancelled =
      connection.call(ClientMessage(Cancel{submitted->tickets[0].ticket}));
  EXPECT_NE(std::get_if<OkReply>(&cancelled), nullptr);
  const ServerMessage refetched = connection.call(
      ClientMessage(FetchReport{submitted->tickets[0].ticket}));
  EXPECT_NE(std::get_if<ReportReply>(&refetched), nullptr);

  EXPECT_EQ(service.shutdown(), kExitOk);
}

TEST(Service, JournaledRestartServesFromStoreWithoutRecompute) {
  const std::string dir = fresh_dir("journal");
  const std::string trace_path = write_ring_trace(dir, 4, 2);
  const ScenarioSpec spec = sample_spec(trace_path, 250.0);

  ControllerOptions options = thread_mode_options(dir);
  options.cache_dir = dir + "/cache";
  options.journal = true;

  std::string first_report;
  {
    TestService service(options);
    ClientConnection connection = service.connect();
    first_report = submit_and_fetch(connection, spec);
    EXPECT_EQ(service.shutdown(), kExitOk);
  }

  // Same socket, same store: the restarted controller recovers the
  // journal and answers the scenario from the disk tier — disposition
  // kServed on the very first submit, zero replays run.
  {
    TestService service(options);
    ClientConnection connection = service.connect();
    SubmitDisposition disposition = SubmitDisposition::kFresh;
    const std::string report =
        submit_and_fetch(connection, spec, &disposition);
    EXPECT_EQ(disposition, SubmitDisposition::kServed);
    EXPECT_EQ(report, first_report);
    const std::string stats = fetch_stats(connection);
    EXPECT_NE(stats.find("\"replays_completed\":0"), std::string::npos)
        << stats;
    EXPECT_NE(stats.find("\"journal_hits\":1"), std::string::npos) << stats;
    EXPECT_NE(stats.find("\"enabled\":true"), std::string::npos) << stats;
    EXPECT_EQ(service.shutdown(), kExitOk);
  }
}

#ifdef OSIM_SERVE_BIN

// Restores OSIM_CRASH_POINT on scope exit so a failing assertion cannot
// leak the crash point into later tests.
struct CrashPointGuard {
  explicit CrashPointGuard(const char* value) {
    ::setenv("OSIM_CRASH_POINT", value, 1);
  }
  ~CrashPointGuard() { ::unsetenv("OSIM_CRASH_POINT"); }
};

TEST(Service, WorkerSigkillIsRetriedOnAFreshWorker) {
  const std::string dir = fresh_dir("deaths");
  const std::string trace_path = write_ring_trace(dir, 4, 2);

  // Fork-mode workers inherit the environment, and the crash point fires
  // on the *second* job a worker process runs: with one worker and a
  // batch of two, the worker finishes job 1 and is SIGKILLed entering
  // job 2. The controller must reap it, requeue job 2 and answer both.
  CrashPointGuard crash("serve.worker.job:2");
  ControllerOptions options;
  options.socket_path = dir + "/osim.sock";
  options.workers = 1;
  options.max_batch = 2;
  options.fork_workers = true;
  options.serve_binary = OSIM_SERVE_BIN;
  TestService service(options);
  ClientConnection connection = service.connect();

  SubmitStudy study;
  study.base = sample_spec(trace_path, 250.0);
  study.bandwidths = {125.0, 500.0};
  const ServerMessage reply = connection.call(ClientMessage(study));
  const auto* submitted = std::get_if<Submitted>(&reply);
  ASSERT_NE(submitted, nullptr);
  ASSERT_EQ(submitted->tickets.size(), 2u);

  std::uint32_t total_attempts = 0;
  for (const TicketInfo& info : submitted->tickets) {
    const ServerMessage status =
        connection.call(ClientMessage(PollStatus{info.ticket, true}));
    const auto* terminal = std::get_if<StatusReply>(&status);
    ASSERT_NE(terminal, nullptr);
    EXPECT_EQ(terminal->state, JobState::kDone) << terminal->error;
    total_attempts += terminal->attempts;
  }
  // Exactly one job rode through a worker death.
  EXPECT_EQ(total_attempts, 1u);

  const std::string stats = fetch_stats(connection);
  EXPECT_NE(stats.find("\"deaths\":1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"replays_completed\":2"), std::string::npos) << stats;
  EXPECT_EQ(service.shutdown(), kExitOk);
}

TEST(Service, OversizeReportFailsTheJobWithoutWorkerDeaths) {
  const std::string dir = fresh_dir("oversize");
  const std::string trace_path = write_zero_window_trace(dir, 25'000);

  // Forked workers, as in production: a result frame over the cap used to
  // poison the controller's reader, which took the worker for dead and
  // replayed the scenario twice more before failing it as a crash.
  ControllerOptions options;
  options.socket_path = dir + "/osim.sock";
  options.workers = 1;
  options.fork_workers = true;
  options.serve_binary = OSIM_SERVE_BIN;
  TestService service(options);
  ClientConnection connection = service.connect();

  const ServerMessage reply = connection.call(
      ClientMessage(SubmitScenario{sample_spec(trace_path, 250.0)}));
  const auto* submitted = std::get_if<Submitted>(&reply);
  ASSERT_NE(submitted, nullptr);
  ASSERT_EQ(submitted->tickets.size(), 1u);
  const ServerMessage status = connection.call(
      ClientMessage(PollStatus{submitted->tickets[0].ticket, true}));
  const auto* terminal = std::get_if<StatusReply>(&status);
  ASSERT_NE(terminal, nullptr);
  EXPECT_EQ(terminal->state, JobState::kFailed);
  EXPECT_EQ(terminal->attempts, 0u);
  EXPECT_NE(terminal->error.find("bytes exceeds the 16777216-byte RPC frame "
                                 "cap"),
            std::string::npos)
      << terminal->error;

  // One replay on the first worker: no death, no respawn.
  const std::string stats = fetch_stats(connection);
  EXPECT_NE(stats.find("\"deaths\":0"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"spawned\":1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"jobs_failed\":1"), std::string::npos) << stats;
  EXPECT_EQ(service.shutdown(), kExitOk);
}

TEST(Service, OversizeStoredReportIsAnErrorReply) {
  // A report object over the frame cap in a shared store (written by
  // another controller, say) must come back as an Error reply; a frame
  // over the cap would make the client drop the connection as poisoned.
  const std::string dir = fresh_dir("oversize_store");
  const pipeline::Fingerprint ticket = fp(21, 22);
  store::ScenarioStore(dir + "/cache")
      .save_report(ticket, std::string(kMaxFrameBytes, 'x'));

  ControllerOptions options = thread_mode_options(dir);
  options.cache_dir = dir + "/cache";
  TestService service(options);
  ClientConnection connection = service.connect();
  const ServerMessage reply =
      connection.call(ClientMessage(FetchReport{ticket}));
  const auto* error = std::get_if<ErrorReply>(&reply);
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->code, RpcErrorCode::kFailed);
  EXPECT_NE(error->message.find("exceeds the 16777216-byte RPC frame cap"),
            std::string::npos)
      << error->message;
  EXPECT_EQ(service.shutdown(), kExitOk);
}

TEST(Service, OutOfRangeValuesAreBadRequestsWithoutWorkerDeaths) {
  const std::string dir = fresh_dir("ranges");
  const std::string trace_path = write_ring_trace(dir, 2, 1);

  // Forked workers: a value that reached the network model unchecked
  // would abort a worker (three times, then fail the job) instead of
  // being refused at submit.
  ControllerOptions options;
  options.socket_path = dir + "/osim.sock";
  options.workers = 1;
  options.fork_workers = true;
  options.serve_binary = OSIM_SERVE_BIN;
  TestService service(options);
  ClientConnection connection = service.connect();

  std::vector<ScenarioSpec> bad;
  bad.push_back(sample_spec(trace_path, 0.0));
  bad.push_back(sample_spec(trace_path, -3.0));
  bad.push_back(
      sample_spec(trace_path, std::numeric_limits<double>::quiet_NaN()));
  bad.push_back(
      sample_spec(trace_path, std::numeric_limits<double>::infinity()));
  bad.push_back(sample_spec(trace_path, 250.0));
  bad.back().ports = 0;
  bad.push_back(sample_spec(trace_path, 250.0));
  bad.back().buses = -3;
  bad.push_back(sample_spec(trace_path, 250.0));
  bad.back().latency = -4.0;
  bad.push_back(sample_spec(trace_path, 250.0));
  bad.back().eager = -1;
  bad.push_back(sample_spec(trace_path, 250.0));
  bad.back().ports = std::int64_t{1} << 40;  // does not fit the platform
  for (const ScenarioSpec& spec : bad) {
    const ServerMessage reply =
        connection.call(ClientMessage(SubmitScenario{spec}));
    const auto* error = std::get_if<ErrorReply>(&reply);
    ASSERT_NE(error, nullptr);
    EXPECT_EQ(error->code, RpcErrorCode::kBadRequest) << error->message;
  }
  // A study is checked per bandwidth, and refused as a whole.
  SubmitStudy study;
  study.base = sample_spec(trace_path, 250.0);
  study.bandwidths = {250.0, 0.0};
  const ServerMessage reply = connection.call(ClientMessage(study));
  const auto* error = std::get_if<ErrorReply>(&reply);
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->code, RpcErrorCode::kBadRequest);

  // Nothing reached a worker: no deaths, and the service still replays.
  EXPECT_FALSE(submit_and_fetch(connection, sample_spec(trace_path, 250.0))
                   .empty());
  const std::string stats = fetch_stats(connection);
  EXPECT_NE(stats.find("\"deaths\":0"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"replays_completed\":1"), std::string::npos)
      << stats;
  EXPECT_NE(stats.find("\"bad_requests\":10"), std::string::npos) << stats;
  EXPECT_EQ(service.shutdown(), kExitOk);
}

#endif  // OSIM_SERVE_BIN

#endif  // __unix__ || __APPLE__

}  // namespace
}  // namespace osim::serve
