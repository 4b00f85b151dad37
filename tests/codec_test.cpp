// Format goldens: the encoded bytes of every on-disk and on-wire record
// kind the repository writes through its binary codec, pinned by length
// and CRC-32, plus the fingerprints of fixed inputs. The round-trip tests
// elsewhere keep passing when an encoder and its decoder drift together;
// these do not. A failure here is a format change: if it is deliberate,
// bump that format's version and update the constant with it.
//
// Covered: the three store object kinds (OSIMSTO1, OSIMLNT1, OSIMRPT1),
// the store index (OSIMIDX1) after a fold and its access log (OSIMLOG1)
// after a fixed access sequence, a study journal (OSIMJRN1) with entries
// and the complete marker, the OSIMRPC1 handshake with every client and
// server message and the controller<->worker job frames, and the
// lint/report/study fingerprints.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/crc32.hpp"
#include "lint/lint.hpp"
#include "pipeline/context.hpp"
#include "pipeline/fingerprint.hpp"
#include "pipeline/lint_cache.hpp"
#include "serve/job.hpp"
#include "serve/protocol.hpp"
#include "store/format.hpp"
#include "store/store.hpp"
#include "supervise/journal.hpp"
#include "trace/trace.hpp"

namespace osim {
namespace {

namespace fs = std::filesystem;

/// "<length>:<crc32 hex>" of `bytes`.
std::string digest(std::string_view bytes) {
  Crc32 crc;
  crc.update(bytes.data(), bytes.size());
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%zu:%08x", bytes.size(), crc.value());
  return buf;
}

std::string hex(std::string_view bytes) {
  std::string out;
  char buf[3];
  for (const char c : bytes) {
    std::snprintf(buf, sizeof(buf), "%02x", static_cast<unsigned char>(c));
    out += buf;
  }
  return out;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/osim_codec_" + name;
  fs::remove_all(dir);
  return dir;
}

pipeline::Fingerprint fp(std::uint64_t lo, std::uint64_t hi) {
  return pipeline::Fingerprint{lo, hi};
}

faults::Counts sample_counts() {
  faults::Counts c;
  c.enabled = true;
  c.seed = 7;
  c.messages_dropped = 3;
  c.retransmits = 2;
  c.handshake_reissues = 1;
  c.hard_stalls = 4;
  c.degraded_transfers = 5;
  c.perturbed_bursts = 6;
  c.straggled_bursts = 8;
  c.injected_delay_s = 0.125;
  c.injected_compute_s = 0.0625;
  return c;
}

store::ScenarioArtifact sample_artifact() {
  store::ScenarioArtifact a;
  a.makespan = 1.5;
  a.des_events = 4242;
  a.fault_wait_s = 0.25;
  a.progress_wait_s = 0.375;
  a.fault_counts = sample_counts();
  for (int r = 0; r < 2; ++r) {
    dimemas::RankStats s;
    s.compute_s = 0.5 + r;
    s.send_blocked_s = 0.25 * r;
    s.recv_blocked_s = 0.125;
    s.wait_blocked_s = 0.0625 * r;
    s.finish_time = 1.5;
    s.messages_sent = 10u + static_cast<std::uint64_t>(r);
    s.messages_received = 11;
    s.bytes_sent = 1024;
    s.bytes_received = 2048u * static_cast<std::uint64_t>(r + 1);
    a.rank_stats.push_back(s);
  }
  return a;
}

lint::Report sample_lint_report() {
  lint::Report report;
  report.error("match", 0, 3, "unmatched send");
  report.warning("requests", 1, -1, "request never waited");
  lint::Diagnostic d;
  d.severity = lint::Severity::kInfo;
  d.pass = "overlap";
  d.code = "zero-window";
  d.rank = -1;
  d.record = 17;
  d.message = "no computation between post and wait";
  d.evidence = "clock[0]=3";
  report.add(d);
  return report;
}

constexpr std::string_view kReportJson = "{\"schema\":\"osim.replay\",\"x\":1}";

trace::Trace sample_trace() {
  trace::Trace t = trace::Trace::make(2, 1000.0, "golden");
  trace::Send send;
  send.dest = 1;
  send.tag = 7;
  send.bytes = 64;
  trace::Recv recv;
  recv.src = 0;
  recv.tag = 7;
  recv.bytes = 64;
  t.ranks[0] = {trace::CpuBurst{100}, send};
  t.ranks[1] = {recv, trace::CpuBurst{50}};
  return t;
}

supervise::JournalEntry sample_entry(int seed) {
  supervise::JournalEntry e;
  e.fingerprint = fp(100u + static_cast<std::uint64_t>(seed), 200);
  e.status = seed == 0 ? supervise::ScenarioStatus::kOk
                       : supervise::ScenarioStatus::kTimeout;
  e.makespan = 2.5 * (seed + 1);
  e.fault_wait_s = 0.5;
  e.progress_wait_s = 0.75;
  e.partial_blocked_s = seed == 0 ? 0.0 : 1.25;
  if (seed != 0) e.fault_counts = sample_counts();
  return e;
}

// --- store objects ----------------------------------------------------------

TEST(FormatGolden, StoreObjects) {
  EXPECT_EQ(digest(store::encode_object(fp(1, 2), sample_artifact())),
            "305:e0ab737e");
  EXPECT_EQ(digest(store::encode_lint_object(fp(3, 4), sample_lint_report())),
            "306:5ce13bb3");
  EXPECT_EQ(digest(store::encode_report_object(fp(5, 6), kReportJson)),
            "70:e8be24d0");
}

TEST(FormatGolden, IndexLogAndFoldedIndex) {
  const std::string root = fresh_dir("index");
  store::ScenarioStore store(root);
  store.save(fp(1, 2), sample_artifact());
  ASSERT_TRUE(store.load(fp(1, 2)).has_value());
  store.save_lint(fp(3, 4), sample_lint_report());
  ASSERT_TRUE(store.load_lint(fp(3, 4)).has_value());
  store.save_report(fp(5, 6), kReportJson);
  ASSERT_TRUE(store.load_report(fp(5, 6)).has_value());
  ASSERT_TRUE(store.load(fp(1, 2)).has_value());
  EXPECT_FALSE(store.load(fp(9, 9)).has_value());  // a miss logs nothing

  EXPECT_EQ(digest(read_file(fs::path(root) / "index.log")),
            "248:f143d06f");
  EXPECT_FALSE(fs::exists(fs::path(root) / "index.osim"));

  store.stats();  // folds the log into the index
  EXPECT_FALSE(fs::exists(fs::path(root) / "index.log"));
  EXPECT_EQ(digest(read_file(fs::path(root) / "index.osim")),
            "152:78c6b082");
}

// --- study journal ----------------------------------------------------------

TEST(FormatGolden, StudyJournal) {
  const std::string root = fresh_dir("journal");
  const pipeline::Fingerprint study =
      supervise::study_fingerprint("golden-study");
  {
    supervise::StudyJournal journal(root, study);
    journal.append(sample_entry(0));
    journal.append(sample_entry(1));
    journal.append_complete();
  }
  EXPECT_EQ(digest(read_file(supervise::StudyJournal::path_for(root, study))),
            "319:5fd79e61");
}

// --- RPC --------------------------------------------------------------------

std::string framed(const std::string& payload) {
  std::string frame;
  serve::append_frame(frame, payload);
  return frame;
}

TEST(FormatGolden, RpcHandshake) {
  EXPECT_EQ(hex(serve::handshake_bytes()), "4f53494d5250433101000000");
}

TEST(FormatGolden, RpcClientMessages) {
  serve::ScenarioSpec spec;
  spec.trace_path = "/data/cg.trace";
  spec.bandwidth = 125.0;
  spec.latency = 4.0;
  spec.buses = 2;
  spec.ports = 1;
  spec.eager = 16384;
  spec.collectives = "linear";
  spec.fault_spec = "seed=7;loss=0.02";
  spec.progress_spec = "thread";
  serve::SubmitStudy study;
  study.base = spec;
  study.bandwidths = {125.0, 250.0, 500.0};
  const std::vector<serve::ClientMessage> messages = {
      serve::ClientMessage(serve::SubmitScenario{spec}),
      serve::ClientMessage(study),
      serve::ClientMessage(serve::PollStatus{fp(1, 2), true}),
      serve::ClientMessage(serve::FetchReport{fp(3, 4)}),
      serve::ClientMessage(serve::Cancel{fp(5, 6)}),
      serve::ClientMessage(serve::ServerStats{}),
      serve::ClientMessage(serve::Shutdown{}),
  };
  const std::vector<std::string> expected = {
      "103:f8420a3d", "131:fae76940", "22:71485b51", "21:bc8c3852",
      "21:7ae5dff5",  "5:12217b98",   "5:65264b0e",
  };
  ASSERT_EQ(messages.size(), expected.size());
  for (std::size_t i = 0; i < messages.size(); ++i) {
    EXPECT_EQ(digest(framed(serve::encode_client_message(messages[i]))),
              expected[i])
        << "client message " << i;
  }
}

TEST(FormatGolden, RpcServerMessages) {
  serve::Submitted submitted;
  submitted.tickets = {{fp(1, 2), serve::SubmitDisposition::kFresh},
                       {fp(3, 4), serve::SubmitDisposition::kShared},
                       {fp(5, 6), serve::SubmitDisposition::kServed}};
  const std::vector<serve::ServerMessage> messages = {
      serve::ServerMessage(submitted),
      serve::ServerMessage(serve::StatusReply{
          fp(7, 8), serve::JobState::kFailed, 2, "boom"}),
      serve::ServerMessage(serve::ReportReply{fp(9, 10), "{\"schema\":\"x\"}"}),
      serve::ServerMessage(serve::StatsReply{"{\"clients\":3}"}),
      serve::ServerMessage(serve::OkReply{}),
      serve::ServerMessage(
          serve::ErrorReply{serve::RpcErrorCode::kBusy, "queue full"}),
  };
  const std::vector<std::string> expected = {
      "60:236530ba", "34:754a6fc4", "39:aff98aed",
      "22:a27abaa4", "5:8af35b24",  "20:1ca2f370",
  };
  ASSERT_EQ(messages.size(), expected.size());
  for (std::size_t i = 0; i < messages.size(); ++i) {
    EXPECT_EQ(digest(framed(serve::encode_server_message(messages[i]))),
              expected[i])
        << "server message " << i;
  }
}

TEST(FormatGolden, JobFrames) {
  serve::JobRequest request;
  request.ticket = fp(11, 12);
  request.spec.trace_path = "/data/cg.trace";
  request.spec.bandwidth = 250.0;
  request.spec.fault_spec = "seed=3;loss=0.01";
  EXPECT_EQ(digest(framed(serve::encode_job_request(request))),
            "119:5878a378");

  serve::JobResult done;
  done.ticket = fp(11, 12);
  done.ok = true;
  done.report_json = std::string(kReportJson);
  EXPECT_EQ(digest(framed(serve::encode_job_result(done))),
            "59:2aba30cd");

  serve::JobResult failed;
  failed.ticket = fp(13, 14);
  failed.error = "trace unreadable";
  EXPECT_EQ(digest(framed(serve::encode_job_result(failed))),
            "45:4a9aaed9");
}

// --- fingerprints -----------------------------------------------------------

TEST(FingerprintGolden, FixedInputs) {
  const trace::Trace t = sample_trace();
  EXPECT_EQ(pipeline::to_hex(pipeline::fingerprint_of(t)),
            "a2d7505d503e4654a68ba0fa2c8474a1");
  EXPECT_EQ(
      pipeline::to_hex(pipeline::lint_fingerprint(t, lint::LintOptions{})),
      "ed21d37bad9f27f5ee03f6f8ed554540");
  EXPECT_EQ(pipeline::to_hex(store::report_address(fp(5, 6))),
            "ab428ad720c74a72a07546d120868f73");
  EXPECT_EQ(pipeline::to_hex(supervise::study_fingerprint("golden-study")),
            "f0ad1294205e80c9c0c61291ec0f2808");
  EXPECT_EQ(pipeline::to_hex(supervise::study_fingerprint("")),
            "6c3f74d2e7f61264a8c7f832281a39c5");
}

}  // namespace
}  // namespace osim
