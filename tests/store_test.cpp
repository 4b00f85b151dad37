// Tests for the persistent scenario store (src/store): object format
// strictness, store round trips, damage handling, maintenance (stats /
// verify / gc), and — the acceptance property — a warm Study run served
// entirely from the disk tier with bit-identical makespans.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/crc32.hpp"
#include "pipeline/context.hpp"
#include "pipeline/fingerprint.hpp"
#include "pipeline/report.hpp"
#include "pipeline/study.hpp"
#include "store/format.hpp"
#include "store/store.hpp"
#include "trace/trace.hpp"

namespace osim::store {
namespace {

namespace fs = std::filesystem;

// Fresh per-test store root under gtest's temp dir.
std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/osim_store_" + name;
  fs::remove_all(dir);
  return dir;
}

pipeline::Fingerprint fp(std::uint64_t lo, std::uint64_t hi) {
  return pipeline::Fingerprint{lo, hi};
}

ScenarioArtifact sample_artifact(int seed) {
  ScenarioArtifact a;
  a.makespan = 1.25 + 0.125 * seed;
  a.des_events = 1000 + static_cast<std::uint64_t>(seed);
  a.fault_wait_s = seed % 2 == 0 ? 0.0 : 0.03125 * seed;
  a.fault_counts.enabled = seed % 2 != 0;
  a.fault_counts.seed = static_cast<std::uint64_t>(seed);
  a.fault_counts.retransmits = static_cast<std::uint64_t>(2 * seed);
  for (int r = 0; r < 3; ++r) {
    dimemas::RankStats rs;
    rs.compute_s = 0.5 * r + seed;
    rs.send_blocked_s = 0.25 * r;
    rs.recv_blocked_s = 0.125 * r;
    rs.finish_time = 1.0 + r;
    rs.messages_sent = static_cast<std::uint64_t>(10 * r + seed);
    rs.bytes_sent = static_cast<std::uint64_t>(1024 * r);
    rs.bytes_received = static_cast<std::uint64_t>(2048 * r);
    a.rank_stats.push_back(rs);
  }
  return a;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Recomputes the trailing CRC-32 (over everything after the 8-byte magic)
// so tests can prove a check fires on its own, not via the CRC.
std::string with_recomputed_crc(std::string bytes) {
  Crc32 crc;
  crc.update(bytes.data() + 8, bytes.size() - 12);
  const std::uint32_t v = crc.value();
  for (int i = 0; i < 4; ++i) {
    bytes[bytes.size() - 4 + static_cast<std::size_t>(i)] =
        static_cast<char>((v >> (8 * i)) & 0xFF);
  }
  return bytes;
}

// Ring exchange (as in pipeline_test.cpp): communication-bound enough that
// bandwidth changes move the makespan, so sweeps produce distinct keys.
trace::Trace ring_trace(std::int32_t ranks, int rounds) {
  trace::TraceBuilder b(ranks, 1000.0);
  for (trace::Rank r = 0; r < ranks; ++r) {
    const trace::Rank next = static_cast<trace::Rank>((r + 1) % ranks);
    const trace::Rank prev =
        static_cast<trace::Rank>((r + ranks - 1) % ranks);
    for (int i = 0; i < rounds; ++i) {
      b.irecv(r, prev, i, 32 * 1024, i + 1);
      b.compute(r, 20'000);
      b.send(r, next, i, 32 * 1024);
      b.wait(r, {i + 1});
    }
  }
  return std::move(b).build();
}

dimemas::Platform ring_platform(std::int32_t nodes) {
  dimemas::Platform p;
  p.num_nodes = nodes;
  p.bandwidth_MBps = 250.0;
  p.latency_us = 4.0;
  return p;
}

// --- fingerprint hex --------------------------------------------------------

TEST(FingerprintHex, RoundTrip) {
  const pipeline::Fingerprint f = fp(0x0123456789abcdefULL, 0xfedcba9876543210ULL);
  const std::string hex = pipeline::to_hex(f);
  EXPECT_EQ(hex.size(), 32u);
  EXPECT_EQ(hex, "fedcba98765432100123456789abcdef");
  const auto parsed = pipeline::fingerprint_from_hex(hex);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, f);
}

TEST(FingerprintHex, RejectsMalformed) {
  EXPECT_FALSE(pipeline::fingerprint_from_hex("").has_value());
  EXPECT_FALSE(pipeline::fingerprint_from_hex("abc").has_value());
  EXPECT_FALSE(pipeline::fingerprint_from_hex(std::string(31, 'a')));
  EXPECT_FALSE(pipeline::fingerprint_from_hex(std::string(33, 'a')));
  std::string bad(32, 'a');
  bad[7] = 'g';
  EXPECT_FALSE(pipeline::fingerprint_from_hex(bad).has_value());
}

// --- object format ----------------------------------------------------------

TEST(StoreFormat, EncodeDecodeRoundTrip) {
  const ScenarioArtifact artifact = sample_artifact(3);
  const pipeline::Fingerprint key = fp(11, 22);
  const std::string bytes = encode_object(key, artifact);
  const auto decoded = decode_object(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->fingerprint, key);
  EXPECT_EQ(decoded->artifact, artifact);
}

TEST(StoreFormat, RejectsWrongMagic) {
  std::string bytes = encode_object(fp(1, 2), sample_artifact(0));
  bytes[0] = 'X';
  EXPECT_FALSE(decode_object(bytes).has_value());
}

TEST(StoreFormat, RejectsVersionSkewIndependentlyOfCrc) {
  std::string bytes = encode_object(fp(1, 2), sample_artifact(0));
  bytes[8] = static_cast<char>(kObjectVersion + 1);  // version u32, LE
  // Recompute the CRC so only the version check can reject it.
  bytes = with_recomputed_crc(std::move(bytes));
  EXPECT_FALSE(decode_object(bytes).has_value());
}

TEST(StoreFormat, RejectsCorruptPayload) {
  const std::string good = encode_object(fp(1, 2), sample_artifact(5));
  for (const std::size_t offset : {std::size_t{9}, good.size() / 2,
                                   good.size() - 5}) {
    std::string bad = good;
    bad[offset] = static_cast<char>(bad[offset] ^ 0x10);
    EXPECT_FALSE(decode_object(bad).has_value()) << "offset " << offset;
  }
}

TEST(StoreFormat, RejectsTruncationAndTrailingBytes) {
  const std::string good = encode_object(fp(7, 8), sample_artifact(1));
  for (std::size_t n = 0; n < good.size(); ++n) {
    EXPECT_FALSE(decode_object(good.substr(0, n)).has_value())
        << "prefix " << n;
  }
  EXPECT_FALSE(decode_object(good + '\0').has_value());
}

// --- report objects (OSIMRPT1, the osim_serve durable tier) ----------------

TEST(ReportObject, EncodeDecodeRoundTrip) {
  const pipeline::Fingerprint scenario = fp(33, 44);
  const pipeline::Fingerprint addr = report_address(scenario);
  const std::string json = "{\"schema\":\"osim.run_report\",\"makespan\":1.5}";
  const std::string bytes = encode_report_object(addr, json);
  const auto decoded = decode_report_object(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->fingerprint, addr);
  EXPECT_EQ(decoded->report_json, json);
}

TEST(ReportObject, AddressNeverCollidesWithScenario) {
  // The report object shares the store's object tree with the replay
  // artifact of the same scenario; the domain-tagged derivation must give
  // it a different address or one kind would overwrite the other.
  const pipeline::Fingerprint scenario = fp(5, 6);
  EXPECT_FALSE(report_address(scenario) == scenario);
  // And the derivation is deterministic.
  EXPECT_EQ(report_address(scenario), report_address(scenario));
  EXPECT_FALSE(report_address(fp(5, 7)) == report_address(scenario));
}

TEST(ReportObject, AnyDamageIsAMiss) {
  const pipeline::Fingerprint addr = report_address(fp(1, 2));
  const std::string good = encode_report_object(addr, "{\"k\":1}");
  for (std::size_t offset = 0; offset < good.size(); ++offset) {
    std::string bad = good;
    bad[offset] = static_cast<char>(bad[offset] ^ 0x01);
    EXPECT_FALSE(decode_report_object(bad).has_value()) << "offset " << offset;
  }
  for (std::size_t n = 0; n < good.size(); ++n) {
    EXPECT_FALSE(decode_report_object(good.substr(0, n)).has_value())
        << "prefix " << n;
  }
  EXPECT_FALSE(decode_report_object(good + '\0').has_value());
}

TEST(ReportObject, StoreRoundTripAndProbe) {
  const std::string dir = fresh_dir("report_objects");
  ScenarioStore store(dir);
  const pipeline::Fingerprint scenario = fp(100, 200);
  const std::string json = "{\"schema\":\"osim.run_report\",\"app\":\"cg\"}";
  EXPECT_FALSE(store.load_report(scenario).has_value());
  store.save_report(scenario, json);
  const std::optional<std::string> loaded = store.load_report(scenario);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, json);
  // A replay artifact under the same scenario key coexists: different
  // addresses, one store.
  store.save(scenario, sample_artifact(2));
  EXPECT_TRUE(store.load(scenario).has_value());
  EXPECT_TRUE(store.load_report(scenario).has_value());
  // verify() understands the new kind (probe_object dispatch).
  EXPECT_TRUE(store.verify().clean());
}

TEST(ReportObject, CorruptReportObjectIsAMissAndGcRemovesIt) {
  const std::string dir = fresh_dir("report_corrupt");
  ScenarioStore store(dir);
  const pipeline::Fingerprint scenario = fp(9, 9);
  store.save_report(scenario, "{\"x\":true}");
  const std::string path = store.object_path(report_address(scenario));
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    bytes = std::move(buffer).str();
  }
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_FALSE(store.load_report(scenario).has_value());
  EXPECT_GE(store.rejects(), 1u);
  EXPECT_FALSE(store.verify().clean());
  store.gc(1 << 20);
  EXPECT_TRUE(store.verify().clean());
}

// --- ScenarioStore ----------------------------------------------------------

TEST(ScenarioStore, SaveLoadRoundTripAndMiss) {
  ScenarioStore store(fresh_dir("roundtrip"));
  const pipeline::Fingerprint key = fp(100, 200);
  EXPECT_FALSE(store.load(key).has_value());
  EXPECT_EQ(store.misses(), 1u);

  const ScenarioArtifact artifact = sample_artifact(4);
  store.save(key, artifact);
  const auto loaded = store.load(key);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, artifact);
  EXPECT_EQ(store.hits(), 1u);
  EXPECT_TRUE(fs::exists(store.object_path(key)));
}

TEST(ScenarioStore, CorruptObjectIsAMissNeverACrash) {
  ScenarioStore store(fresh_dir("corrupt"));
  const pipeline::Fingerprint key = fp(1, 2);
  store.save(key, sample_artifact(2));

  std::string bytes = read_file(store.object_path(key));
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x01);
  write_file(store.object_path(key), bytes);

  EXPECT_FALSE(store.load(key).has_value());
  EXPECT_EQ(store.rejects(), 1u);
  EXPECT_EQ(store.misses(), 1u);
}

TEST(ScenarioStore, CrossCopiedObjectIsAMiss) {
  // An intact object renamed to a different address must not be served:
  // the embedded fingerprint catches what a file CRC cannot.
  ScenarioStore store(fresh_dir("crosscopy"));
  const pipeline::Fingerprint a = fp(1, 2);
  const pipeline::Fingerprint b = fp(3, 4);
  store.save(a, sample_artifact(6));
  fs::create_directories(fs::path(store.object_path(b)).parent_path());
  fs::copy_file(store.object_path(a), store.object_path(b));
  EXPECT_FALSE(store.load(b).has_value());
  EXPECT_EQ(store.rejects(), 1u);
}

TEST(ScenarioStore, StatsCountObjectsAndBytes) {
  ScenarioStore store(fresh_dir("stats"));
  std::uint64_t expected_bytes = 0;
  for (int i = 0; i < 3; ++i) {
    store.save(fp(static_cast<std::uint64_t>(i), 9), sample_artifact(i));
    expected_bytes +=
        fs::file_size(store.object_path(fp(static_cast<std::uint64_t>(i), 9)));
  }
  const StoreStats stats = store.stats();
  EXPECT_EQ(stats.objects, 3u);
  EXPECT_EQ(stats.bytes, expected_bytes);
  EXPECT_FALSE(stats.index_rebuilt);
}

TEST(ScenarioStore, VerifyReportsDamage) {
  ScenarioStore store(fresh_dir("verify"));
  store.save(fp(1, 1), sample_artifact(1));
  store.save(fp(2, 2), sample_artifact(2));
  EXPECT_TRUE(store.verify().clean());

  std::string bytes = read_file(store.object_path(fp(2, 2)));
  bytes[bytes.size() - 1] = static_cast<char>(bytes[bytes.size() - 1] ^ 0xFF);
  write_file(store.object_path(fp(2, 2)), bytes);

  const VerifyReport report = store.verify();
  EXPECT_EQ(report.objects_checked, 2u);
  EXPECT_EQ(report.objects_ok, 1u);
  ASSERT_EQ(report.issues.size(), 1u);
  EXPECT_NE(report.render_text().find(report.issues[0].message),
            std::string::npos);
}

TEST(ScenarioStore, GcEvictsLeastRecentlyUsedFirst) {
  ScenarioStore store(fresh_dir("gc_lru"));
  const pipeline::Fingerprint cold = fp(1, 0);
  const pipeline::Fingerprint warm = fp(2, 0);
  const pipeline::Fingerprint hot = fp(3, 0);
  for (const auto& key : {cold, warm, hot}) {
    store.save(key, sample_artifact(static_cast<int>(key.lo)));
  }
  // Recency order (oldest first): cold, warm, hot.
  ASSERT_TRUE(store.load(warm).has_value());
  ASSERT_TRUE(store.load(hot).has_value());

  const std::uint64_t object_bytes = fs::file_size(store.object_path(cold));
  const GcReport report = store.gc(2 * object_bytes + 1);
  EXPECT_EQ(report.objects_before, 3u);
  EXPECT_EQ(report.objects_removed, 1u);
  EXPECT_EQ(report.objects_kept, 2u);
  EXPECT_FALSE(fs::exists(store.object_path(cold)));
  EXPECT_TRUE(fs::exists(store.object_path(warm)));
  EXPECT_TRUE(fs::exists(store.object_path(hot)));

  // max_bytes == 0 empties the store.
  const GcReport empty = store.gc(0);
  EXPECT_EQ(empty.objects_kept, 0u);
  EXPECT_EQ(store.stats().objects, 0u);
}

TEST(ScenarioStore, GcRemovesCorruptObjectsUnconditionally) {
  ScenarioStore store(fresh_dir("gc_corrupt"));
  store.save(fp(1, 1), sample_artifact(1));
  store.save(fp(2, 2), sample_artifact(2));
  write_file(store.object_path(fp(1, 1)), "garbage");

  const GcReport report = store.gc(1u << 30);  // budget fits everything
  EXPECT_EQ(report.objects_removed, 1u);
  EXPECT_FALSE(fs::exists(store.object_path(fp(1, 1))));
  EXPECT_TRUE(fs::exists(store.object_path(fp(2, 2))));
  EXPECT_TRUE(store.verify().clean());
}

TEST(ScenarioStore, DamagedIndexIsRebuiltFromObjects) {
  const std::string dir = fresh_dir("index_rebuild");
  {
    ScenarioStore store(dir);
    store.save(fp(5, 6), sample_artifact(3));
    store.stats();  // persist an index
  }
  write_file(dir + "/index.osim", "not an index");
  ScenarioStore store(dir);
  const StoreStats stats = store.stats();
  EXPECT_TRUE(stats.index_rebuilt);
  EXPECT_EQ(stats.objects, 1u);
  EXPECT_TRUE(store.load(fp(5, 6)).has_value());  // objects are unaffected
}

TEST(ScenarioStore, StaleTmpFilesAreSweptOnOpen) {
  const std::string dir = fresh_dir("tmp_sweep");
  { ScenarioStore store(dir); }  // create the tree
  const std::string stale = dir + "/tmp/tmp.12345.0";
  const std::string young = dir + "/tmp/tmp.12345.1";
  write_file(stale, "orphan of a crashed publication");
  write_file(young, "a live writer mid-rename");
  // Backdate one file past the sweep horizon; the other stays young.
  fs::last_write_time(stale, fs::file_time_type::clock::now() -
                                 std::chrono::hours(24));

  // A fresh open sweeps the stale orphan but leaves the young file for
  // its (possibly live) writer.
  ScenarioStore store(dir);
  EXPECT_FALSE(fs::exists(stale));
  EXPECT_TRUE(fs::exists(young));

  // The explicit entry point with a zero horizon clears the rest.
  EXPECT_EQ(ScenarioStore::sweep_stale_tmp(dir, std::chrono::seconds(0)), 1u);
  EXPECT_FALSE(fs::exists(young));

  // Sweeping a store with no tmp directory at all is a quiet no-op.
  fs::remove_all(dir + "/tmp");
  EXPECT_EQ(ScenarioStore::sweep_stale_tmp(dir, std::chrono::seconds(0)), 0u);
}

TEST(ScenarioStore, UnindexedObjectsAreAdopted) {
  // A store whose index vanished (or never existed) still counts and
  // serves its objects: the index is metadata, not a table of contents.
  const std::string dir = fresh_dir("adopt");
  {
    ScenarioStore store(dir);
    store.save(fp(7, 7), sample_artifact(1));
    store.stats();
  }
  fs::remove(dir + "/index.osim");
  ScenarioStore store(dir);
  EXPECT_EQ(store.stats().objects, 1u);
  EXPECT_TRUE(store.load(fp(7, 7)).has_value());
}

// --- index log --------------------------------------------------------------

std::uint64_t file_size_or_zero(const std::string& path) {
  std::error_code ec;
  const std::uint64_t size = fs::file_size(path, ec);
  return ec ? 0 : size;
}

TEST(IndexLog, AccessesAppendOneRecordAndNeverRewriteTheIndex) {
  const std::string dir = fresh_dir("log_append");
  ScenarioStore store(dir);
  store.save(fp(100, 1), sample_artifact(1));
  store.stats();  // fold: the index exists, the log does not
  const std::string index = read_file(dir + "/index.osim");
  ASSERT_FALSE(index.empty());
  ASSERT_FALSE(fs::exists(dir + "/index.log"));

  // Ten saves and ten load hits, interleaved. Each appends exactly one
  // record; none reads the index body, walks the tree or rewrites the
  // index.
  for (int i = 0; i < 20; ++i) {
    const pipeline::Fingerprint key = fp(static_cast<std::uint64_t>(i / 2), 2);
    if (i % 2 == 0) {
      store.save(key, sample_artifact(i));
    } else {
      ASSERT_TRUE(store.load(key).has_value());
    }
    EXPECT_EQ(file_size_or_zero(dir + "/index.log"),
              kIndexLogHeaderBytes +
                  static_cast<std::uint64_t>(i + 1) * kIndexLogRecordBytes)
        << "access " << i;
    EXPECT_EQ(read_file(dir + "/index.osim"), index) << "access " << i;
  }
  EXPECT_FALSE(store.load(fp(99, 99)).has_value());  // a miss logs nothing
  EXPECT_EQ(file_size_or_zero(dir + "/index.log"),
            kIndexLogHeaderBytes + 20 * kIndexLogRecordBytes);

  const StoreStats stats = store.stats();
  EXPECT_EQ(stats.objects, 11u);
  EXPECT_EQ(stats.clock, 21u);
  EXPECT_EQ(stats.total_hits, 10u);
  EXPECT_FALSE(fs::exists(dir + "/index.log"));
}

TEST(IndexLog, AnAccessFoldsOnceTheLogReachesTheFloor) {
  const std::string dir = fresh_dir("log_fold");
  ScenarioStore store(dir);
  store.save(fp(1, 1), sample_artifact(1));
  for (std::uint64_t i = 1; i + 1 < kIndexLogFoldFloor; ++i) {
    ASSERT_TRUE(store.load(fp(1, 1)).has_value());
  }
  EXPECT_EQ(file_size_or_zero(dir + "/index.log"),
            kIndexLogHeaderBytes +
                (kIndexLogFoldFloor - 1) * kIndexLogRecordBytes);
  EXPECT_FALSE(fs::exists(dir + "/index.osim"));

  ASSERT_TRUE(store.load(fp(1, 1)).has_value());  // access number `floor`
  EXPECT_FALSE(fs::exists(dir + "/index.log"));
  EXPECT_TRUE(fs::exists(dir + "/index.osim"));
  const StoreStats stats = store.stats();
  EXPECT_EQ(stats.clock, kIndexLogFoldFloor);
  EXPECT_EQ(stats.total_hits, kIndexLogFoldFloor - 1);
  EXPECT_EQ(stats.objects, 1u);
}

TEST(IndexLog, StaleLogChangesNothing) {
  const std::string dir = fresh_dir("log_stale");
  ScenarioStore store(dir);
  store.save(fp(1, 1), sample_artifact(1));
  store.save(fp(2, 2), sample_artifact(2));
  ASSERT_TRUE(store.load(fp(1, 1)).has_value());
  const std::string live_log = read_file(dir + "/index.log");
  const StoreStats before = store.stats();
  ASSERT_EQ(before.clock, 3u);
  const std::string index = read_file(dir + "/index.osim");

  // The same three valid records behind a header for another base clock.
  std::string header = "OSIMLOG1";
  auto put = [&header](std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      header.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    }
  };
  put(1, 4);                 // version
  put(before.clock - 1, 8);  // base: not the index clock
  Crc32 crc;
  crc.update(header.data() + 8, 12);
  put(crc.value(), 4);
  ASSERT_EQ(header.size(), kIndexLogHeaderBytes);
  write_file(dir + "/index.log", header + live_log.substr(header.size()));

  EXPECT_TRUE(store.verify().clean());  // stale is not damage
  const StoreStats after = store.stats();
  EXPECT_EQ(after.clock, before.clock);
  EXPECT_EQ(after.total_hits, before.total_hits);
  EXPECT_EQ(after.objects, before.objects);
  EXPECT_EQ(read_file(dir + "/index.osim"), index);
  EXPECT_FALSE(fs::exists(dir + "/index.log"));
}

TEST(IndexLog, TornTailLosesOnlyItsRecord) {
  const std::string dir = fresh_dir("log_torn");
  ScenarioStore store(dir);
  store.save(fp(1, 1), sample_artifact(1));
  store.stats();  // clock 1
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(store.load(fp(1, 1)).has_value());
  const std::string log_path = dir + "/index.log";
  fs::resize_file(log_path, file_size_or_zero(log_path) - 10);

  const VerifyReport report = store.verify();
  ASSERT_EQ(report.issues.size(), 1u);
  EXPECT_EQ(report.issues[0].path, "index.log");

  // The next access drops the torn tail before appending its own record.
  ASSERT_TRUE(store.load(fp(1, 1)).has_value());
  EXPECT_EQ(file_size_or_zero(log_path),
            kIndexLogHeaderBytes + 3 * kIndexLogRecordBytes);
  EXPECT_TRUE(store.verify().clean());
  const StoreStats stats = store.stats();
  EXPECT_EQ(stats.clock, 1u + 2u + 1u);
  EXPECT_EQ(stats.total_hits, 3u);
}

// Crash points inherited through the environment, as in serve_test.cpp;
// the crash itself happens in a forked child.
struct CrashPointGuard {
  explicit CrashPointGuard(const char* value) {
    ::setenv("OSIM_CRASH_POINT", value, 1);
  }
  ~CrashPointGuard() { ::unsetenv("OSIM_CRASH_POINT"); }
};

// Runs `work` in a forked child and expects the child to die by SIGKILL.
template <typename Work>
void expect_killed_in_child(const char* crash_point, Work work) {
  const CrashPointGuard crash(crash_point);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    work();
    ::_exit(0);  // the crash point did not fire
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status)) << "child exited " << WEXITSTATUS(status);
  EXPECT_EQ(WTERMSIG(status), SIGKILL);
}

TEST(IndexLog, CrashBetweenFoldRenameAndLogRemovalAppliesNothingTwice) {
  const std::string dir = fresh_dir("crash_fold");
  expect_killed_in_child("store.index.folded", [&dir] {
    ScenarioStore store(dir);
    for (std::uint64_t i = 1; i <= 3; ++i) {
      store.save(fp(i, i), sample_artifact(static_cast<int>(i)));
    }
    for (std::uint64_t i = 0; i < 4; ++i) store.load(fp(1 + i % 3, 1 + i % 3));
    store.stats();  // dies after the index rename
  });
  ASSERT_TRUE(fs::exists(dir + "/index.log"));  // left behind, now stale

  ScenarioStore store(dir);
  StoreStats stats = store.stats();
  EXPECT_EQ(stats.objects, 3u);
  EXPECT_EQ(stats.clock, 7u);
  EXPECT_EQ(stats.total_hits, 4u);
  for (std::uint64_t i = 1; i <= 3; ++i) {
    EXPECT_TRUE(store.load(fp(i, i)).has_value());
  }
  stats = store.stats();
  EXPECT_EQ(stats.clock, 10u);
  EXPECT_EQ(stats.total_hits, 7u);
}

TEST(IndexLog, TornAppendLosesOnlyTheTornRecord) {
  const std::string dir = fresh_dir("crash_torn");
  expect_killed_in_child("store.log.append.torn:5", [&dir] {
    ScenarioStore store(dir);
    for (std::uint64_t i = 1; i <= 3; ++i) {
      store.save(fp(i, i), sample_artifact(static_cast<int>(i)));
    }
    store.load(fp(1, 1));
    store.load(fp(2, 2));  // the fifth append: torn
  });
  EXPECT_FALSE(ScenarioStore(dir).verify().clean());  // the torn tail

  ScenarioStore store(dir);
  for (std::uint64_t i = 1; i <= 3; ++i) {
    EXPECT_TRUE(store.load(fp(i, i)).has_value());
  }
  const StoreStats stats = store.stats();
  EXPECT_EQ(stats.objects, 3u);
  EXPECT_EQ(stats.clock, 4u + 3u);
  EXPECT_EQ(stats.total_hits, 1u + 3u);
}

// --- Study integration ------------------------------------------------------

// The acceptance golden test: a cold Study populates the disk tier; a
// fresh warm Study over the same scenarios replays nothing and reproduces
// every makespan bit-identically.
TEST(StudyDiskTier, WarmRunIsAllDiskHitsAndBitIdentical) {
  const std::string dir = fresh_dir("golden");
  const trace::Trace t = ring_trace(4, 3);
  std::vector<pipeline::ReplayContext> contexts;
  const pipeline::ReplayContext base(t, ring_platform(4));
  for (const double bw : {50.0, 100.0, 250.0, 500.0, 1000.0}) {
    contexts.push_back(base.with_bandwidth(bw));
  }

  std::vector<double> cold_makespans;
  {
    pipeline::StudyOptions options;
    options.cache_dir = dir;
    options.record_scenarios = true;
    pipeline::Study cold(options);
    ASSERT_NE(cold.store(), nullptr);
    for (const auto& context : contexts) {
      cold_makespans.push_back(cold.makespan(context, "sweep"));
    }
    EXPECT_EQ(cold.cache_misses(), contexts.size());
    EXPECT_EQ(cold.disk_hits(), 0u);
    for (const auto& record : cold.scenarios()) {
      EXPECT_EQ(record.cache_tier, pipeline::CacheTier::kMiss);
    }
  }

  pipeline::StudyOptions options;
  options.cache_dir = dir;
  options.record_scenarios = true;
  pipeline::Study warm(options);
  std::vector<double> warm_makespans;
  for (const auto& context : contexts) {
    warm_makespans.push_back(warm.makespan(context, "sweep"));
  }
  EXPECT_EQ(warm.cache_misses(), 0u);
  EXPECT_EQ(warm.disk_hits(), contexts.size());
  const std::vector<pipeline::ScenarioRecord> records = warm.scenarios();
  ASSERT_EQ(records.size(), contexts.size());
  for (const auto& record : records) {
    EXPECT_EQ(record.cache_tier, pipeline::CacheTier::kDisk);
    EXPECT_TRUE(record.cache_hit);
  }
  ASSERT_EQ(warm_makespans.size(), cold_makespans.size());
  for (std::size_t i = 0; i < cold_makespans.size(); ++i) {
    EXPECT_EQ(warm_makespans[i], cold_makespans[i]) << "scenario " << i;
  }
}

TEST(StudyDiskTier, NoCacheDirMeansNoStore) {
  // Guard $OSIM_CACHE_DIR leaking into the test environment.
  unsetenv("OSIM_CACHE_DIR");
  pipeline::Study study;
  EXPECT_EQ(study.store(), nullptr);
  study.makespan(pipeline::ReplayContext(ring_trace(2, 1), ring_platform(2)));
  EXPECT_EQ(study.disk_hits(), 0u);
}

TEST(StudyDiskTier, MemoryTierIsPreferredWithinAStudy) {
  pipeline::StudyOptions options;
  options.cache_dir = fresh_dir("tiers");
  pipeline::Study study(options);
  const pipeline::ReplayContext context(ring_trace(2, 2), ring_platform(2));
  const double first = study.makespan(context);
  const double second = study.makespan(context);
  EXPECT_EQ(first, second);
  EXPECT_EQ(study.cache_hits(), 1u);   // memory tier answered the repeat
  EXPECT_EQ(study.disk_hits(), 0u);    // disk never consulted for it
}

TEST(StudyDiskTier, CorruptStoreDegradesToColdRun) {
  const std::string dir = fresh_dir("degrade");
  const pipeline::ReplayContext context(ring_trace(2, 2), ring_platform(2));
  double cold = 0.0;
  {
    pipeline::StudyOptions options;
    options.cache_dir = dir;
    pipeline::Study study(options);
    cold = study.makespan(context);
  }
  // Flip a bit in every stored object: the warm run must silently replay.
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    if (entry.path().filename() == "index.osim" ||
        entry.path().filename() == "lock") {
      continue;
    }
    std::string bytes = read_file(entry.path().string());
    bytes[bytes.size() / 3] ^= 0x40;
    write_file(entry.path().string(), bytes);
  }
  pipeline::StudyOptions options;
  options.cache_dir = dir;
  pipeline::Study study(options);
  EXPECT_EQ(study.makespan(context), cold);
  EXPECT_EQ(study.disk_hits(), 0u);
  EXPECT_EQ(study.cache_misses(), 1u);
}

TEST(StudyDiskTier, ReportCarriesTierAndSortedScenarios) {
  const std::string dir = fresh_dir("report");
  const trace::Trace t = ring_trace(2, 2);
  const pipeline::ReplayContext base(t, ring_platform(2));
  {
    pipeline::StudyOptions options;
    options.cache_dir = dir;
    pipeline::Study cold(options);
    cold.makespan(base.with_bandwidth(100.0));
    cold.makespan(base.with_bandwidth(200.0));
  }
  pipeline::StudyOptions options;
  options.cache_dir = dir;
  options.record_scenarios = true;
  pipeline::Study warm(options);
  // Evaluate in anti-alphabetical label order; the report must sort.
  warm.makespan(base.with_bandwidth(200.0), "zeta");
  warm.makespan(base.with_bandwidth(100.0), "alpha");

  const std::string json = pipeline::study_report_json(warm);
  EXPECT_NE(json.find("\"disk_hits\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"tier\":\"disk\""), std::string::npos) << json;
  const std::size_t alpha = json.find("\"alpha\"");
  const std::size_t zeta = json.find("\"zeta\"");
  ASSERT_NE(alpha, std::string::npos);
  ASSERT_NE(zeta, std::string::npos);
  EXPECT_LT(alpha, zeta);
}

}  // namespace
}  // namespace osim::store
