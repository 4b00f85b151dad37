// Unit tests for the common utilities: strings, units, rng, stats, tables,
// CSV, flags, logging, the binary codec.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <set>
#include <string>

#if defined(__unix__) || defined(__APPLE__)
#include <cerrno>
#include <csignal>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "common/codec.hpp"
#include "common/csv.hpp"
#include "common/expect.hpp"
#include "common/flags.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/signals.hpp"
#include "common/stats.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "common/units.hpp"

namespace osim {
namespace {

// --- strings ---------------------------------------------------------------

TEST(Strings, SplitKeepsEmptyFields) {
  const auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, SplitSingleToken) {
  const auto parts = split("hello", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "hello");
}

TEST(Strings, SplitWsDropsRuns) {
  const auto parts = split_ws("  a \t b\n c  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(Strings, SplitWsEmpty) { EXPECT_TRUE(split_ws("   \t\n").empty()); }

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t\n "), "");
  EXPECT_EQ(trim("no-trim"), "no-trim");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(starts_with("--flag", "--"));
  EXPECT_FALSE(starts_with("-", "--"));
  EXPECT_TRUE(starts_with("abc", ""));
}

TEST(Strings, ParseI64) {
  EXPECT_EQ(parse_i64("42"), 42);
  EXPECT_EQ(parse_i64("-17"), -17);
  EXPECT_EQ(parse_i64(" 3 "), 3);
  EXPECT_FALSE(parse_i64("3x"));
  EXPECT_FALSE(parse_i64(""));
  EXPECT_FALSE(parse_i64("1.5"));
}

TEST(Strings, ParseU64RejectsNegative) {
  EXPECT_EQ(parse_u64("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_FALSE(parse_u64("-1"));
}

TEST(Strings, ParseF64) {
  EXPECT_DOUBLE_EQ(*parse_f64("2.5e3"), 2500.0);
  EXPECT_FALSE(parse_f64("abc"));
  EXPECT_FALSE(parse_f64("1.0 trailing"));
}

TEST(Strings, Strprintf) {
  EXPECT_EQ(strprintf("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(strprintf("empty"), "empty");
}

TEST(Strings, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
}

TEST(Strings, FormatSeconds) {
  EXPECT_EQ(format_seconds(0.0), "0 s");
  EXPECT_NE(format_seconds(1.5e-6).find("us"), std::string::npos);
  EXPECT_NE(format_seconds(2.5e-3).find("ms"), std::string::npos);
  EXPECT_NE(format_seconds(3.0).find(" s"), std::string::npos);
  EXPECT_NE(format_seconds(5e-9).find("ns"), std::string::npos);
}

TEST(Strings, FormatBytes) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_NE(format_bytes(2.5e6).find("MB"), std::string::npos);
}

// --- units -------------------------------------------------------------------

TEST(Units, BandwidthRoundTrip) {
  EXPECT_DOUBLE_EQ(mbps_to_bytes_per_s(250.0), 250.0e6);
  EXPECT_DOUBLE_EQ(bytes_per_s_to_mbps(mbps_to_bytes_per_s(42.0)), 42.0);
}

TEST(Units, LatencyRoundTrip) {
  EXPECT_DOUBLE_EQ(us_to_s(8.0), 8.0e-6);
  EXPECT_DOUBLE_EQ(s_to_us(us_to_s(3.5)), 3.5);
}

TEST(Units, InstructionsToSeconds) {
  // 2300 MIPS: 2.3e9 instructions per second.
  EXPECT_DOUBLE_EQ(instructions_to_s(2'300'000'000ull, 2300.0), 1.0);
  EXPECT_EQ(s_to_instructions(1.0, 2300.0), 2'300'000'000ull);
  EXPECT_EQ(s_to_instructions(-1.0, 2300.0), 0ull);
}

// --- rng ---------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const double v = rng.uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, UniformMeanReasonable) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, BelowBounds) {
  Rng rng(3);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.below(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);  // all values hit
}

// --- stats ---------------------------------------------------------------------

TEST(Stats, MeanVariance) {
  const double xs[] = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
  EXPECT_DOUBLE_EQ(variance(xs), 1.25);
  EXPECT_DOUBLE_EQ(stddev(xs), std::sqrt(1.25));
  EXPECT_DOUBLE_EQ(min_of(xs), 1.0);
  EXPECT_DOUBLE_EQ(max_of(xs), 4.0);
}

TEST(Stats, PercentileInterpolates) {
  const double xs[] = {10.0, 20.0, 30.0, 40.0, 50.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 50.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 30.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 25), 20.0);
  EXPECT_DOUBLE_EQ(median(xs), 30.0);
}

TEST(Stats, PercentileSingleElement) {
  const double xs[] = {7.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 90), 7.0);
}

TEST(Stats, Geomean) {
  const double xs[] = {1.0, 4.0};
  EXPECT_DOUBLE_EQ(geomean(xs), 2.0);
}

TEST(Stats, RunningStatsMatchesBatch) {
  RunningStats rs;
  const double xs[] = {3.0, -1.0, 4.0, 1.5};
  for (const double x : xs) rs.add(x);
  EXPECT_EQ(rs.count(), 4u);
  EXPECT_DOUBLE_EQ(rs.mean(), mean(xs));
  EXPECT_NEAR(rs.variance(), variance(xs), 1e-12);
  EXPECT_DOUBLE_EQ(rs.min(), -1.0);
  EXPECT_DOUBLE_EQ(rs.max(), 4.0);
}

// --- table -----------------------------------------------------------------------

TEST(Table, RendersAlignedCells) {
  TextTable table({"name", "value"});
  table.add_row({"alpha", "1"});
  table.add_row({"b", "22"});
  const std::string out = table.render();
  EXPECT_NE(out.find("| alpha |"), std::string::npos);
  // "value" is 5 wide, so "1" is right-aligned with 4 spaces of padding.
  EXPECT_NE(out.find("|     1 |"), std::string::npos);
  EXPECT_NE(out.find("+"), std::string::npos);
}

TEST(Table, TitleShown) {
  TextTable table({"x"});
  table.set_title("My Title");
  EXPECT_EQ(table.render().rfind("My Title", 0), 0u);
}

TEST(Table, CellFormatting) {
  EXPECT_EQ(cell(3.14159, 3), "3.14");
  EXPECT_EQ(cell_percent(0.663, 1), "66.3%");
  EXPECT_EQ(cell_percent(1.0, 2), "100.00%");
}

// --- csv ---------------------------------------------------------------------------

TEST(Csv, InMemoryEscaping) {
  CsvWriter csv({"a", "b"});
  csv.add_row({"plain", "with,comma"});
  csv.add_row({"quote\"inside", "multi\nline"});
  const std::string out = csv.str();
  EXPECT_NE(out.find("a,b\n"), std::string::npos);
  EXPECT_NE(out.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(out.find("\"quote\"\"inside\""), std::string::npos);
}

// Regression: a bare carriage return must be quoted like \n, or a cell
// containing CRLF text splits the row in readers that treat \r as a line
// ending.
TEST(Csv, CarriageReturnIsQuoted) {
  CsvWriter csv({"a"});
  csv.add_row({"line\r\nbreak"});
  csv.add_row({"bare\rreturn"});
  const std::string out = csv.str();
  EXPECT_NE(out.find("\"line\r\nbreak\""), std::string::npos);
  EXPECT_NE(out.find("\"bare\rreturn\""), std::string::npos);
}

TEST(Csv, FileMode) {
  const std::string path = ::testing::TempDir() + "/osim_csv_test.csv";
  {
    CsvWriter csv(path, {"h"});
    csv.add_row({"v"});
  }
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "h");
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "v");
}

// --- flags -----------------------------------------------------------------------

TEST(Flags, ParsesAllKinds) {
  std::string name = "default";
  std::int64_t count = 1;
  double rate = 0.5;
  bool enabled = false;
  Flags flags("test");
  flags.add("name", &name, "a string");
  flags.add("count", &count, "an int");
  flags.add("rate", &rate, "a double");
  flags.add("enabled", &enabled, "a bool");
  const char* argv[] = {"prog", "--name=zed", "--count", "42",
                        "--rate=2.5", "--enabled"};
  EXPECT_TRUE(flags.parse(6, argv));
  EXPECT_EQ(name, "zed");
  EXPECT_EQ(count, 42);
  EXPECT_DOUBLE_EQ(rate, 2.5);
  EXPECT_TRUE(enabled);
}

TEST(Flags, UnknownFlagThrows) {
  Flags flags("test");
  const char* argv[] = {"prog", "--bogus=1"};
  EXPECT_THROW(flags.parse(2, argv), Error);
}

TEST(Flags, UnknownFlagIsUsageErrorNamingTheFlag) {
  Flags flags("test");
  const char* argv[] = {"prog", "--bogus=1"};
  try {
    flags.parse(2, argv);
    FAIL() << "expected UsageError";
  } catch (const UsageError& e) {
    EXPECT_NE(std::string(e.what()).find("--bogus"), std::string::npos);
  }
}

TEST(Flags, UnknownFlagSuggestsNearestRegistered) {
  std::string trace;
  std::int64_t jobs = 1;
  Flags flags("test");
  flags.add("trace", &trace, "trace file");
  flags.add("jobs", &jobs, "jobs");
  // One edit away ("trce") and two edits away ("tarce" via transpose =
  // two single-char edits) both get a suggestion.
  for (const char* wrong : {"--trce=x", "--tarce=x", "--job=2"}) {
    const char* argv[] = {"prog", wrong};
    try {
      flags.parse(2, argv);
      FAIL() << wrong << ": expected UsageError";
    } catch (const UsageError& e) {
      EXPECT_NE(std::string(e.what()).find("did you mean"),
                std::string::npos)
          << wrong << " -> " << e.what();
    }
  }
  // Nothing within distance 2: no suggestion, but still a usage error.
  const char* argv[] = {"prog", "--frobnicate=1"};
  try {
    flags.parse(2, argv);
    FAIL() << "expected UsageError";
  } catch (const UsageError& e) {
    EXPECT_EQ(std::string(e.what()).find("did you mean"), std::string::npos);
  }
}

TEST(Flags, SuggestionApi) {
  std::string trace;
  Flags flags("test");
  flags.add("trace", &trace, "trace file");
  EXPECT_EQ(flags.suggestion("trace"), "trace");   // distance 0
  EXPECT_EQ(flags.suggestion("trqce"), "trace");   // substitution
  EXPECT_EQ(flags.suggestion("trac"), "trace");    // deletion
  EXPECT_EQ(flags.suggestion("xtrace"), "trace");  // insertion
  EXPECT_EQ(flags.suggestion("completely-different"), "");
}

TEST(Flags, BadValueIsUsageErrorNamingTheFlag) {
  std::int64_t count = 0;
  double rate = 0.0;
  bool flag = false;
  Flags flags("test");
  flags.add("count", &count, "int");
  flags.add("rate", &rate, "double");
  flags.add("flag", &flag, "bool");
  const struct {
    const char* arg;
    const char* named;
  } cases[] = {{"--count=abc", "--count"},
               {"--rate=xyz", "--rate"},
               {"--flag=maybe", "--flag"}};
  for (const auto& c : cases) {
    const char* argv[] = {"prog", c.arg};
    try {
      flags.parse(2, argv);
      FAIL() << c.arg << ": expected UsageError";
    } catch (const UsageError& e) {
      EXPECT_NE(std::string(e.what()).find(c.named), std::string::npos)
          << c.arg << " -> " << e.what();
    }
  }
}

TEST(Flags, MissingValueIsUsageError) {
  std::int64_t count = 0;
  Flags flags("test");
  flags.add("count", &count, "int");
  const char* argv[] = {"prog", "--count"};
  EXPECT_THROW(flags.parse(2, argv), UsageError);
}

TEST(Flags, BadValueThrows) {
  std::int64_t count = 0;
  Flags flags("test");
  flags.add("count", &count, "int");
  const char* argv[] = {"prog", "--count=abc"};
  EXPECT_THROW(flags.parse(2, argv), Error);
}

TEST(Flags, BoolExplicitFalse) {
  bool enabled = true;
  Flags flags("test");
  flags.add("enabled", &enabled, "bool");
  const char* argv[] = {"prog", "--enabled=false"};
  EXPECT_TRUE(flags.parse(2, argv));
  EXPECT_FALSE(enabled);
}

TEST(Flags, EmptyValueAfterEqualsSetsEmptyString) {
  std::string name = "default";
  Flags flags("test");
  flags.add("name", &name, "a string");
  const char* argv[] = {"prog", "--name="};
  EXPECT_TRUE(flags.parse(2, argv));
  EXPECT_EQ(name, "");
}

TEST(Flags, BoolExplicitValues) {
  bool enabled = false;
  Flags flags("test");
  flags.add("enabled", &enabled, "bool");

  const char* on_1[] = {"prog", "--enabled=1"};
  EXPECT_TRUE(flags.parse(2, on_1));
  EXPECT_TRUE(enabled);

  const char* off_0[] = {"prog", "--enabled=0"};
  EXPECT_TRUE(flags.parse(2, off_0));
  EXPECT_FALSE(enabled);

  const char* on_true[] = {"prog", "--enabled=true"};
  EXPECT_TRUE(flags.parse(2, on_true));
  EXPECT_TRUE(enabled);

  enabled = false;
  const char* on_bare_eq[] = {"prog", "--enabled="};
  EXPECT_TRUE(flags.parse(2, on_bare_eq));
  EXPECT_TRUE(enabled);  // --enabled= behaves like bare --enabled
}

TEST(Flags, RepeatedFlagLastOccurrenceWins) {
  std::string name = "default";
  std::int64_t count = 0;
  Flags flags("test");
  flags.add("name", &name, "a string");
  flags.add("count", &count, "an int");
  const char* argv[] = {"prog", "--name=first", "--count=1", "--name=second",
                        "--count", "2"};
  EXPECT_TRUE(flags.parse(6, argv));
  EXPECT_EQ(name, "second");
  EXPECT_EQ(count, 2);
}

TEST(Flags, PositionalArgumentRejected) {
  Flags flags("test");
  const char* argv[] = {"prog", "stray"};
  EXPECT_THROW(flags.parse(2, argv), Error);
}

// --- log --------------------------------------------------------------------------

TEST(Log, CaptureAndLevels) {
  std::string captured;
  log::set_capture(&captured);
  const log::Level old = log::level();
  log::set_level(log::Level::kInfo);
  log::info("value is {} and {}", 42, "text");
  log::debug("should not appear");
  log::set_level(old);
  log::set_capture(nullptr);
  EXPECT_NE(captured.find("value is 42 and text"), std::string::npos);
  EXPECT_EQ(captured.find("should not appear"), std::string::npos);
}

// --- signals: the daemon-side child reaper ----------------------------------

#if defined(__unix__) || defined(__APPLE__)

// A worker killed with SIGKILL must surface through the reaper: SIGCHLD
// wakes the self-pipe, and reap_children() returns the pid with the
// signal-death status — the exact path osim_serve uses to requeue a dead
// worker's scenarios.
TEST(Signals, ReaperCollectsSigkilledChild) {
  install_child_reaper();
  const int wake_fd = signal_wake_fd();
  ASSERT_GE(wake_fd, 0);
  drain_signal_wake_fd();

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: wait to be killed; exit abnormally if the kill never lands.
    for (int i = 0; i < 1000; ++i) usleep(10 * 1000);
    _exit(99);
  }
  ASSERT_EQ(kill(pid, SIGKILL), 0);

  // The wake fd must become readable without polling flags in a loop.
  // SIGCHLD landing *during* poll interrupts it with EINTR (the reaper is
  // installed without SA_RESTART so blocking calls wake) — retry, the
  // handler's wake byte is already in the pipe by then.
  struct pollfd pfd = {};
  pfd.fd = wake_fd;
  pfd.events = POLLIN;
  int ready = -1;
  do {
    ready = poll(&pfd, 1, 5000 /* ms */);
  } while (ready < 0 && errno == EINTR);
  ASSERT_EQ(ready, 1) << "SIGCHLD did not wake the self-pipe";
  drain_signal_wake_fd();

  EXPECT_TRUE(child_exit_pending());
  std::vector<ReapedChild> reaped = reap_children();
  // Collect stragglers (the signal may beat the zombie transition).
  for (int i = 0; reaped.empty() && i < 500; ++i) {
    usleep(10 * 1000);
    reaped = reap_children();
  }
  ASSERT_EQ(reaped.size(), 1u);
  EXPECT_EQ(reaped[0].pid, static_cast<int>(pid));
  ASSERT_TRUE(WIFSIGNALED(reaped[0].status));
  EXPECT_EQ(WTERMSIG(reaped[0].status), SIGKILL);
  EXPECT_FALSE(child_exit_pending());
  // Nothing left to reap afterwards.
  EXPECT_TRUE(reap_children().empty());
}

TEST(Signals, IgnoreSigpipeSurvivesClosedPipeWrite) {
  ignore_sigpipe();
  int fds[2] = {-1, -1};
  ASSERT_EQ(pipe(fds), 0);
  close(fds[0]);
  const char byte = 'x';
  // Without SIG_IGN this write would kill the process, not return -1.
  EXPECT_EQ(write(fds[1], &byte, 1), -1);
  EXPECT_EQ(errno, EPIPE);
  close(fds[1]);
}

#endif

// --- binary codec ----------------------------------------------------------

TEST(Codec, StringLengthIsCheckedBeforeAllocation) {
  // A string header declaring 4 GiB backed by 3 bytes must fail cleanly
  // (and, per the Reader contract, without allocating the declared size).
  std::string bytes;
  codec::put_u32(bytes, 0xffffffffu);
  bytes += "abc";
  codec::Reader reader(bytes);
  const std::string s = reader.get_string();
  EXPECT_TRUE(s.empty());
  EXPECT_FALSE(reader.ok());
}

TEST(Codec, DoneRequiresFullConsumption) {
  std::string bytes;
  codec::put_u32(bytes, 7);
  codec::put_u8(bytes, 1);
  codec::Reader reader(bytes);
  EXPECT_EQ(reader.get_u32(), 7u);
  EXPECT_FALSE(reader.done());  // one byte left
  EXPECT_EQ(reader.get_u8(), 1u);
  EXPECT_TRUE(reader.done());
}

TEST(Codec, FirstUnderrunLatches) {
  std::string bytes;
  codec::put_u64(bytes, 42);
  codec::Reader reader(bytes);
  EXPECT_EQ(reader.get_u32(), 42u);
  EXPECT_EQ(reader.get_u64(), 0u);  // 4 bytes left: underrun
  EXPECT_FALSE(reader.ok());
  EXPECT_EQ(reader.get_u8(), 0u);  // latched, though a byte is left
  EXPECT_FALSE(reader.done());
}

TEST(Codec, String64HonoursItsCap) {
  std::string bytes;
  codec::put_string64(bytes, "hello");
  EXPECT_EQ(codec::Reader(bytes).get_string64(5), "hello");
  codec::Reader capped(bytes);
  EXPECT_EQ(capped.get_string64(4), "");
  EXPECT_FALSE(capped.ok());
}

TEST(Codec, EnvelopeRejectsDamageSkewAndForeignMagic) {
  std::string sealed = codec::begin_envelope("TESTMAG1", 3);
  codec::put_u64(sealed, 99);
  codec::seal_envelope(sealed, "TESTMAG1");
  ASSERT_EQ(sealed.size(), 8u + 4 + 8 + 4);

  std::optional<codec::Reader> body =
      codec::open_envelope(sealed, "TESTMAG1", 3);
  ASSERT_TRUE(body.has_value());
  EXPECT_EQ(body->get_u64(), 99u);
  EXPECT_TRUE(body->done());

  EXPECT_FALSE(codec::open_envelope(sealed, "TESTMAG1", 4).has_value());
  EXPECT_FALSE(codec::open_envelope(sealed, "OTHERMG1", 3).has_value());
  for (std::size_t i = 0; i < sealed.size(); ++i) {
    std::string damaged = sealed;
    damaged[i] = static_cast<char>(damaged[i] ^ 0x01);
    EXPECT_FALSE(codec::open_envelope(damaged, "TESTMAG1", 3).has_value())
        << "flipped byte " << i;
  }
  for (std::size_t n = 0; n < sealed.size(); ++n) {
    EXPECT_FALSE(codec::open_envelope(sealed.substr(0, n), "TESTMAG1", 3)
                     .has_value())
        << n;
  }

  // The header alone is what a peek checks: no CRC, any tail.
  const std::string first_bytes = sealed.substr(0, 20);
  std::optional<codec::Reader> head =
      codec::peek_envelope(first_bytes, "TESTMAG1", 3);
  ASSERT_TRUE(head.has_value());
  EXPECT_EQ(head->get_u64(), 99u);
  EXPECT_FALSE(codec::peek_envelope(sealed, "TESTMAG1", 2).has_value());
  EXPECT_FALSE(codec::peek_envelope("TESTMAG1", "TESTMAG1", 3).has_value());
}

TEST(Codec, RecordCrcCoversTheBodyFromItsStart) {
  std::string out = "prefix";
  codec::put_u32(out, 0xabcdef01u);
  codec::seal_record(out, 6);
  std::optional<codec::Reader> body =
      codec::open_record(std::string_view(out).substr(6));
  ASSERT_TRUE(body.has_value());
  EXPECT_EQ(body->get_u32(), 0xabcdef01u);
  EXPECT_TRUE(body->done());
  out[7] = static_cast<char>(out[7] ^ 0x10);
  EXPECT_FALSE(codec::open_record(std::string_view(out).substr(6)).has_value());
  EXPECT_FALSE(codec::open_record("abc").has_value());
}

TEST(Codec, FrameWriterRefusesPayloadsOverTheCap) {
  std::string out;
  EXPECT_TRUE(codec::put_frame(out, "abcd", 4));
  EXPECT_EQ(out, std::string("\x04\x00\x00\x00" "abcd", 8));
  EXPECT_FALSE(codec::put_frame(out, "abcde", 4));
  EXPECT_EQ(out.size(), 8u);  // nothing appended
}

}  // namespace
}  // namespace osim
