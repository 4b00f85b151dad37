// Tests for the tooling-support modules: trace summaries and platform
// configuration files.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <fstream>
#include <string>

#include "common/expect.hpp"
#include "dimemas/platform_io.hpp"
#include "pipeline/scenario.hpp"
#include "trace/io.hpp"
#include "trace/summary.hpp"
#include "trace/trace.hpp"

namespace osim {
namespace {

// --- trace summaries ---------------------------------------------------------

trace::Trace sample_trace() {
  trace::TraceBuilder b(2, 2300.0, "sample");
  b.compute(0, 1000)
      .send(0, 1, 0, 100)
      .send(0, 1, 1, 70'000)
      .global(0, trace::CollectiveKind::kBarrier, 0, 0, 0);
  b.recv(1, 0, 0, 100)
      .irecv(1, 0, 1, 70'000, 3)
      .wait(1, {3})
      .compute(1, 500)
      .global(1, trace::CollectiveKind::kBarrier, 0, 0, 0);
  return std::move(b).build();
}

TEST(Summary, CountsEverything) {
  const trace::TraceSummary s = trace::summarize(sample_trace());
  EXPECT_EQ(s.num_ranks, 2);
  EXPECT_EQ(s.app, "sample");
  EXPECT_EQ(s.total_records, 9u);
  EXPECT_EQ(s.total_instructions, 1500u);
  EXPECT_EQ(s.total_messages, 2u);
  EXPECT_EQ(s.total_bytes, 70'100u);
  EXPECT_EQ(s.total_collectives, 2u);
  EXPECT_EQ(s.min_message_bytes, 100u);
  EXPECT_EQ(s.max_message_bytes, 70'000u);
  EXPECT_DOUBLE_EQ(s.mean_message_bytes(), 35'050.0);
  EXPECT_EQ(s.ranks[0].sends, 2u);
  EXPECT_EQ(s.ranks[1].recvs, 2u);
  EXPECT_EQ(s.ranks[1].waits, 1u);
}

TEST(Summary, HistogramBuckets) {
  const trace::TraceSummary s = trace::summarize(sample_trace());
  // 100 B lands in [64, 128); 70000 in [65536, 131072).
  EXPECT_EQ(s.size_histogram[6], 1u);
  EXPECT_EQ(s.size_histogram[16], 1u);
  std::size_t total = 0;
  for (const std::size_t count : s.size_histogram) total += count;
  EXPECT_EQ(total, 2u);
}

TEST(Summary, ComputeTimeUsesMips) {
  const trace::TraceSummary s = trace::summarize(sample_trace());
  EXPECT_NEAR(s.total_compute_s(), 1500.0 / (2300.0 * 1e6), 1e-15);
}

TEST(Summary, EmptyTrace) {
  trace::TraceBuilder b(1, 1000.0);
  const trace::TraceSummary s = trace::summarize(std::move(b).build());
  EXPECT_EQ(s.total_messages, 0u);
  EXPECT_EQ(s.min_message_bytes, 0u);
  EXPECT_DOUBLE_EQ(s.mean_message_bytes(), 0.0);
}

TEST(Summary, RenderContainsKeyFacts) {
  const std::string text = trace::render(trace::summarize(sample_trace()));
  EXPECT_NE(text.find("app=sample"), std::string::npos);
  EXPECT_NE(text.find("2 p2p messages"), std::string::npos);
  EXPECT_NE(text.find("rank   0"), std::string::npos);
}

// --- platform files --------------------------------------------------------------

TEST(PlatformIo, RoundTripAllFields) {
  dimemas::Platform p;
  p.num_nodes = 64;
  p.model = dimemas::NetworkModelKind::kFairShare;
  p.bandwidth_MBps = 123.5;
  p.latency_us = 7.25;
  p.num_buses = 12;
  p.input_ports = 2;
  p.output_ports = 3;
  p.eager_threshold_bytes = 4096;
  p.relative_cpu_speed = 1.75;
  p.fabric_capacity_links = 9.5;

  const dimemas::Platform q =
      dimemas::read_platform(dimemas::write_platform(p));
  EXPECT_EQ(q.num_nodes, p.num_nodes);
  EXPECT_EQ(q.model, p.model);
  EXPECT_DOUBLE_EQ(q.bandwidth_MBps, p.bandwidth_MBps);
  EXPECT_DOUBLE_EQ(q.latency_us, p.latency_us);
  EXPECT_EQ(q.num_buses, p.num_buses);
  EXPECT_EQ(q.input_ports, p.input_ports);
  EXPECT_EQ(q.output_ports, p.output_ports);
  EXPECT_EQ(q.eager_threshold_bytes, p.eager_threshold_bytes);
  EXPECT_DOUBLE_EQ(q.relative_cpu_speed, p.relative_cpu_speed);
  EXPECT_DOUBLE_EQ(q.fabric_capacity_links, p.fabric_capacity_links);
}

TEST(PlatformIo, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/osim_platform_test.cfg";
  const dimemas::Platform p = dimemas::Platform::marenostrum(16, 6);
  dimemas::write_platform_file(p, path);
  const dimemas::Platform q = dimemas::read_platform_file(path);
  EXPECT_EQ(q.num_nodes, 16);
  EXPECT_EQ(q.num_buses, 6);
  EXPECT_DOUBLE_EQ(q.bandwidth_MBps, 250.0);
}

TEST(PlatformIo, CommentsAndDefaults) {
  const dimemas::Platform p = dimemas::read_platform(
      "# just a comment\nnodes 4   # trailing\n\nbuses 3\n");
  EXPECT_EQ(p.num_nodes, 4);
  EXPECT_EQ(p.num_buses, 3);
  EXPECT_EQ(p.model, dimemas::NetworkModelKind::kBus);  // default kept
}

TEST(PlatformIo, MissingNodesThrows) {
  EXPECT_THROW(dimemas::read_platform("buses 3\n"), Error);
}

TEST(PlatformIo, UnknownKeyThrows) {
  EXPECT_THROW(dimemas::read_platform("nodes 4\nwarp_factor 9\n"), Error);
}

TEST(PlatformIo, BadValueThrows) {
  EXPECT_THROW(dimemas::read_platform("nodes four\n"), Error);
  EXPECT_THROW(dimemas::read_platform("nodes 4\nbandwidth_mbps -2\n"),
               Error);
  EXPECT_THROW(dimemas::read_platform("nodes 4\nmodel telepathy\n"), Error);
  EXPECT_THROW(dimemas::read_platform("nodes 0\n"), Error);
}

TEST(PlatformIo, NonFiniteValuesThrowAndReplayExitsUsage) {
  // NaN slips through a plain `<= 0` / `< 0` range check, so each
  // floating-point key must also be finite, as the flags must be.
  const std::string dir = ::testing::TempDir();
  const std::string trace_path = dir + "/osim_nonfinite.trace";
  trace::write_text_file(sample_trace(), trace_path);
  for (const char* key : {"bandwidth_mbps", "latency_us", "overhead_us",
                          "relative_cpu_speed"}) {
    for (const char* value : {"nan", "inf", "-inf"}) {
      const std::string text =
          std::string("nodes 4\n") + key + " " + value + "\n";
      SCOPED_TRACE(text);
      EXPECT_THROW(dimemas::read_platform(text), Error);

      const std::string cfg = dir + "/osim_nonfinite.cfg";
      std::ofstream(cfg) << text;
      EXPECT_THROW(pipeline::lower_platform(pipeline::ScenarioSpec{}, 2, cfg),
                   UsageError);
      const std::string command = std::string(OSIM_REPLAY_BIN) +
                                  " --trace " + trace_path + " --platform " +
                                  cfg + " > /dev/null 2>&1";
      const int status = std::system(command.c_str());
      ASSERT_TRUE(WIFEXITED(status));
      EXPECT_EQ(WEXITSTATUS(status), 2);
    }
  }
}

TEST(PlatformIo, MissingFileThrows) {
  EXPECT_THROW(dimemas::read_platform_file("/nonexistent/x.cfg"), Error);
}

}  // namespace
}  // namespace osim
