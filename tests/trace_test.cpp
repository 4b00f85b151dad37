// Unit tests for the trace IR: records, builder, structural validation and
// text (de)serialization.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string_view>

#include "apps/app.hpp"
#include "common/crc32.hpp"
#include "common/expect.hpp"
#include "trace/annotated.hpp"
#include "trace/annotated_io.hpp"
#include "trace/binary_io.hpp"
#include "trace/io.hpp"
#include "trace/trace.hpp"

namespace osim::trace {
namespace {

Trace pingpong() {
  TraceBuilder b(2, 2300.0, "pingpong");
  b.compute(0, 1000).send(0, 1, 7, 4096).recv(0, 1, 8, 4096);
  b.compute(1, 500).recv(1, 0, 7, 4096).compute(1, 200).send(1, 0, 8, 4096);
  return std::move(b).build();
}

// --- record formatting ------------------------------------------------------

TEST(Record, ToString) {
  EXPECT_EQ(to_string(CpuBurst{42}), "compute(42)");
  EXPECT_EQ(to_string(Send{3, 7, 64, false, kNoRequest}),
            "send(dest=3, tag=7, bytes=64)");
  EXPECT_EQ(to_string(Send{3, 7, 64, true, 5}),
            "isend(dest=3, tag=7, bytes=64, req=5)");
  EXPECT_EQ(to_string(Send{3, 7, 64, false, kNoRequest, true}),
            "send!(dest=3, tag=7, bytes=64)");
  EXPECT_EQ(to_string(Recv{1, 2, 8, true, 9}),
            "irecv(src=1, tag=2, bytes=8, req=9)");
  EXPECT_EQ(to_string(Wait{{1, 2}}), "wait(1, 2)");
  EXPECT_EQ(to_string(GlobalOp{CollectiveKind::kAllreduce, 0, 8, 3}),
            "allreduce(root=0, bytes=8, seq=3)");
}

TEST(Record, CollectiveNames) {
  EXPECT_STREQ(collective_name(CollectiveKind::kBarrier), "barrier");
  EXPECT_STREQ(collective_name(CollectiveKind::kAlltoall), "alltoall");
}

// --- builder / accessors ------------------------------------------------------

TEST(Trace, MakeAndTotals) {
  const Trace t = pingpong();
  EXPECT_EQ(t.num_ranks, 2);
  EXPECT_EQ(t.total_records(), 7u);
  EXPECT_EQ(t.total_instructions(0), 1000u);
  EXPECT_EQ(t.total_instructions(1), 700u);
  EXPECT_EQ(t.total_p2p_bytes_sent(0), 4096u);
  EXPECT_EQ(t.total_p2p_bytes_sent(1), 4096u);
}

TEST(Trace, BuilderSkipsZeroBursts) {
  TraceBuilder b(1, 1000.0);
  b.compute(0, 0);
  EXPECT_EQ(std::move(b).build().total_records(), 0u);
}

// --- validation ------------------------------------------------------------------

TEST(Validate, AcceptsWellFormedTrace) {
  EXPECT_NO_THROW(validate(pingpong()));
}

TEST(Validate, RejectsSelfSend) {
  TraceBuilder b(2, 1000.0);
  b.send(0, 0, 1, 8);
  EXPECT_THROW(validate(std::move(b).build()), Error);
}

TEST(Validate, RejectsOutOfRangeDest) {
  TraceBuilder b(2, 1000.0);
  b.send(0, 5, 1, 8);
  EXPECT_THROW(validate(std::move(b).build()), Error);
}

TEST(Validate, RejectsUnmatchedSend) {
  TraceBuilder b(2, 1000.0);
  b.send(0, 1, 1, 8);  // no matching recv
  EXPECT_THROW(validate(std::move(b).build()), Error);
}

TEST(Validate, RejectsSizeMismatch) {
  TraceBuilder b(2, 1000.0);
  b.send(0, 1, 1, 8);
  b.recv(1, 0, 1, 16);
  EXPECT_THROW(validate(std::move(b).build()), Error);
}

TEST(Validate, RejectsWaitOnUnknownRequest) {
  TraceBuilder b(2, 1000.0);
  b.wait(0, {99});
  EXPECT_THROW(validate(std::move(b).build()), Error);
}

TEST(Validate, RejectsDoubleWait) {
  TraceBuilder b(2, 1000.0);
  b.isend(0, 1, 1, 8, 5).wait(0, {5}).wait(0, {5});
  b.recv(1, 0, 1, 8);
  EXPECT_THROW(validate(std::move(b).build()), Error);
}

TEST(Validate, RejectsDanglingRequest) {
  TraceBuilder b(2, 1000.0);
  b.isend(0, 1, 1, 8, 5);  // never waited
  b.recv(1, 0, 1, 8);
  EXPECT_THROW(validate(std::move(b).build()), Error);
}

TEST(Validate, RejectsReusedRequestId) {
  TraceBuilder b(2, 1000.0);
  b.isend(0, 1, 1, 8, 5).wait(0, {5}).isend(0, 1, 1, 8, 5).wait(0, {5});
  b.recv(1, 0, 1, 8).recv(1, 0, 1, 8);
  EXPECT_THROW(validate(std::move(b).build()), Error);
}

TEST(Validate, RejectsCollectiveDisagreement) {
  TraceBuilder b(2, 1000.0);
  b.global(0, CollectiveKind::kBarrier, 0, 0, 0);
  b.global(1, CollectiveKind::kAllreduce, 0, 8, 0);
  EXPECT_THROW(validate(std::move(b).build()), Error);
}

TEST(Validate, RejectsMissingCollective) {
  TraceBuilder b(2, 1000.0);
  b.global(0, CollectiveKind::kBarrier, 0, 0, 0);
  EXPECT_THROW(validate(std::move(b).build()), Error);
}

TEST(Validate, AcceptsImmediateOps) {
  TraceBuilder b(2, 1000.0);
  b.irecv(0, 1, 3, 8, 1).wait(0, {1});
  b.isend(1, 0, 3, 8, 1).wait(1, {1});
  EXPECT_NO_THROW(validate(std::move(b).build()));
}

TEST(Validate, WildcardSkipsPairwiseCheck) {
  TraceBuilder b(2, 1000.0);
  b.recv(0, kAnyRank, kAnyTag, 8);
  b.send(1, 0, 42, 8);
  EXPECT_NO_THROW(validate(std::move(b).build()));
}

// --- serialization round trips -----------------------------------------------------

TEST(Io, RoundTripPreservesEverything) {
  TraceBuilder b(3, 2300.0, "roundtrip");
  b.compute(0, 12345)
      .send(0, 1, 7, 100)
      .isend(0, 2, 8, 200, 11)
      .wait(0, {11})
      .global(0, CollectiveKind::kAllreduce, 0, 8, 0);
  b.recv(1, 0, 7, 100)
      .compute(1, 9)
      .global(1, CollectiveKind::kAllreduce, 0, 8, 0);
  b.irecv(2, 0, 8, 200, 4)
      .wait(2, {4})
      .global(2, CollectiveKind::kAllreduce, 0, 8, 0);
  const Trace original = std::move(b).build();

  const Trace parsed = read_text(write_text(original));
  EXPECT_EQ(parsed.num_ranks, original.num_ranks);
  EXPECT_DOUBLE_EQ(parsed.mips, original.mips);
  EXPECT_EQ(parsed.app, original.app);
  ASSERT_EQ(parsed.total_records(), original.total_records());
  for (Rank r = 0; r < original.num_ranks; ++r) {
    const auto& a = original.ranks[static_cast<std::size_t>(r)];
    const auto& c = parsed.ranks[static_cast<std::size_t>(r)];
    ASSERT_EQ(a.size(), c.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(to_string(a[i]), to_string(c[i]));
    }
  }
}

TEST(Io, RoundTripSynchronousSend) {
  TraceBuilder b(2, 1000.0);
  b.isend(0, 1, 3, 64, 1);
  std::get<Send>(b.peek().ranks[0][0]);  // sanity: record exists
  Trace t = std::move(b).build();
  std::get<Send>(t.ranks[0][0]).synchronous = true;
  t.ranks[1].push_back(Recv{0, 3, 64, false, kNoRequest});
  t.ranks[0].push_back(Wait{{1}});
  const Trace parsed = read_text(write_text(t));
  EXPECT_TRUE(std::get<Send>(parsed.ranks[0][0]).synchronous);
}

TEST(Io, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/osim_trace_test.trace";
  const Trace t = pingpong();
  write_text_file(t, path);
  const Trace parsed = read_text_file(path);
  EXPECT_EQ(parsed.total_records(), t.total_records());
}

TEST(Io, CommentsAndBlankLinesIgnored) {
  const std::string text =
      "#OSIM-TRACE v1\n"
      "meta ranks 1\n"
      "\n"
      "# a comment\n"
      "rank 0\n"
      "c 5  # trailing comment\n";
  const Trace t = read_text(text);
  EXPECT_EQ(t.total_instructions(0), 5u);
}

// --- parser error cases ----------------------------------------------------------

TEST(Io, MissingHeaderThrows) {
  EXPECT_THROW(read_text("meta ranks 1\n"), Error);
}

TEST(Io, MissingRanksThrows) {
  EXPECT_THROW(read_text("#OSIM-TRACE v1\nrank 0\nc 5\n"), Error);
}

TEST(Io, RecordBeforeRankThrows) {
  EXPECT_THROW(read_text("#OSIM-TRACE v1\nmeta ranks 1\nc 5\n"), Error);
}

TEST(Io, UnknownRecordThrows) {
  EXPECT_THROW(read_text("#OSIM-TRACE v1\nmeta ranks 1\nrank 0\nz 5\n"),
               Error);
}

TEST(Io, BadArityThrows) {
  EXPECT_THROW(read_text("#OSIM-TRACE v1\nmeta ranks 2\nrank 0\ns 1 2\n"),
               Error);
}

TEST(Io, RankOutOfRangeThrows) {
  EXPECT_THROW(read_text("#OSIM-TRACE v1\nmeta ranks 1\nrank 3\n"), Error);
}

TEST(Io, UnknownCollectiveThrows) {
  EXPECT_THROW(
      read_text("#OSIM-TRACE v1\nmeta ranks 1\nrank 0\ng bogus 0 8 0\n"),
      Error);
}

TEST(Io, MissingFileThrows) {
  EXPECT_THROW(read_text_file("/nonexistent/path/x.trace"), Error);
}

// --- binary serialization ---------------------------------------------------------

TEST(BinaryIo, RoundTripMatchesTextRendering) {
  TraceBuilder b(3, 2300.0, "binary");
  b.compute(0, 987654321)
      .send(0, 1, 7, 100)
      .isend(0, 2, 8, 200, 11)
      .wait(0, {11})
      .global(0, CollectiveKind::kAllreduce, 0, 8, 0);
  b.recv(1, 0, 7, 100).global(1, CollectiveKind::kAllreduce, 0, 8, 0);
  b.irecv(2, 0, 8, 200, 4)
      .wait(2, {4})
      .global(2, CollectiveKind::kAllreduce, 0, 8, 0);
  Trace original = std::move(b).build();
  std::get<Send>(original.ranks[0][1]).synchronous = true;

  std::ostringstream os;
  write_binary(original, os);
  std::istringstream is(os.str());
  const Trace parsed = read_binary(is);
  EXPECT_EQ(write_text(parsed), write_text(original));
}

TEST(BinaryIo, FileRoundTripAndSniffing) {
  const std::string bin_path = ::testing::TempDir() + "/osim_bin.btrace";
  const std::string txt_path = ::testing::TempDir() + "/osim_txt.trace";
  const Trace t = pingpong();
  write_binary_file(t, bin_path);
  write_text_file(t, txt_path);
  // read_any_file dispatches on the magic for both formats.
  EXPECT_EQ(write_text(read_any_file(bin_path)), write_text(t));
  EXPECT_EQ(write_text(read_any_file(txt_path)), write_text(t));
}

TEST(BinaryIo, BinarySmallerThanText) {
  TraceBuilder b(2, 1000.0);
  for (int i = 0; i < 200; ++i) {
    b.compute(0, 123456).send(0, 1, i, 8192);
    b.compute(1, 123456).recv(1, 0, i, 8192);
  }
  const Trace t = std::move(b).build();
  std::ostringstream bin;
  write_binary(t, bin);
  EXPECT_LT(bin.str().size(), write_text(t).size());
}

TEST(BinaryIo, TruncatedInputThrows) {
  TraceBuilder b(1, 1000.0);
  b.compute(0, 42);
  std::ostringstream os;
  write_binary(std::move(b).build(), os);
  const std::string full = os.str();
  for (const std::size_t cut : {4ul, 9ul, full.size() - 1}) {
    std::istringstream is(full.substr(0, cut));
    EXPECT_THROW(read_binary(is), Error) << "cut at " << cut;
  }
}

TEST(BinaryIo, BadMagicThrows) {
  std::istringstream is("definitely not a trace");
  EXPECT_THROW(read_binary(is), Error);
}

// The integrity footer is 8 magic bytes + one u32 CRC per rank.
constexpr std::size_t footer_size(std::size_t num_ranks) {
  return 8 + 4 * num_ranks;
}

TEST(BinaryIo, CorruptKindThrows) {
  TraceBuilder b(1, 1000.0);
  b.compute(0, 42);
  std::ostringstream os;
  write_binary(std::move(b).build(), os);
  std::string bytes = os.str();
  // The record-kind byte directly follows the rank-0 record count; the
  // single compute record is kind + varint(42) = 2 bytes before the footer.
  bytes[bytes.size() - footer_size(1) - 2] = 99;
  std::istringstream is(bytes);
  EXPECT_THROW(read_binary(is), Error);
}

TEST(BinaryIo, CorruptFooterCrcThrows) {
  const Trace t = pingpong();
  std::ostringstream os;
  write_binary(t, os);
  std::string bytes = os.str();
  bytes.back() = static_cast<char>(bytes.back() ^ 0x40);  // rank-1 CRC byte
  std::istringstream is(bytes);
  EXPECT_THROW(read_binary(is), Error);
}

TEST(BinaryIo, CorruptPayloadFailsCrc) {
  const Trace t = pingpong();
  std::ostringstream os;
  write_binary(t, os);
  std::string bytes = os.str();
  // Flip a low bit inside rank 1's last record (a payload byte whose
  // corruption still parses: it only changes a value, not the framing).
  bytes[bytes.size() - footer_size(2) - 1] =
      static_cast<char>(bytes[bytes.size() - footer_size(2) - 1] ^ 0x01);
  std::istringstream is(bytes);
  EXPECT_THROW(read_binary(is), Error);
}

TEST(BinaryIo, LegacyTraceWithoutFooterLoads) {
  const Trace t = pingpong();
  std::ostringstream os;
  write_binary(t, os);
  std::string bytes = os.str();
  bytes.resize(bytes.size() - footer_size(2));  // pre-footer writer output
  std::istringstream is(bytes);
  EXPECT_EQ(write_text(read_binary(is)), write_text(t));
  std::istringstream is2(bytes);
  const RecoveredTrace recovered = read_binary_recover(is2);
  EXPECT_TRUE(recovered.damage.clean());
  EXPECT_TRUE(recovered.damage.missing_footer);
}

TEST(BinaryIo, RecoverCleanInput) {
  const Trace t = pingpong();
  std::ostringstream os;
  write_binary(t, os);
  std::istringstream is(os.str());
  const RecoveredTrace recovered = read_binary_recover(is);
  EXPECT_TRUE(recovered.damage.clean());
  EXPECT_FALSE(recovered.damage.missing_footer);
  EXPECT_EQ(recovered.damage.records_salvaged, 7u);
  EXPECT_EQ(write_text(recovered.trace), write_text(t));
}

TEST(BinaryIo, RecoverSalvagesTruncatedPrefix) {
  const Trace t = pingpong();
  std::ostringstream os;
  write_binary(t, os);
  const std::string full = os.str();
  // Cut inside rank 1's stream: rank 0 must survive intact.
  std::istringstream is(full.substr(0, full.size() - footer_size(2) - 3));
  const RecoveredTrace recovered = read_binary_recover(is);
  EXPECT_FALSE(recovered.damage.clean());
  EXPECT_TRUE(recovered.damage.truncated);
  EXPECT_FALSE(recovered.damage.unusable);
  EXPECT_GT(recovered.damage.records_dropped, 0u);
  ASSERT_EQ(recovered.trace.num_ranks, 2);
  EXPECT_EQ(recovered.trace.ranks[0].size(), t.ranks[0].size());
  EXPECT_LT(recovered.trace.ranks[1].size(), t.ranks[1].size());
  ASSERT_FALSE(recovered.damage.issues.empty());
  EXPECT_GT(recovered.damage.issues[0].offset, 0u);
  EXPECT_FALSE(recovered.damage.render_text().empty());
}

TEST(BinaryIo, RecoverCrcMismatchKeepsRecords) {
  const Trace t = pingpong();
  std::ostringstream os;
  write_binary(t, os);
  std::string bytes = os.str();
  bytes.back() = static_cast<char>(bytes.back() ^ 0x40);
  std::istringstream is(bytes);
  const RecoveredTrace recovered = read_binary_recover(is);
  EXPECT_FALSE(recovered.damage.clean());
  EXPECT_EQ(recovered.damage.crc_mismatches, 1u);
  EXPECT_EQ(recovered.damage.records_dropped, 0u);
  EXPECT_EQ(write_text(recovered.trace), write_text(t));
}

TEST(BinaryIo, RecoverBadMagicIsUnusable) {
  std::istringstream is("definitely not a trace");
  const RecoveredTrace recovered = read_binary_recover(is);
  EXPECT_TRUE(recovered.damage.unusable);
  EXPECT_FALSE(recovered.damage.clean());
  EXPECT_EQ(recovered.trace.num_ranks, 0);
}

TEST(BinaryIo, RecoverAnyFileHandlesBrokenText) {
  const std::string path = ::testing::TempDir() + "/osim_broken.trace";
  {
    std::ofstream out(path);
    out << "#OSIM-TRACE v1\nmeta ranks 1\nrank 0\ng bogus 0 8 0\n";
  }
  const RecoveredTrace recovered = read_any_file_recover(path);
  EXPECT_TRUE(recovered.damage.unusable);
  ASSERT_EQ(recovered.damage.issues.size(), 1u);
}

// --- annotated trace validation ---------------------------------------------------

AnnEvent make_send(std::uint64_t vclock, std::uint64_t interval_start,
                   std::uint64_t elems) {
  AnnEvent ev;
  ev.kind = AnnEvent::Kind::kSend;
  ev.vclock = vclock;
  ev.peer = 1;
  ev.tag = 0;
  ev.elem_bytes = 8;
  ev.bytes = elems * 8;
  ev.buffer_id = 0;
  ev.chunkable = elems > 1;
  ev.interval_start = interval_start;
  ev.elem_last_store.assign(elems, interval_start);
  return ev;
}

TEST(Annotated, AcceptsWellFormed) {
  AnnotatedTrace t = AnnotatedTrace::make(2, 2300.0, "x");
  t.ranks[0].events.push_back(make_send(100, 0, 4));
  t.ranks[0].final_vclock = 100;
  EXPECT_NO_THROW(validate(t));
}

TEST(Annotated, RejectsBackwardsClock) {
  AnnotatedTrace t = AnnotatedTrace::make(1, 1000.0);
  t.ranks[0].events.push_back(make_send(100, 0, 2));
  t.ranks[0].events.push_back(make_send(50, 0, 2));
  t.ranks[0].final_vclock = 100;
  EXPECT_THROW(validate(t), Error);
}

TEST(Annotated, RejectsAnnotationOutsideInterval) {
  AnnotatedTrace t = AnnotatedTrace::make(1, 1000.0);
  AnnEvent ev = make_send(100, 50, 2);
  ev.elem_last_store[0] = 10;  // before the interval start
  t.ranks[0].events.push_back(ev);
  t.ranks[0].final_vclock = 100;
  EXPECT_THROW(validate(t), Error);
}

TEST(Annotated, RejectsWrongAnnotationLength) {
  AnnotatedTrace t = AnnotatedTrace::make(1, 1000.0);
  AnnEvent ev = make_send(100, 0, 4);
  ev.elem_last_store.resize(3);
  t.ranks[0].events.push_back(ev);
  t.ranks[0].final_vclock = 100;
  EXPECT_THROW(validate(t), Error);
}

TEST(Annotated, RejectsChunkableWithoutAnnotations) {
  AnnotatedTrace t = AnnotatedTrace::make(1, 1000.0);
  AnnEvent ev = make_send(100, 0, 4);
  ev.elem_last_store.clear();
  t.ranks[0].events.push_back(ev);
  t.ranks[0].final_vclock = 100;
  EXPECT_THROW(validate(t), Error);
}

TEST(Annotated, RejectsFinalClockBeforeLastEvent) {
  AnnotatedTrace t = AnnotatedTrace::make(1, 1000.0);
  t.ranks[0].events.push_back(make_send(100, 0, 2));
  t.ranks[0].final_vclock = 50;
  EXPECT_THROW(validate(t), Error);
}

// --- annotated trace serialization -------------------------------------------------

AnnotatedTrace sample_annotated() {
  AnnotatedTrace t = AnnotatedTrace::make(2, 2300.0, "ann");
  AnnEvent send = make_send(100, 0, 4);
  send.elem_last_store[1] = kNeverAccessed;
  send.elem_last_store[2] = 42;
  t.ranks[0].events.push_back(send);
  AnnEvent isend = make_send(150, 100, 2);
  isend.kind = AnnEvent::Kind::kIsend;
  isend.request = 7;
  isend.tag = 3;
  t.ranks[0].events.push_back(isend);
  AnnEvent wait;
  wait.kind = AnnEvent::Kind::kWait;
  wait.vclock = 160;
  wait.wait_requests = {7};
  t.ranks[0].events.push_back(wait);
  AnnEvent global;
  global.kind = AnnEvent::Kind::kGlobalOp;
  global.vclock = 170;
  global.coll = CollectiveKind::kAllreduce;
  global.bytes = 8;
  global.coll_sequence = 0;
  t.ranks[0].events.push_back(global);
  t.ranks[0].final_vclock = 200;

  AnnEvent irecv;
  irecv.kind = AnnEvent::Kind::kIrecv;
  irecv.vclock = 10;
  irecv.request = 2;
  irecv.peer = 0;
  irecv.tag = 0;
  irecv.elem_bytes = 8;
  irecv.bytes = 32;
  irecv.buffer_id = 1;
  irecv.chunkable = true;
  irecv.interval_end = 300;
  irecv.elem_first_load = {20, kNeverAccessed, 50, 60};
  irecv.wait_event_index = 1;
  t.ranks[1].events.push_back(irecv);
  AnnEvent wait2;
  wait2.kind = AnnEvent::Kind::kWait;
  wait2.vclock = 15;
  wait2.wait_requests = {2};
  t.ranks[1].events.push_back(wait2);
  // An untracked receive (no per-element trailer).
  AnnEvent raw;
  raw.kind = AnnEvent::Kind::kRecv;
  raw.vclock = 100;
  raw.peer = 0;
  raw.tag = 3;
  raw.elem_bytes = 8;
  raw.bytes = 16;
  raw.buffer_id = -1;
  t.ranks[1].events.push_back(raw);
  t.ranks[1].final_vclock = 300;
  return t;
}

TEST(AnnotatedIo, RoundTripExact) {
  const AnnotatedTrace t = sample_annotated();
  const std::string text = write_annotated(t);
  const AnnotatedTrace parsed = read_annotated(text);
  EXPECT_EQ(write_annotated(parsed), text);
  EXPECT_EQ(parsed.num_ranks, 2);
  EXPECT_EQ(parsed.app, "ann");
  ASSERT_EQ(parsed.ranks[0].events.size(), 4u);
  ASSERT_EQ(parsed.ranks[1].events.size(), 3u);
  const AnnEvent& send = parsed.ranks[0].events[0];
  EXPECT_EQ(send.elem_last_store[1], kNeverAccessed);
  EXPECT_EQ(send.elem_last_store[2], 42u);
  const AnnEvent& irecv = parsed.ranks[1].events[0];
  EXPECT_EQ(irecv.wait_event_index, 1);
  EXPECT_EQ(irecv.elem_first_load[1], kNeverAccessed);
  EXPECT_TRUE(parsed.ranks[1].events[2].elem_first_load.empty());
}

TEST(AnnotatedIo, FileRoundTripAndTransformStable) {
  const std::string path = ::testing::TempDir() + "/osim_ann_test.ann";
  const AnnotatedTrace t = sample_annotated();
  write_annotated_file(t, path);
  const AnnotatedTrace parsed = read_annotated_file(path);
  EXPECT_EQ(write_annotated(parsed), write_annotated(t));
}

TEST(AnnotatedIo, EmptyAndMissingFilesAreErrors) {
  const std::string path = ::testing::TempDir() + "/osim_ann_empty.ann";
  { std::ofstream touch(path); }
  try {
    read_annotated_file(path);
    ADD_FAILURE() << "an empty file parsed";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(),
                 "annotated trace parse error at line 0: empty annotated "
                 "trace file");
  }
  EXPECT_THROW(read_annotated_file(path + ".missing"), Error);
}

TEST(AnnotatedIo, ParserErrors) {
  EXPECT_THROW(read_annotated("not a header\n"), Error);
  EXPECT_THROW(read_annotated("#OSIM-ANNTRACE v1\nmeta ranks 0\n"), Error);
  EXPECT_THROW(
      read_annotated(
          "#OSIM-ANNTRACE v1\nmeta ranks 1\ns 5 0 0 8 1 0 1 0\n"),
      Error);  // event before rank directive
  EXPECT_THROW(read_annotated("#OSIM-ANNTRACE v1\nmeta ranks 1\n"
                              "rank 0 final 10\nz 1\n"),
               Error);
  // Wrong per-element count.
  EXPECT_THROW(read_annotated("#OSIM-ANNTRACE v1\nmeta ranks 2\n"
                              "rank 0 final 10\n"
                              "s 5 1 0 8 4 0 1 0 1 2\n"),
               Error);
}

// --- annotated text grammar ---------------------------------------------------
//
// Each rule of the format comment in annotated_io.hpp, checked by parsing a
// variant spelling and comparing the result field by field against the
// canonical text's parse.

/// The canonical text of sample_annotated().
constexpr const char* kSampleText =
    "#OSIM-ANNTRACE v1\n"
    "meta app ann\n"
    "meta ranks 2\n"
    "meta mips 2300\n"
    "rank 0 final 200\n"
    "s 100 1 0 8 4 0 1 0 0 - 42 0\n"
    "is 150 7 1 3 8 2 0 1 100 100 100\n"
    "w 160 7\n"
    "g 170 allreduce 0 8 0\n"
    "rank 1 final 300\n"
    "ir 10 2 0 0 8 4 1 1 300 1 20 - 50 60\n"
    "w 15 2\n"
    "r 100 0 3 8 2 -1 0 0 -1\n";

std::string replace_all(std::string text, const std::string& from,
                        const std::string& to) {
  for (std::size_t pos = text.find(from); pos != std::string::npos;
       pos = text.find(from, pos + to.size())) {
    text.replace(pos, from.size(), to);
  }
  return text;
}

TEST(AnnotatedIo, CanonicalTextIsTheWriterOutput) {
  EXPECT_EQ(write_annotated(sample_annotated()), kSampleText);
  EXPECT_EQ(read_annotated(kSampleText), sample_annotated());
}

TEST(AnnotatedIo, StructuralEqualitySeesEveryField) {
  const AnnotatedTrace base = sample_annotated();
  AnnotatedTrace t = base;
  t.ranks[1].events[0].elem_first_load[3] = 61;
  EXPECT_FALSE(t == base);
  t = base;
  t.ranks[0].events[2].wait_requests.push_back(8);
  EXPECT_FALSE(t == base);
  t = base;
  t.ranks[1].final_vclock = 301;
  EXPECT_FALSE(t == base);
  t = base;
  t.mips = 2301.0;
  EXPECT_FALSE(t == base);
  t = base;
  t.ranks[0].events[3].coll_sequence = 1;
  EXPECT_FALSE(t == base);
}

TEST(AnnotatedIo, CommentsStartAnywhereAndBlankLinesAreSkipped) {
  std::string text = kSampleText;
  text = replace_all(text, "meta ranks 2\n",
                     "\n# a whole-line comment\nmeta ranks 2   # ranks\n\n");
  text = replace_all(text, "w 160 7\n", "w 160 7#glued comment\n   \n");
  text = replace_all(text, "rank 1 final 300\n",
                     "rank 1 final 300 # s 1 2 3\n#\n");
  text += "\n# trailing comment, no newline";
  EXPECT_EQ(read_annotated(text), sample_annotated());
}

TEST(AnnotatedIo, AnyWhitespaceSeparatesTokens) {
  std::string crlf = replace_all(kSampleText, "\n", "\r\n");
  EXPECT_EQ(read_annotated(crlf), sample_annotated());
  std::string tabs = replace_all(kSampleText, " ", "\t");
  tabs = replace_all(tabs, "#OSIM-ANNTRACE\tv1", "#OSIM-ANNTRACE v1");
  EXPECT_EQ(read_annotated(tabs), sample_annotated());
  std::string mixed = replace_all(kSampleText, " ", " \t \v\f ");
  mixed = replace_all(mixed, "#OSIM-ANNTRACE \t \v\f v1",
                      "  #OSIM-ANNTRACE v1 \t");
  EXPECT_EQ(read_annotated(mixed), sample_annotated());
}

TEST(AnnotatedIo, MetaLinesComeFirstInAnyOrder) {
  const std::string reordered = replace_all(
      kSampleText, "meta app ann\nmeta ranks 2\nmeta mips 2300\n",
      "meta mips 2.3e3\nmeta ranks 2\nmeta app ann\n");
  EXPECT_EQ(read_annotated(reordered), sample_annotated());
  // Later meta lines override earlier ones; '-' names no app.
  const AnnotatedTrace t = read_annotated(
      replace_all(kSampleText, "meta app ann\n",
                  "meta app first\nmeta app - extra tokens\n"));
  EXPECT_EQ(t.app, "");
  // A meta line after the first non-meta line is not meta any more.
  EXPECT_THROW(read_annotated(std::string(kSampleText) + "meta app late\n"),
               Error);
}

TEST(AnnotatedIo, IntegersMayCarryAPlusSign) {
  std::string text = replace_all(kSampleText, "s 100 1 0 8 4 0 1 0 0 - 42 0",
                                 "s +100 +1 +0 +8 +4 +0 +1 +0 +0 - +42 +0");
  text = replace_all(text, "rank 1 final 300", "rank +1 final +300");
  text = replace_all(text, "w 15 2", "w +15 +2");
  text = replace_all(text, "g 170 allreduce 0 8 0", "g 170 allreduce +0 +8 +0");
  EXPECT_EQ(read_annotated(text), sample_annotated());
  // Leading zeros are plain decimal, not octal.
  text = replace_all(kSampleText, "w 160 7", "w 0160 007");
  EXPECT_EQ(read_annotated(text), sample_annotated());
}

TEST(AnnotatedIo, DashAloneIsTheNeverAccessedSentinel) {
  const AnnotatedTrace t = read_annotated(kSampleText);
  EXPECT_EQ(t.ranks[0].events[0].elem_last_store[1], kNeverAccessed);
  EXPECT_EQ(t.ranks[1].events[0].elem_first_load[1], kNeverAccessed);
  // A literal UINT64_MAX reads as the same value.
  const AnnotatedTrace max = read_annotated(replace_all(
      kSampleText, "s 100 1 0 8 4 0 1 0 0 - 42 0",
      "s 100 1 0 8 4 0 1 0 0 18446744073709551615 42 0"));
  EXPECT_EQ(max, sample_annotated());
  // Anywhere else '-' or a leading '-' is not an unsigned integer.
  EXPECT_THROW(read_annotated(replace_all(kSampleText, "w 15 2", "w - 2")),
               Error);
  EXPECT_THROW(read_annotated(replace_all(kSampleText, "- 42 0", "-1 42 0")),
               Error);
  EXPECT_THROW(read_annotated(replace_all(kSampleText, "- 42 0", "-- 42 0")),
               Error);
}

// --- annotated parse errors, with the line they name -------------------------

/// The message of the osim::Error that parsing `text` throws ("" if none).
std::string parse_error(const std::string& text) {
  try {
    read_annotated(text);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

std::string at(int line, const std::string& why) {
  return "annotated trace parse error at line " + std::to_string(line) +
         ": " + why;
}

constexpr const char* kHead = "#OSIM-ANNTRACE v1\nmeta ranks 2\n";

TEST(AnnotatedIo, HeaderAndMetaErrorsNameTheirLine) {
  EXPECT_EQ(parse_error(""), at(0, "empty annotated trace file"));
  EXPECT_EQ(parse_error("not a header\n"),
            at(1, "missing '#OSIM-ANNTRACE v1' header"));
  EXPECT_EQ(parse_error("\n#OSIM-ANNTRACE v1\nmeta ranks 2\n"),
            at(1, "missing '#OSIM-ANNTRACE v1' header"));
  EXPECT_EQ(parse_error("#OSIM-ANNTRACE v2\nmeta ranks 2\n"),
            at(1, "missing '#OSIM-ANNTRACE v1' header"));
  EXPECT_EQ(parse_error("#OSIM-ANNTRACE v1\nmeta ranks 0\n"),
            at(2, "ranks must be positive"));
  EXPECT_EQ(parse_error("#OSIM-ANNTRACE v1\n\n# c\nmeta ranks -3\n"),
            at(4, "ranks must be positive"));
  EXPECT_EQ(parse_error("#OSIM-ANNTRACE v1\nmeta ranks two\n"),
            at(2, "bad integer 'two'"));
  EXPECT_EQ(parse_error("#OSIM-ANNTRACE v1\nmeta ranks 2\nmeta mips 0\n"),
            at(3, "bad mips value"));
  EXPECT_EQ(parse_error("#OSIM-ANNTRACE v1\nmeta ranks 2\nmeta mips x\n"),
            at(3, "bad mips value"));
  EXPECT_EQ(parse_error("#OSIM-ANNTRACE v1\nmeta ranks 2\nmeta color red\n"),
            at(3, "unknown meta key 'color'"));
  EXPECT_EQ(parse_error("#OSIM-ANNTRACE v1\nmeta ranks\n"),
            at(2, "too few fields"));
  EXPECT_EQ(parse_error("#OSIM-ANNTRACE v1\nmeta app x\n\n"),
            at(3, "annotated trace missing 'meta ranks'"));
}

TEST(AnnotatedIo, RankDirectiveErrorsNameTheirLine) {
  const std::string head = kHead;
  EXPECT_EQ(parse_error(head + "rank 0 final\n"), at(3, "too few fields"));
  EXPECT_EQ(parse_error(head + "rank 0 last 10\n"),
            at(3, "expected 'rank N final CLOCK'"));
  EXPECT_EQ(parse_error(head + "rank x final 10\n"),
            at(3, "bad integer 'x'"));
  EXPECT_EQ(parse_error(head + "rank 2 final 10\n"),
            at(3, "rank out of range"));
  EXPECT_EQ(parse_error(head + "rank -1 final 10\n"),
            at(3, "rank out of range"));
  EXPECT_EQ(parse_error(head + "rank 0 final -10\n"),
            at(3, "bad unsigned integer '-10'"));
  EXPECT_EQ(parse_error(head + "s 5 1 0 8 1 0 1 0\n"),
            at(3, "event before any 'rank' directive"));
  EXPECT_EQ(parse_error(head + "rank 0 final 1\nmeta app x\n"),
            at(4, "unknown event type 'meta'"));
}

TEST(AnnotatedIo, EventErrorsNameTheirLine) {
  const std::string head = std::string(kHead) + "rank 0 final 10\n";
  // Comment and blank lines inside the body still count.
  EXPECT_EQ(parse_error(head + "# note\n\n  \nz 1\n"),
            at(7, "unknown event type 'z'"));
  EXPECT_EQ(parse_error(head + "s 5 1 0 8 4 0 1 0 1 2\n"),
            at(4, "expected 4 per-element times, got 2"));
  EXPECT_EQ(parse_error(head + "r 5 1 0 8 1 0 1 9 0 1 2\n"),
            at(4, "expected 1 per-element times, got 2"));
  EXPECT_EQ(parse_error(head + "s 5 1 0 8\n"), at(4, "missing field"));
  EXPECT_EQ(parse_error(head + "is 5\n"), at(4, "missing field"));
  EXPECT_EQ(parse_error(head + "s 5 one 0 8 1 -1 0 0\n"),
            at(4, "bad integer 'one'"));
  EXPECT_EQ(parse_error(head + "s 5 1 0 8 1 -1 0 0 x\n"),
            at(4, "bad unsigned integer 'x'"));
  EXPECT_EQ(parse_error(head + "s 5 1 0 8 1 -1 0 0 -\n"), "");
  EXPECT_EQ(parse_error(head + "w 5\n"), at(4, "wait with no requests"));
  EXPECT_EQ(parse_error(head + "w 5 # 7\n"), at(4, "wait with no requests"));
  EXPECT_EQ(parse_error(head + "w 5 1 x\n"), at(4, "bad integer 'x'"));
  EXPECT_EQ(parse_error(head + "g 5 allgossip 0 8 0\n"),
            at(4, "unknown collective"));
  EXPECT_EQ(parse_error(head + "g 5 barrier 0 8\n"), at(4, "missing field"));
  EXPECT_EQ(parse_error(head + "g 5 barrier 0 +-8 0\n"),
            at(4, "bad unsigned integer '+-8'"));
  EXPECT_EQ(parse_error(head + "g 5 barrier 0 8 0\nrank 1 final 3\ns 1\n"),
            at(6, "missing field"));
  EXPECT_EQ(parse_error(head + "s 99999999999999999999 1 0 8 1 -1 0 0\n"),
            at(4, "bad unsigned integer '99999999999999999999'"));
  EXPECT_EQ(parse_error(head + "s 1 1 9223372036854775808 8 1 -1 0 0\n"),
            at(4, "bad integer '9223372036854775808'"));
  EXPECT_EQ(parse_error(head + "s 1 1 0x10 8 1 -1 0 0\n"),
            at(4, "bad integer '0x10'"));
}

TEST(AnnotatedIo, ValuesThatDoNotFitTheirFieldAreErrors) {
  const std::string head = std::string(kHead) + "rank 0 final 10\n";
  // 2^32 + 1 once read back as peer 1; every narrowed field is checked.
  EXPECT_EQ(parse_error(head + "s 5 4294967297 0 8 1 -1 0 0\n"),
            at(4, "integer '4294967297' out of range"));
  EXPECT_EQ(parse_error(head + "g 5 bcast -2147483649 8 0\n"),
            at(4, "integer '-2147483649' out of range"));
  EXPECT_EQ(parse_error(head + "r 5 1 0 4294967296 1 -1 0 9 -1\n"),
            at(4, "integer '4294967296' out of range"));
  EXPECT_EQ(parse_error(head + "r 5 1 0 -8 1 -1 0 9 -1\n"),
            at(4, "integer '-8' out of range"));
  EXPECT_EQ(parse_error("#OSIM-ANNTRACE v1\nmeta ranks 4294967297\n"),
            at(2, "integer '4294967297' out of range"));
  EXPECT_EQ(parse_error(std::string(kHead) + "rank 4294967296 final 10\n"),
            at(3, "integer '4294967296' out of range"));
  // The widest values that do fit still read back exactly.
  const AnnotatedTrace t = read_annotated(
      "#OSIM-ANNTRACE v1\nmeta ranks 1\nrank 0 final 10\n"
      "r 5 -2147483648 -9223372036854775808 4294967295 1 -1 0 9 -1\n");
  const AnnEvent& recv = t.ranks[0].events[0];
  EXPECT_EQ(recv.peer, std::numeric_limits<Rank>::min());
  EXPECT_EQ(recv.tag, std::numeric_limits<Tag>::min());
  EXPECT_EQ(recv.elem_bytes, std::numeric_limits<std::uint32_t>::max());
  EXPECT_EQ(recv.bytes, std::numeric_limits<std::uint32_t>::max());
}

TEST(AnnotatedIo, TransferSizeThatOverflowsIsAnError) {
  const std::string head = std::string(kHead) + "rank 0 final 10\n";
  // 2^61 + 1 elements of 8 bytes once wrapped to one element of 8 bytes.
  EXPECT_EQ(parse_error(head + "s 5 1 0 8 2305843009213693953 -1 0 0\n"),
            at(4, "transfer size overflows: 2305843009213693953 elements "
                  "of 8 bytes"));
  EXPECT_EQ(
      parse_error(head + "ir 5 3 1 0 2 9223372036854775808 -1 0 9 -1\n"),
      at(4, "transfer size overflows: 9223372036854775808 elements of 2 "
            "bytes"));
  // The largest product that fits is not an overflow.
  EXPECT_EQ(parse_error(head + "s 5 1 0 8 2305843009213693951 -1 0 0\n"),
            "");
}

// --- writer output of every app, pinned by length and CRC-32 ------------------
//
// The bytes write_annotated produces for each bundled app at 16 ranks x 2
// iterations (ranks rounded up to one the app supports). A reader or writer
// change that drifts in step with the other keeps the round trip passing;
// these do not. The parse of each text must equal the traced original.

std::string digest(std::string_view bytes) {
  Crc32 crc;
  crc.update(bytes.data(), bytes.size());
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%zu:%08x", bytes.size(), crc.value());
  return buf;
}

TEST(AnnotatedIoGolden, AppTextsArePinned) {
  const std::map<std::string, std::string> expected = {
      {"sweep3d", "928094:acdf3f04"},   {"pop", "256170:b06c9393"},
      {"alya", "12859:3ead2f8d"},       {"specfem3d", "496840:3573e7bc"},
      {"nas_bt", "388265:47487fd4"},    {"nas_cg", "1560153:25f308b7"},
  };
  for (const apps::MiniApp* app : apps::registry()) {
    apps::AppConfig config;
    config.ranks = 16;
    config.iterations = 2;
    while (!app->supports_ranks(config.ranks)) ++config.ranks;
    const AnnotatedTrace traced = apps::trace_app(*app, config).annotated;
    const std::string text = write_annotated(traced);
    EXPECT_EQ(digest(text), expected.at(app->name())) << app->name();
    EXPECT_EQ(read_annotated(text), traced) << app->name();
  }
}

}  // namespace
}  // namespace osim::trace
