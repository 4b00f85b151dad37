// The annotated trace: the intermediate representation produced by the
// tracer (the role Valgrind's tool plays in the paper) and consumed by the
// overlap transformation.
//
// Per rank it is a linear sequence of MPI events, each stamped with the
// rank's *virtual clock* (executed instructions) at the moment of the call.
// Computation bursts are implicit: the burst between event k and event k+1
// lasts `events[k+1].vclock - events[k].vclock` instructions (MPI calls
// themselves consume no virtual time).
//
// On top of the plain event stream, send events carry per-element
// *production* annotations (virtual time of the last store to each element
// since the previous send of the same buffer — "the tool ... maintains the
// time of the last update for every chunk") and recv events carry
// per-element *consumption* annotations (virtual time of the first load of
// each element after the receive — "the tool guarantees that the wait for
// each incoming chunk is at the point where that chunk is needed for the
// first time").
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "trace/record.hpp"

namespace osim::trace {

/// Sentinel for "element never stored during the production interval"
/// (send at interval start) / "element never loaded during the consumption
/// interval" (wait can be postponed to the interval end).
inline constexpr std::uint64_t kNeverAccessed =
    std::numeric_limits<std::uint64_t>::max();

struct AnnEvent {
  enum class Kind : std::uint8_t {
    kSend,      // blocking send
    kIsend,     // immediate send; completed by a later kWait
    kRecv,      // blocking recv
    kIrecv,     // immediate recv; completed by a later kWait
    kWait,      // completion of app-level immediate requests
    kGlobalOp,  // collective
  };

  Kind kind = Kind::kSend;
  std::uint64_t vclock = 0;  // virtual instructions at the call

  // --- point-to-point fields -------------------------------------------
  Rank peer = -1;            // dest for sends, src for recvs
  Tag tag = 0;
  std::uint64_t bytes = 0;
  std::uint32_t elem_bytes = 1;   // size of one data element
  std::int64_t buffer_id = -1;    // tracked-buffer identity; -1 = untracked
  ReqId request = kNoRequest;     // kIsend / kIrecv

  // kWait: the app-level requests this wait completes.
  std::vector<ReqId> wait_requests;

  /// True when the overlap transformation may chunk this transfer: the
  /// buffer is tracked, has more than one element, and matching is
  /// deterministic (no wildcards). Alya's one-element reductions are the
  /// paper's canonical non-chunkable case.
  bool chunkable = false;

  // --- production annotations (kSend / kIsend) -------------------------
  /// Virtual clock of the production-interval start: the previous send of
  /// the same buffer, or the moment the buffer was registered.
  std::uint64_t interval_start = 0;
  /// Per element: virtual clock of the last store inside the production
  /// interval; kNeverAccessed when the element was not written.
  std::vector<std::uint64_t> elem_last_store;

  // --- consumption annotations (kRecv / kIrecv) -------------------------
  /// Virtual clock of the consumption-interval end: the next recv of the
  /// same buffer, or the rank's final clock.
  std::uint64_t interval_end = 0;
  /// Per element: virtual clock of the first load inside the consumption
  /// interval; kNeverAccessed when the element was not read.
  std::vector<std::uint64_t> elem_first_load;
  /// For kIrecv: index (into the same rank's event vector) of the kWait
  /// event that completes this request; -1 when unknown.
  std::int64_t wait_event_index = -1;

  // --- collective fields (kGlobalOp) ------------------------------------
  CollectiveKind coll = CollectiveKind::kBarrier;
  Rank root = 0;
  std::int64_t coll_sequence = 0;

  bool operator==(const AnnEvent&) const = default;
};

struct AnnotatedRank {
  std::vector<AnnEvent> events;
  /// Virtual clock at the end of the run (captures the tail compute burst
  /// after the last MPI event).
  std::uint64_t final_vclock = 0;

  bool operator==(const AnnotatedRank&) const = default;
};

struct AnnotatedTrace {
  std::int32_t num_ranks = 0;
  double mips = 1000.0;
  std::string app;
  std::vector<AnnotatedRank> ranks;

  static AnnotatedTrace make(std::int32_t num_ranks, double mips,
                             std::string app = "");

  /// Exact structural equality, field by field (mips compared as a double).
  bool operator==(const AnnotatedTrace&) const = default;
};

/// Structural validation of an annotated trace: vclocks are nondecreasing
/// within each rank, annotation vectors have `bytes / elem_bytes` entries,
/// production times lie within [interval_start, vclock], consumption times
/// within [vclock, interval_end]. Throws osim::Error on the first problem.
void validate(const AnnotatedTrace& trace);

}  // namespace osim::trace
