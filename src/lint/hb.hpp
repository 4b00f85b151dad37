// Happens-before engine: the linter's one abstract machine.
//
// An untimed abstract interpretation of every rank — no simulated time, no
// network model — executed round-robin to a fixed point under the
// replayer's matching discipline (dimemas/matching.hpp) and the
// eager/rendezvous protocol split: sends at or below the eager threshold
// complete locally, larger or synchronous sends block until their receive
// is posted. Every record is timestamped with a vector clock:
//
//   program order   executing record i of rank r ticks component r, so the
//                   clock of record i strictly dominates that of record i-1;
//   message edges   a receive's *completion* joins the matching send's post
//                   clock (data cannot arrive before it was sent), and a
//                   rendezvous send's completion joins the matching
//                   receive's post clock (the transfer cannot start before
//                   the receive is posted). Eager sends complete locally
//                   and contribute no synchronization;
//   waits           join the message edges of every request they complete;
//   collectives     the k-th collective completes at the join of all ranks'
//                   arrival clocks at their k-th collective — a barrier
//                   approximation that is deliberately conservative (it
//                   orders more than a real non-synchronizing collective
//                   would, so HB-based race checks under-report rather than
//                   invent ordering violations... conservatively assuming
//                   MORE order suppresses races; see races.hpp for how the
//                   race pass compensates).
//
// Two records are ordered (a happens-before b) iff clock(a) <= clock(b)
// componentwise and the clocks differ; otherwise they are concurrent.
//
// At the fixed point every rank that has not finished its stream is
// recorded in HbAnalysis::stuck with its blocked record, what it needs and
// the ranks it waits on. The deadlock, race and overlap-hazard passes are
// pure functions of the resulting HbAnalysis, so lint_trace() runs this
// machine once per trace.
//
// The engine is total on damaged traces: it never executes past a blocked
// rank, so a deadlocked or salvage-truncated trace simply leaves some
// records without clocks (empty vectors) and `converged` false. Passes on
// top must treat a missing clock as "unknown order" and stay silent.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/trace.hpp"

namespace osim::lint {

/// Default rendezvous cutoff, mirroring dimemas::Platform's default eager
/// threshold: sends at or below this size are assumed buffered and never
/// block; larger (or synchronous) sends block until the receive is posted.
inline constexpr std::uint64_t kDefaultEagerThresholdBytes = 16 * 1024;

/// One component per rank; component r counts records executed by rank r.
using VectorClock = std::vector<std::uint64_t>;

/// True when `a` happens-before `b` (componentwise <=, and a != b). Empty
/// clocks (records the abstract machine never executed) are unordered.
bool hb_before(const VectorClock& a, const VectorClock& b);

/// True when neither clock orders the other (and both are known).
bool hb_concurrent(const VectorClock& a, const VectorClock& b);

/// Render as "[1,0,2]" for diagnostics evidence.
std::string clock_to_string(const VectorClock& clock);

/// A matched point-to-point pair, as paired by the abstract machine.
struct HbMatch {
  trace::Rank src = -1;
  std::size_t send_record = 0;  // index in the sender's stream
  trace::Rank dst = -1;
  std::size_t recv_record = 0;  // index in the receiver's stream
};

/// A rank the machine could not run to the end of its stream.
struct HbStuckRank {
  trace::Rank rank = -1;
  std::size_t record = 0;  // the record it is blocked at
  /// What it needs, e.g. "a matching recv on rank 1" or "collective #2
  /// arrival".
  std::string needs;
  /// Ranks it waits on (blame targets), ascending; may name ranks that
  /// finished without satisfying it.
  std::vector<trace::Rank> waits_on;
};

struct HbAnalysis {
  std::int32_t num_ranks = 0;
  /// All ranks ran their streams to completion. False on deadlock or
  /// starvation (the deadlock pass reports those); clocks of unexecuted
  /// records stay empty.
  bool converged = false;
  /// Ranks blocked at the fixed point, ascending; empty when converged.
  std::vector<HbStuckRank> stuck;

  /// post_clocks[r][i]: rank r's clock immediately after *posting* record i
  /// (program-order tick applied, no completion joins). Empty when the
  /// record was never executed.
  std::vector<std::vector<VectorClock>> post_clocks;
  /// completion_clocks[r][i]: the clock once record i's blocking condition
  /// resolved (equal to the post clock for records that never block).
  std::vector<std::vector<VectorClock>> completion_clocks;

  std::vector<HbMatch> matches;

  const VectorClock& post(trace::Rank r, std::size_t i) const {
    return post_clocks[static_cast<std::size_t>(r)][i];
  }
  const VectorClock& completion(trace::Rank r, std::size_t i) const {
    return completion_clocks[static_cast<std::size_t>(r)][i];
  }
};

/// Runs the clocked abstract interpretation. Never throws on trace content;
/// the trace must be structurally sound (ranks.size() == num_ranks — see
/// lint_trace()'s structure pre-pass).
HbAnalysis analyze_happens_before(const trace::Trace& trace,
                                  std::uint64_t eager_threshold_bytes =
                                      kDefaultEagerThresholdBytes);

}  // namespace osim::lint
