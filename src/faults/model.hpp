// Fault & perturbation model for the replay engine.
//
// The paper evaluates overlap on an ideal, failure-free machine; this model
// lets a study ask how robust those conclusions are when the machine
// misbehaves. Four composable mechanism families, all derived from one
// seed (see injector.hpp for the reproducibility contract):
//
//   message loss      eager messages are dropped with probability p and
//                     retransmitted after a timeout with exponential
//                     backoff; rendezvous handshakes are re-issued the same
//                     way. After max_retries consecutive drops the message
//                     counts as a hard stall and is delivered after the
//                     full capped backoff, so the simulation always
//                     terminates.
//   link degradation  time windows during which a node pair's effective
//                     bandwidth is scaled and/or its latency inflated,
//                     applied inside the network models' transfer timing.
//   compute noise     per-burst multiplicative OS-noise perturbation,
//                     generalizing the ad-hoc whatif_straggler bench.
//   stragglers        a rank's effective MIPS rate scaled within a window
//                     (brownout).
//
// A default-constructed FaultModel is inert: enabled() is false, the replay
// engine never instantiates an injector, and results stay bit-identical to
// a build without this library.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/codec.hpp"
#include "trace/record.hpp"

namespace osim::faults {

/// Message loss + retransmission. probability == 0 disables the mechanism.
struct MessageLoss {
  double probability = 0.0;  // per-attempt drop probability in [0, 1]
  double timeout_us = 100.0;  // first retransmission timeout
  double backoff = 2.0;       // timeout multiplier per consecutive drop
  std::int64_t max_retries = 6;  // drops before the message hard-stalls
};

/// Per-burst multiplicative compute perturbation: with `probability`, a
/// burst is stretched by a factor uniform in [1, 1 + magnitude).
struct ComputeNoise {
  double magnitude = 0.0;  // 0 disables the mechanism
  double probability = 1.0;
};

/// Bandwidth/latency degradation window for a node pair. src/dst == -1
/// matches any rank (the spec grammar's "any").
struct LinkDegradation {
  trace::Rank src = -1;
  trace::Rank dst = -1;
  double begin_s = 0.0;
  double end_s = 0.0;          // exclusive; <= begin disables the window
  double bandwidth_scale = 1.0;  // effective bw = bw * scale, in (0, 1]
  double extra_latency_us = 0.0;
};

/// CPU brownout window: `rank`'s MIPS rate is multiplied by cpu_scale for
/// bursts starting inside [begin_s, end_s). rank == -1 matches any rank.
struct Straggler {
  trace::Rank rank = -1;
  double begin_s = 0.0;
  double end_s = 0.0;
  double cpu_scale = 1.0;  // in (0, 1]; < 1 slows the rank down
};

struct FaultModel {
  std::uint64_t seed = 1;
  MessageLoss loss;
  ComputeNoise noise;
  std::vector<LinkDegradation> degradations;
  std::vector<Straggler> stragglers;

  /// True when any mechanism can fire. Everything downstream (injector
  /// construction, fingerprint hashing, report sections) is gated on this,
  /// which is what keeps a faults-off replay bit-identical to pre-fault
  /// builds.
  bool enabled() const {
    return loss.probability > 0.0 || noise.magnitude > 0.0 ||
           !degradations.empty() || !stragglers.empty();
  }
};

/// Event counters accumulated by the injector during one replay. Carried on
/// every SimResult (enabled == false for fault-free runs) so studies can
/// report fault activity without turning on full metrics collection.
struct Counts {
  bool enabled = false;
  std::uint64_t seed = 0;
  std::uint64_t messages_dropped = 0;   // individual dropped attempts
  std::uint64_t retransmits = 0;        // eager re-sends after a drop
  std::uint64_t handshake_reissues = 0; // rendezvous re-handshakes
  std::uint64_t hard_stalls = 0;        // messages that exhausted retries
  std::uint64_t degraded_transfers = 0; // transfers inside a degradation window
  std::uint64_t perturbed_bursts = 0;   // compute bursts hit by noise
  std::uint64_t straggled_bursts = 0;   // bursts scaled by a straggler window
  double injected_delay_s = 0.0;        // total retransmission delay
  double injected_compute_s = 0.0;      // total extra compute time

  friend bool operator==(const Counts&, const Counts&) = default;
};

/// The wire body of Counts, shared by store objects and journal entries.
inline void put_counts(std::string& out, const Counts& c) {
  codec::put_u8(out, c.enabled ? 1 : 0);
  codec::put_u64(out, c.seed);
  codec::put_u64(out, c.messages_dropped);
  codec::put_u64(out, c.retransmits);
  codec::put_u64(out, c.handshake_reissues);
  codec::put_u64(out, c.hard_stalls);
  codec::put_u64(out, c.degraded_transfers);
  codec::put_u64(out, c.perturbed_bursts);
  codec::put_u64(out, c.straggled_bursts);
  codec::put_f64(out, c.injected_delay_s);
  codec::put_f64(out, c.injected_compute_s);
}

/// Inverse of put_counts; latches `in` on a short body or an enabled byte
/// other than 0 or 1 (a flipped bool byte is damage, not data).
inline Counts get_counts(codec::Reader& in) {
  Counts c;
  const std::uint8_t enabled = in.get_u8();
  if (enabled > 1) in.fail();
  c.enabled = enabled == 1;
  c.seed = in.get_u64();
  c.messages_dropped = in.get_u64();
  c.retransmits = in.get_u64();
  c.handshake_reissues = in.get_u64();
  c.hard_stalls = in.get_u64();
  c.degraded_transfers = in.get_u64();
  c.perturbed_bursts = in.get_u64();
  c.straggled_bursts = in.get_u64();
  c.injected_delay_s = in.get_f64();
  c.injected_compute_s = in.get_f64();
  return c;
}

}  // namespace osim::faults
