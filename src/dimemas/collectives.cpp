#include "dimemas/collectives.hpp"

#include <algorithm>
#include <string>

#include "common/expect.hpp"

namespace osim::dimemas {

using trace::CollectiveKind;
using trace::CpuBurst;
using trace::GlobalOp;
using trace::Rank;
using trace::Record;
using trace::Recv;
using trace::ReqId;
using trace::Send;
using trace::Tag;
using trace::Trace;
using trace::Wait;

const char* collective_algo_name(CollectiveAlgo algo) {
  switch (algo) {
    case CollectiveAlgo::kBinomialTree:
      return "binomial-tree";
    case CollectiveAlgo::kLinear:
      return "linear";
    case CollectiveAlgo::kRecursiveDoubling:
      return "recursive-doubling";
  }
  OSIM_UNREACHABLE("bad CollectiveAlgo");
}

CollectiveAlgo parse_collective_algo(std::string_view name) {
  for (const CollectiveAlgo algo :
       {CollectiveAlgo::kBinomialTree, CollectiveAlgo::kLinear,
        CollectiveAlgo::kRecursiveDoubling}) {
    if (name == collective_algo_name(algo)) return algo;
  }
  throw UsageError("unknown collective algorithm: " + std::string(name));
}

bool has_collectives(const Trace& trace) {
  for (const auto& stream : trace.ranks) {
    for (const auto& rec : stream) {
      if (std::holds_alternative<GlobalOp>(rec)) return true;
    }
  }
  return false;
}

trace::Tag collective_tag(std::int64_t sequence, int phase) {
  OSIM_CHECK(sequence >= 0);
  OSIM_CHECK(phase >= 0 && phase < 16);
  return -(sequence * 16 + phase + 1);
}

namespace {

// Message phases within one collective op.
constexpr int kPhaseFanIn = 0;    // barrier up / reduce / gather
constexpr int kPhaseFanOut = 1;   // barrier down / bcast / scatter
constexpr int kPhaseExchange = 2; // alltoall rounds
constexpr int kPhaseRound0 = 3;   // log-round algorithms: phase per round
                                  // (phases 3..15 → up to 8192 ranks)

struct Expander {
  const Trace& in;
  Rank rank;
  std::vector<Record>* out;
  ReqId next_request;
  CollectiveAlgo algo = CollectiveAlgo::kBinomialTree;

  Rank size() const { return in.num_ranks; }

  void send_to(Rank dest, Tag tag, std::uint64_t bytes) {
    out->push_back(Send{dest, tag, bytes, false, trace::kNoRequest});
  }
  void recv_from(Rank src, Tag tag, std::uint64_t bytes) {
    out->push_back(Recv{src, tag, bytes, false, trace::kNoRequest});
  }

  /// Subtree size of virtual rank `vrank` in a binomial tree over P nodes:
  /// the number of ranks whose fan-out messages flow through vrank
  /// (including itself).
  static Rank subtree_size(Rank vrank, Rank p) {
    if (vrank == 0) return p;
    // vrank's subtree spans [vrank, vrank + 2^k) clipped to P, where 2^k is
    // the lowest set bit of vrank.
    const Rank lowbit = vrank & (-vrank);
    return std::min<Rank>(lowbit, p - vrank);
  }

  /// Binomial fan-in to `root`. bytes_of(child_vrank) gives the payload on
  /// the edge child → parent.
  template <typename BytesFn>
  void fan_in(Rank root, Tag tag, BytesFn bytes_of) {
    const Rank p = size();
    const Rank vrank = static_cast<Rank>((rank - root + p) % p);
    Rank mask = 1;
    while (mask < p) {
      if ((vrank & mask) == 0) {
        const Rank child = vrank | mask;
        if (child < p) {
          recv_from(static_cast<Rank>((child + root) % p), tag,
                    bytes_of(child));
        }
      } else {
        const Rank parent = vrank & ~mask;
        send_to(static_cast<Rank>((parent + root) % p), tag, bytes_of(vrank));
        break;
      }
      mask <<= 1;
    }
  }

  /// Binomial fan-out from `root`. bytes_of(child_vrank) gives the payload
  /// on the edge parent → child.
  template <typename BytesFn>
  void fan_out(Rank root, Tag tag, BytesFn bytes_of) {
    const Rank p = size();
    const Rank vrank = static_cast<Rank>((rank - root + p) % p);
    Rank mask = 1;
    while (mask < p) {
      if (vrank & mask) {
        const Rank parent = vrank & ~mask;
        recv_from(static_cast<Rank>((parent + root) % p), tag,
                  bytes_of(vrank));
        break;
      }
      mask <<= 1;
    }
    mask >>= 1;
    while (mask > 0) {
      const Rank child = vrank | mask;
      if (child < p && child != vrank) {
        send_to(static_cast<Rank>((child + root) % p), tag, bytes_of(child));
      }
      mask >>= 1;
    }
  }

  /// Flat star fan-in: the root receives one message from every peer, in
  /// rank order; peers just send.
  template <typename BytesFn>
  void linear_fan_in(Rank root, Tag tag, BytesFn bytes_of) {
    const Rank p = size();
    if (rank == root) {
      for (Rank v = 1; v < p; ++v) {
        recv_from(static_cast<Rank>((v + root) % p), tag, bytes_of(v));
      }
    } else {
      const Rank vrank = static_cast<Rank>((rank - root + p) % p);
      send_to(root, tag, bytes_of(vrank));
    }
  }

  /// Flat star fan-out: the root sends one message to every peer.
  template <typename BytesFn>
  void linear_fan_out(Rank root, Tag tag, BytesFn bytes_of) {
    const Rank p = size();
    if (rank == root) {
      for (Rank v = 1; v < p; ++v) {
        send_to(static_cast<Rank>((v + root) % p), tag, bytes_of(v));
      }
    } else {
      const Rank vrank = static_cast<Rank>((rank - root + p) % p);
      recv_from(root, tag, bytes_of(vrank));
    }
  }

  /// Dissemination exchange (works for any P): ceil(log2 P) rounds; in
  /// round k each rank sends to (rank + 2^k) mod P and receives from
  /// (rank - 2^k) mod P, using irecv+send+wait to stay deadlock-free.
  /// Implements the dissemination barrier and, with payloads, the
  /// recursive-doubling-style allreduce.
  void dissemination(std::int64_t sequence, std::uint64_t bytes) {
    const Rank p = size();
    int round = 0;
    for (Rank step = 1; step < p; step <<= 1, ++round) {
      const Rank dst = static_cast<Rank>((rank + step) % p);
      const Rank src = static_cast<Rank>((rank - step + p) % p);
      const ReqId req = next_request++;
      // One tag phase per round keeps rounds apart (needed when src == dst,
      // e.g. P = 2) without colliding with any other op's tags.
      const Tag round_tag = collective_tag(sequence, kPhaseRound0 + round);
      out->push_back(Recv{src, round_tag, bytes, true, req});
      out->push_back(Send{dst, round_tag, bytes, false, trace::kNoRequest});
      out->push_back(Wait{{req}});
    }
  }

  template <typename TreeFn, typename LinearFn>
  void fan_in_dispatch(Rank root, Tag tag, TreeFn bytes_of,
                       LinearFn linear_bytes_of) {
    if (algo == CollectiveAlgo::kLinear) {
      linear_fan_in(root, tag, linear_bytes_of);
    } else {
      fan_in(root, tag, bytes_of);
    }
  }

  template <typename TreeFn, typename LinearFn>
  void fan_out_dispatch(Rank root, Tag tag, TreeFn bytes_of,
                        LinearFn linear_bytes_of) {
    if (algo == CollectiveAlgo::kLinear) {
      linear_fan_out(root, tag, linear_bytes_of);
    } else {
      fan_out(root, tag, bytes_of);
    }
  }

  void expand(const GlobalOp& op) {
    const Rank p = size();
    if (p == 1) return;  // collectives over one rank are no-ops
    const Tag up = collective_tag(op.sequence, kPhaseFanIn);
    const Tag down = collective_tag(op.sequence, kPhaseFanOut);
    const std::uint64_t bytes = op.bytes;
    const bool power_of_two = (p & (p - 1)) == 0;
    if (algo == CollectiveAlgo::kRecursiveDoubling) {
      // Log-round variants where the communication pattern allows; rooted
      // operations fall back to the binomial trees below.
      if (op.kind == CollectiveKind::kBarrier) {
        dissemination(op.sequence, 0);
        return;
      }
      if (op.kind == CollectiveKind::kAllreduce && power_of_two) {
        // Recursive doubling: log2(P) pairwise exchanges of the full
        // payload; the dissemination schedule has the same cost shape.
        dissemination(op.sequence, bytes);
        return;
      }
      if (op.kind == CollectiveKind::kAllgather && power_of_two) {
        // Bruck/recursive-doubling allgather: round k exchanges 2^k blocks.
        Rank accumulated = 1;
        int round = 0;
        for (Rank step = 1; step < p; step <<= 1, ++round) {
          const Rank dst = static_cast<Rank>((rank + step) % p);
          const Rank src = static_cast<Rank>((rank - step + p) % p);
          const ReqId req = next_request++;
          const Tag round_tag =
              collective_tag(op.sequence, kPhaseRound0 + round);
          const std::uint64_t round_bytes =
              bytes * static_cast<std::uint64_t>(accumulated);
          out->push_back(Recv{src, round_tag, round_bytes, true, req});
          out->push_back(
              Send{dst, round_tag, round_bytes, false, trace::kNoRequest});
          out->push_back(Wait{{req}});
          accumulated = static_cast<Rank>(
              std::min<Rank>(p, accumulated * 2));
        }
        return;
      }
    }
    switch (op.kind) {
      case CollectiveKind::kBarrier: {
        auto zero = [](Rank) { return std::uint64_t{0}; };
        fan_in_dispatch(0, up, zero, zero);
        fan_out_dispatch(0, down, zero, zero);
        return;
      }
      case CollectiveKind::kBcast: {
        auto whole = [bytes](Rank) { return bytes; };
        fan_out_dispatch(op.root, down, whole, whole);
        return;
      }
      case CollectiveKind::kReduce: {
        auto whole = [bytes](Rank) { return bytes; };
        fan_in_dispatch(op.root, up, whole, whole);
        return;
      }
      case CollectiveKind::kAllreduce: {
        auto whole = [bytes](Rank) { return bytes; };
        fan_in_dispatch(0, up, whole, whole);
        fan_out_dispatch(0, down, whole, whole);
        return;
      }
      case CollectiveKind::kGather: {
        auto subtree = [bytes, p](Rank v) {
          return bytes * static_cast<std::uint64_t>(subtree_size(v, p));
        };
        auto own = [bytes, p](Rank) { return bytes; };
        (void)p;
        fan_in_dispatch(op.root, up, subtree, own);
        return;
      }
      case CollectiveKind::kScatter: {
        auto subtree = [bytes, p](Rank v) {
          return bytes * static_cast<std::uint64_t>(subtree_size(v, p));
        };
        auto own = [bytes, p](Rank) { return bytes; };
        (void)p;
        fan_out_dispatch(op.root, down, subtree, own);
        return;
      }
      case CollectiveKind::kAllgather: {
        // Gather everyone's `bytes` to rank 0, then broadcast the
        // concatenation (P * bytes) back out.
        auto subtree = [bytes, p](Rank v) {
          return bytes * static_cast<std::uint64_t>(subtree_size(v, p));
        };
        auto own = [bytes, p](Rank) { return bytes; };
        auto all = [bytes, p](Rank) {
          return bytes * static_cast<std::uint64_t>(p);
        };
        fan_in_dispatch(0, up, subtree, own);
        fan_out_dispatch(0, down, all, all);
        return;
      }
      case CollectiveKind::kScan: {
        // Inclusive prefix reduction: a linear chain rank r-1 -> r carrying
        // the running prefix (matches the runtime's implementation).
        if (rank > 0) recv_from(rank - 1, up, bytes);
        if (rank + 1 < p) send_to(rank + 1, up, bytes);
        return;
      }
      case CollectiveKind::kAlltoall: {
        // Pairwise exchange: round i sends to (rank+i)%P while receiving
        // from (rank-i+P)%P. irecv + send + wait keeps it deadlock-free
        // under rendezvous.
        const Tag xtag = collective_tag(op.sequence, kPhaseExchange);
        for (Rank i = 1; i < p; ++i) {
          const Rank dst = static_cast<Rank>((rank + i) % p);
          const Rank src = static_cast<Rank>((rank - i + p) % p);
          const ReqId req = next_request++;
          out->push_back(Recv{src, xtag, bytes, true, req});
          out->push_back(Send{dst, xtag, bytes, false, trace::kNoRequest});
          out->push_back(Wait{{req}});
        }
        return;
      }
    }
    OSIM_UNREACHABLE("bad CollectiveKind");
  }
};

ReqId max_request_id(const std::vector<Record>& stream) {
  ReqId max_id = -1;
  for (const auto& rec : stream) {
    if (const auto* send = std::get_if<Send>(&rec)) {
      if (send->immediate) max_id = std::max(max_id, send->request);
    } else if (const auto* recv = std::get_if<Recv>(&rec)) {
      if (recv->immediate) max_id = std::max(max_id, recv->request);
    }
  }
  return max_id;
}

}  // namespace

Trace expand_collectives(const Trace& trace, CollectiveAlgo algo) {
  Trace out = Trace::make(trace.num_ranks, trace.mips, trace.app);
  for (Rank rank = 0; rank < trace.num_ranks; ++rank) {
    const auto& stream = trace.ranks[static_cast<std::size_t>(rank)];
    auto& out_stream = out.ranks[static_cast<std::size_t>(rank)];
    out_stream.reserve(stream.size());
    Expander expander{trace, rank, &out_stream, max_request_id(stream) + 1,
                      algo};
    for (const Record& rec : stream) {
      if (const auto* op = std::get_if<GlobalOp>(&rec)) {
        expander.expand(*op);
      } else {
        out_stream.push_back(rec);
      }
    }
  }
  return out;
}

}  // namespace osim::dimemas
