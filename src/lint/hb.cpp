#include "lint/hb.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <variant>

#include "common/expect.hpp"
#include "common/strings.hpp"
#include "dimemas/matching.hpp"

namespace osim::lint {

namespace {

using dimemas::RecvEnvelope;
using dimemas::SendEnvelope;
using dimemas::envelope_matches;
using trace::GlobalOp;
using trace::kAnyRank;
using trace::Rank;
using trace::Record;
using trace::Recv;
using trace::ReqId;
using trace::Send;
using trace::Wait;

/// True when every component of `a` is <= the matching component of `b`.
bool dominates(const VectorClock& a, const VectorClock& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] > b[i]) return false;
  }
  return true;
}

void join_into(VectorClock& dst, const VectorClock& src) {
  for (std::size_t i = 0; i < dst.size() && i < src.size(); ++i) {
    dst[i] = std::max(dst[i], src[i]);
  }
}

struct PendingRecv;

struct PendingSend {
  SendEnvelope env;
  bool rendezvous = false;
  bool matched = false;
  std::size_t record = 0;
  VectorClock post;
  const PendingRecv* partner = nullptr;
};

struct PendingRecv {
  RecvEnvelope env;
  bool matched = false;
  std::size_t record = 0;
  VectorClock post;
  const PendingSend* partner = nullptr;
};

struct ReqEntry {
  PendingSend* send = nullptr;  // isend: complete when eager or matched
  PendingRecv* recv = nullptr;  // irecv: complete when matched
  bool complete() const {
    if (send != nullptr) return !send->rendezvous || send->matched;
    if (recv != nullptr) return recv->matched;
    return true;
  }
};

enum class BlockKind { kNone, kSend, kRecv, kWait, kCollective };

struct RankMachine {
  std::size_t pc = 0;
  bool finished = false;
  VectorClock clock;
  BlockKind block = BlockKind::kNone;
  std::size_t block_record = 0;
  PendingSend* blocked_send = nullptr;
  PendingRecv* blocked_recv = nullptr;
  std::vector<ReqId> wait_pending;      // kWait: not-yet-complete requests
  std::vector<ReqId> wait_all;          // kWait: the full request list
  std::int64_t coll_ordinal = 0;        // kCollective: my arrival ordinal
  std::int64_t colls_arrived = 0;       // collectives this rank reached
  std::map<ReqId, ReqEntry> requests;
};

/// The abstract machine with a vector clock threaded through every state
/// transition. Every blocking record sets a block, which advance() resolves
/// at once when its condition already holds, so a rank stops only at a
/// record whose dependency is unmet.
class ClockedMachine {
 public:
  ClockedMachine(const trace::Trace& trace, std::uint64_t eager_threshold)
      : trace_(trace), eager_threshold_(eager_threshold) {
    const std::size_t n = trace.ranks.size();
    machines_.resize(n);
    unmatched_sends_.resize(n);
    unmatched_recvs_.resize(n);
    coll_arrivals_.resize(n);
    analysis_.num_ranks = trace.num_ranks;
    analysis_.post_clocks.resize(n);
    analysis_.completion_clocks.resize(n);
    for (std::size_t r = 0; r < n; ++r) {
      machines_[r].clock.assign(n, 0);
      analysis_.post_clocks[r].resize(trace.ranks[r].size());
      analysis_.completion_clocks[r].resize(trace.ranks[r].size());
    }
  }

  HbAnalysis run() {
    bool progress = true;
    while (progress) {
      progress = false;
      for (Rank r = 0; r < trace_.num_ranks; ++r) {
        if (advance(r)) progress = true;
      }
    }
    for (Rank r = 0; r < trace_.num_ranks; ++r) {
      const RankMachine& m = machines_[static_cast<std::size_t>(r)];
      if (!m.finished) analysis_.stuck.push_back(stuck_rank(r, m));
    }
    analysis_.converged = analysis_.stuck.empty();
    for (const PendingSend& send : sends_pool_) {
      if (!send.matched || send.partner == nullptr) continue;
      analysis_.matches.push_back(HbMatch{send.env.src, send.record,
                                          send.env.dst,
                                          send.partner->record});
    }
    return std::move(analysis_);
  }

 private:
  RankMachine& machine(Rank r) {
    return machines_[static_cast<std::size_t>(r)];
  }
  const std::vector<Record>& stream(Rank r) const {
    return trace_.ranks[static_cast<std::size_t>(r)];
  }

  bool in_range(Rank r) const { return r >= 0 && r < trace_.num_ranks; }

  bool block_resolved(const RankMachine& m) const {
    switch (m.block) {
      case BlockKind::kNone:
        return true;
      case BlockKind::kSend:
        return m.blocked_send->matched;
      case BlockKind::kRecv:
        return m.blocked_recv->matched;
      case BlockKind::kWait:
        return std::all_of(m.wait_pending.begin(), m.wait_pending.end(),
                           [&](ReqId req) {
                             const auto it = m.requests.find(req);
                             return it == m.requests.end() ||
                                    it->second.complete();
                           });
      case BlockKind::kCollective:
        return std::all_of(machines_.begin(), machines_.end(),
                           [&](const RankMachine& other) {
                             return other.colls_arrived > m.coll_ordinal;
                           });
    }
    OSIM_UNREACHABLE("bad block kind");
  }

  /// Applies the completion joins of the resolved blocking record and
  /// timestamps it.
  void resolve_block(Rank r, RankMachine& m) {
    switch (m.block) {
      case BlockKind::kSend:
        if (m.blocked_send->partner != nullptr) {
          join_into(m.clock, m.blocked_send->partner->post);
        }
        break;
      case BlockKind::kRecv:
        if (m.blocked_recv->partner != nullptr) {
          join_into(m.clock, m.blocked_recv->partner->post);
        }
        break;
      case BlockKind::kWait:
        for (const ReqId req : m.wait_all) {
          const auto it = m.requests.find(req);
          if (it == m.requests.end()) continue;
          const ReqEntry& entry = it->second;
          if (entry.recv != nullptr && entry.recv->partner != nullptr) {
            join_into(m.clock, entry.recv->partner->post);
          } else if (entry.send != nullptr && entry.send->rendezvous &&
                     entry.send->partner != nullptr) {
            join_into(m.clock, entry.send->partner->post);
          }
          // Eager isend: completes locally, no synchronization edge.
        }
        break;
      case BlockKind::kCollective: {
        const std::size_t k = static_cast<std::size_t>(m.coll_ordinal);
        for (const std::vector<VectorClock>& arrivals : coll_arrivals_) {
          if (k < arrivals.size()) join_into(m.clock, arrivals[k]);
        }
        break;
      }
      case BlockKind::kNone:
        break;
    }
    analysis_.completion_clocks[static_cast<std::size_t>(r)][m.block_record] =
        m.clock;
    m.block = BlockKind::kNone;
  }

  bool advance(Rank r) {
    RankMachine& m = machine(r);
    bool progressed = false;
    while (!m.finished) {
      if (m.block != BlockKind::kNone) {
        if (!block_resolved(m)) return progressed;
        resolve_block(r, m);
        progressed = true;
      }
      const auto& recs = stream(r);
      if (m.pc >= recs.size()) {
        m.finished = true;
        progressed = true;
        break;
      }
      const std::size_t i = m.pc++;
      progressed = true;
      execute(r, m, i, recs[i]);
    }
    return progressed;
  }

  void execute(Rank r, RankMachine& m, std::size_t i, const Record& rec) {
    const std::size_t idx = static_cast<std::size_t>(r);
    ++m.clock[idx];  // program-order tick: every record gets a unique clock
    analysis_.post_clocks[idx][i] = m.clock;
    // Until a blocking condition says otherwise, the record completes at
    // its post clock.
    analysis_.completion_clocks[idx][i] = m.clock;

    if (const auto* send = std::get_if<Send>(&rec)) {
      if (!in_range(send->dest) || send->dest == r) return;  // match pass
      sends_pool_.push_back(PendingSend{
          SendEnvelope{r, send->dest, send->tag, send->bytes},
          send->synchronous || send->bytes > eager_threshold_, false, i,
          m.clock, nullptr});
      PendingSend* ps = &sends_pool_.back();
      match_send(ps);
      if (send->immediate) {
        if (send->request != trace::kNoRequest) {
          m.requests[send->request] = ReqEntry{ps, nullptr};
        }
        return;
      }
      if (ps->rendezvous) {
        m.block = BlockKind::kSend;
        m.block_record = i;
        m.blocked_send = ps;  // resolved (maybe immediately) in advance()
      }
    } else if (const auto* recv = std::get_if<Recv>(&rec)) {
      if ((recv->src != kAnyRank && !in_range(recv->src)) ||
          recv->src == r) {
        return;  // reported by the match pass
      }
      recvs_pool_.push_back(PendingRecv{
          RecvEnvelope{recv->src, r, recv->tag, recv->bytes}, false, i,
          m.clock, nullptr});
      PendingRecv* pr = &recvs_pool_.back();
      match_recv(pr);
      if (recv->immediate) {
        if (recv->request != trace::kNoRequest) {
          m.requests[recv->request] = ReqEntry{nullptr, pr};
        }
        return;
      }
      m.block = BlockKind::kRecv;
      m.block_record = i;
      m.blocked_recv = pr;
    } else if (const auto* wait = std::get_if<Wait>(&rec)) {
      std::vector<ReqId> pending;
      for (const ReqId req : wait->requests) {
        const auto it = m.requests.find(req);
        // Unknown requests are the requests pass's finding; treat them as
        // complete so one defect does not cascade.
        if (it != m.requests.end() && !it->second.complete()) {
          pending.push_back(req);
        }
      }
      m.block = BlockKind::kWait;
      m.block_record = i;
      m.wait_pending = std::move(pending);
      m.wait_all = wait->requests;
    } else if (std::get_if<GlobalOp>(&rec) != nullptr) {
      coll_arrivals_[idx].push_back(m.clock);
      m.coll_ordinal = m.colls_arrived++;
      m.block = BlockKind::kCollective;
      m.block_record = i;
    }
    // CpuBurst: no dependency.
  }

  void match_send(PendingSend* send) {
    auto& recvs = unmatched_recvs_[static_cast<std::size_t>(send->env.dst)];
    for (auto it = recvs.begin(); it != recvs.end(); ++it) {
      if (envelope_matches((*it)->env, send->env)) {
        (*it)->matched = true;
        (*it)->partner = send;
        send->matched = true;
        send->partner = *it;
        recvs.erase(it);
        return;
      }
    }
    unmatched_sends_[static_cast<std::size_t>(send->env.dst)].push_back(send);
  }

  void match_recv(PendingRecv* recv) {
    auto& sends = unmatched_sends_[static_cast<std::size_t>(recv->env.dst)];
    for (auto it = sends.begin(); it != sends.end(); ++it) {
      if (envelope_matches(recv->env, (*it)->env)) {
        (*it)->matched = true;
        (*it)->partner = recv;
        recv->matched = true;
        recv->partner = *it;
        sends.erase(it);
        return;
      }
    }
    unmatched_recvs_[static_cast<std::size_t>(recv->env.dst)].push_back(recv);
  }

  /// Where stuck rank `r` is blocked, what it needs, and the ranks it
  /// waits on (blame edges).
  HbStuckRank stuck_rank(Rank r, const RankMachine& m) const {
    HbStuckRank stuck{r, m.block_record, {}, {}};
    std::set<Rank> targets;
    const auto running_peers = [&] {
      for (Rank o = 0; o < trace_.num_ranks; ++o) {
        if (o != r && !machines_[static_cast<std::size_t>(o)].finished) {
          targets.insert(o);
        }
      }
    };
    switch (m.block) {
      case BlockKind::kSend:
        targets.insert(m.blocked_send->env.dst);
        stuck.needs =
            strprintf("a matching recv on rank %d", m.blocked_send->env.dst);
        break;
      case BlockKind::kRecv:
        if (m.blocked_recv->env.src != kAnyRank) {
          targets.insert(m.blocked_recv->env.src);
          stuck.needs = strprintf("a matching send from rank %d",
                                  m.blocked_recv->env.src);
        } else {
          running_peers();
          stuck.needs = "a matching send from ANY_SOURCE";
        }
        break;
      case BlockKind::kWait:
        for (const ReqId req : m.wait_pending) {
          const auto it = m.requests.find(req);
          if (it == m.requests.end() || it->second.complete()) continue;
          if (it->second.send != nullptr) {
            targets.insert(it->second.send->env.dst);
          } else if (it->second.recv->env.src != kAnyRank) {
            targets.insert(it->second.recv->env.src);
          } else {
            running_peers();
          }
        }
        stuck.needs =
            strprintf("%zu incomplete request(s)", m.wait_pending.size());
        break;
      case BlockKind::kCollective:
        for (Rank o = 0; o < trace_.num_ranks; ++o) {
          if (o != r && machines_[static_cast<std::size_t>(o)].colls_arrived <=
                            m.coll_ordinal) {
            targets.insert(o);
          }
        }
        stuck.needs = strprintf("collective #%lld arrival",
                                static_cast<long long>(m.coll_ordinal));
        break;
      case BlockKind::kNone:
        break;
    }
    stuck.waits_on.assign(targets.begin(), targets.end());
    return stuck;
  }

  const trace::Trace& trace_;
  const std::uint64_t eager_threshold_;
  std::vector<RankMachine> machines_;
  // Stable-address pools; inbox deques and partner pointers point into them.
  std::deque<PendingSend> sends_pool_;
  std::deque<PendingRecv> recvs_pool_;
  std::vector<std::deque<PendingSend*>> unmatched_sends_;
  std::vector<std::deque<PendingRecv*>> unmatched_recvs_;
  std::vector<std::vector<VectorClock>> coll_arrivals_;  // per rank, ordinal
  HbAnalysis analysis_;
};

}  // namespace

bool hb_before(const VectorClock& a, const VectorClock& b) {
  if (a.empty() || b.empty()) return false;
  return dominates(a, b) && a != b;
}

bool hb_concurrent(const VectorClock& a, const VectorClock& b) {
  if (a.empty() || b.empty()) return false;
  return !dominates(a, b) && !dominates(b, a);
}

std::string clock_to_string(const VectorClock& clock) {
  std::string out = "[";
  for (std::size_t i = 0; i < clock.size(); ++i) {
    if (i > 0) out += ',';
    out += strprintf("%llu", static_cast<unsigned long long>(clock[i]));
  }
  out += ']';
  return out;
}

HbAnalysis analyze_happens_before(const trace::Trace& trace,
                                  std::uint64_t eager_threshold_bytes) {
  return ClockedMachine(trace, eager_threshold_bytes).run();
}

}  // namespace osim::lint
