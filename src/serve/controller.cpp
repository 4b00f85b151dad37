#include "serve/controller.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <filesystem>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/exit_codes.hpp"
#include "common/expect.hpp"
#include "common/signals.hpp"
#include "common/strings.hpp"
#include "metrics/json.hpp"
#include "pipeline/fingerprint.hpp"
#include "serve/job.hpp"
#include "serve/protocol.hpp"
#include "serve/stats.hpp"
#include "serve/worker.hpp"
#include "store/store.hpp"
#include "supervise/journal.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define OSIM_HAVE_SERVE_POSIX 1
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

namespace osim::serve {

#if OSIM_HAVE_SERVE_POSIX

namespace {

void set_nonblock_cloexec(int fd) {
  ::fcntl(fd, F_SETFD, FD_CLOEXEC);
  ::fcntl(fd, F_SETFL, O_NONBLOCK);
}

}  // namespace

struct Controller::Impl {
  explicit Impl(ControllerOptions opts) : options(std::move(opts)) {}

  // --- configuration & long-lived state ------------------------------------

  ControllerOptions options;
  std::unique_ptr<store::ScenarioStore> store;
  std::unique_ptr<supervise::StudyJournal> journal;
  std::unique_ptr<WorkerPool> pool;
  int unix_listen_fd = -1;
  int tcp_listen_fd = -1;
  bool draining = false;
  int exit_code = kExitOk;

  // --- clients --------------------------------------------------------------

  struct Client {
    int fd = -1;
    bool handshaken = false;
    std::string handshake;  // peer handshake bytes collected so far
    FrameReader reader;
    std::string outbox;
    std::size_t outbox_sent = 0;
    bool drop = false;  // protocol violation: close once the outbox drains
  };
  std::map<int, Client> clients;

  // --- jobs -----------------------------------------------------------------

  struct Job {
    ScenarioSpec spec;
    pipeline::Fingerprint ticket;
    std::uint64_t trace_bytes = 0;
    JobState state = JobState::kQueued;
    std::uint32_t attempts = 0;  // worker deaths survived
    std::string report_json;
    std::string error;
    std::set<int> owners;       // submitting clients still attached
    std::vector<int> waiters;   // stream-status clients awaiting terminal
  };
  std::unordered_map<pipeline::Fingerprint, Job, pipeline::FingerprintHash>
      jobs;
  /// Completed tickets in completion order (the in-memory report LRU).
  std::deque<pipeline::Fingerprint> done_order;

  // Scheduling: per-client FIFOs, round-robin across clients, and a
  // priority lane for jobs requeued after a worker death.
  std::map<int, std::deque<pipeline::Fingerprint>> queues;
  std::deque<int> rr;
  std::deque<pipeline::Fingerprint> retries;

  // Admission accounting (jobs in state kQueued).
  std::int64_t queued_jobs = 0;
  std::int64_t queued_bytes = 0;

  // Trace probe cache: fingerprinting a trace costs a full read, so the
  // result is cached per (path, mtime, size).
  struct ProbedTrace {
    std::int64_t mtime_ns = 0;
    std::uint64_t size = 0;
    pipeline::TraceInfo info;
  };
  std::map<std::string, ProbedTrace> trace_cache;

  /// Scenario fingerprints recovered from the journal at startup: the
  /// restart-resume set.
  std::set<std::string> journal_completed;  // hex, set ordering is cheap

  // --- counters (server-stats) ---------------------------------------------

  std::uint64_t submits = 0;
  std::uint64_t dedupe_shared = 0;
  std::uint64_t dedupe_served_memory = 0;
  std::uint64_t dedupe_served_store = 0;
  std::uint64_t journal_hits = 0;
  std::uint64_t busy_rejects = 0;
  std::uint64_t bad_requests = 0;
  std::uint64_t replays_completed = 0;
  std::uint64_t jobs_failed = 0;
  std::uint64_t jobs_cancelled = 0;
  std::uint64_t clients_accepted = 0;

  // --- setup ----------------------------------------------------------------

  void open_store_and_journal() {
    if (options.cache_dir.empty()) return;
    store = std::make_unique<store::ScenarioStore>(options.cache_dir);
    if (!options.journal) return;
    // The service's journal identity is its socket path: the same service
    // restarted resumes its own record, two services on different sockets
    // keep separate ones. Deliberately never append_complete() — an
    // always-on service is never "finished", which keeps gc from evicting
    // the journal out from under the next restart.
    journal = std::make_unique<supervise::StudyJournal>(
        options.cache_dir,
        supervise::study_fingerprint("osim_serve:" + options.socket_path));
    for (const supervise::JournalEntry& entry : journal->recovered()) {
      if (entry.status == supervise::ScenarioStatus::kOk) {
        journal_completed.insert(pipeline::to_hex(entry.fingerprint));
      }
    }
  }

  void open_listeners() {
    if (options.socket_path.empty()) {
      throw UsageError("the analysis service requires --socket");
    }
    if (options.socket_path.size() >= sizeof(sockaddr_un{}.sun_path)) {
      throw UsageError("--socket path too long for a Unix socket");
    }
    unix_listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (unix_listen_fd < 0) {
      throw Error(strprintf("socket: %s", std::strerror(errno)));
    }
    // A stale socket file from a dead server would make bind fail; probe
    // by connecting — refusing means stale, answering means live.
    sockaddr_un addr = {};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, options.socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::bind(unix_listen_fd, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0 &&
        errno == EADDRINUSE) {
      const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
      const bool live =
          probe >= 0 && ::connect(probe, reinterpret_cast<sockaddr*>(&addr),
                                  sizeof(addr)) == 0;
      if (probe >= 0) ::close(probe);
      if (live) {
        ::close(unix_listen_fd);
        throw Error(strprintf("another server is live on %s",
                              options.socket_path.c_str()));
      }
      ::unlink(options.socket_path.c_str());
      if (::bind(unix_listen_fd, reinterpret_cast<sockaddr*>(&addr),
                 sizeof(addr)) != 0) {
        ::close(unix_listen_fd);
        throw Error(strprintf("bind %s: %s", options.socket_path.c_str(),
                              std::strerror(errno)));
      }
    }
    if (::listen(unix_listen_fd, 64) != 0) {
      throw Error(strprintf("listen: %s", std::strerror(errno)));
    }
    set_nonblock_cloexec(unix_listen_fd);

    if (options.tcp_port > 0) {
      tcp_listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (tcp_listen_fd < 0) {
        throw Error(strprintf("socket: %s", std::strerror(errno)));
      }
      const int one = 1;
      ::setsockopt(tcp_listen_fd, SOL_SOCKET, SO_REUSEADDR, &one,
                   sizeof(one));
      sockaddr_in tcp = {};
      tcp.sin_family = AF_INET;
      tcp.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      tcp.sin_port = htons(static_cast<std::uint16_t>(options.tcp_port));
      if (::bind(tcp_listen_fd, reinterpret_cast<sockaddr*>(&tcp),
                 sizeof(tcp)) != 0 ||
          ::listen(tcp_listen_fd, 64) != 0) {
        throw Error(strprintf("tcp port %d: %s", options.tcp_port,
                              std::strerror(errno)));
      }
      set_nonblock_cloexec(tcp_listen_fd);
    }
  }

  // --- client plumbing ------------------------------------------------------

  void accept_clients(int listen_fd) {
    for (;;) {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) return;  // EAGAIN/EINTR: done for now
      set_nonblock_cloexec(fd);
      Client& client = clients[fd];
      client.fd = fd;
      client.outbox = handshake_bytes();
      ++clients_accepted;
    }
  }

  void send_to(Client& client, const ServerMessage& message) {
    const std::string payload = encode_server_message(message);
    if (!append_frame(client.outbox, payload)) {
      append_frame(client.outbox,
                   encode_server_message(ServerMessage(ErrorReply{
                       RpcErrorCode::kFailed,
                       strprintf("reply of %zu bytes exceeds the %u-byte "
                                 "RPC frame cap",
                                 payload.size(), kMaxFrameBytes)})));
    }
  }

  void send_to_fd(int fd, const ServerMessage& message) {
    const auto it = clients.find(fd);
    if (it != clients.end()) send_to(it->second, message);
  }

  void flush_client(Client& client) {
    while (client.outbox_sent < client.outbox.size()) {
      const ssize_t n =
          ::write(client.fd, client.outbox.data() + client.outbox_sent,
                  client.outbox.size() - client.outbox_sent);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        client.drop = true;  // broken pipe: disconnect path cleans up
        return;
      }
      client.outbox_sent += static_cast<std::size_t>(n);
    }
    if (client.outbox_sent == client.outbox.size()) {
      client.outbox.clear();
      client.outbox_sent = 0;
    }
  }

  void disconnect(int fd) {
    const auto it = clients.find(fd);
    if (it == clients.end()) return;
    ::close(fd);
    clients.erase(it);
    queues.erase(fd);
    rr.erase(std::remove(rr.begin(), rr.end(), fd), rr.end());
    // Detach the client everywhere; a queued job nobody owns any more is
    // work nobody wants — cancel it.
    for (auto& [ticket, job] : jobs) {
      job.waiters.erase(
          std::remove(job.waiters.begin(), job.waiters.end(), fd),
          job.waiters.end());
      if (job.owners.erase(fd) != 0 && job.owners.empty() &&
          job.state == JobState::kQueued) {
        cancel_job(job);
      }
    }
  }

  // --- job lifecycle --------------------------------------------------------

  void note_queued(Job& job) {
    ++queued_jobs;
    queued_bytes += static_cast<std::int64_t>(job.trace_bytes);
  }

  void note_unqueued(Job& job) {
    --queued_jobs;
    queued_bytes -= static_cast<std::int64_t>(job.trace_bytes);
  }

  void cancel_job(Job& job) {
    note_unqueued(job);
    job.state = JobState::kCancelled;
    ++jobs_cancelled;
    notify_waiters(job);
  }

  void notify_waiters(Job& job) {
    StatusReply status;
    status.ticket = job.ticket;
    status.state = job.state;
    status.attempts = job.attempts;
    status.error = job.error;
    for (const int fd : job.waiters) send_to_fd(fd, ServerMessage(status));
    job.waiters.clear();
  }

  /// Trims the in-memory job table to report_cache_entries completed
  /// entries; evicted scenarios re-enter through the store tier.
  void trim_done() {
    while (static_cast<std::int64_t>(done_order.size()) >
           options.report_cache_entries) {
      const pipeline::Fingerprint ticket = done_order.front();
      done_order.pop_front();
      const auto it = jobs.find(ticket);
      if (it != jobs.end() && it->second.state == JobState::kDone &&
          it->second.waiters.empty()) {
        jobs.erase(it);
      }
    }
  }

  void complete_job(const JobResult& result) {
    const auto it = jobs.find(result.ticket);
    if (it == jobs.end()) return;  // cancelled and evicted meanwhile
    Job& job = it->second;
    if (job.state != JobState::kRunning) return;
    if (result.ok) {
      job.state = JobState::kDone;
      job.report_json = result.report_json;
      ++replays_completed;
      if (store) {
        try {
          store->save_report(job.ticket, job.report_json);
        } catch (const std::exception&) {
          // Write-behind: the result is in memory; a full disk only costs
          // the next restart a recompute.
        }
      }
      if (journal) {
        supervise::JournalEntry entry;
        entry.fingerprint = job.ticket;
        entry.status = supervise::ScenarioStatus::kOk;
        journal->append(entry);
        journal_completed.insert(pipeline::to_hex(job.ticket));
      }
      done_order.push_back(job.ticket);
    } else {
      job.state = JobState::kFailed;
      job.error = result.error;
      ++jobs_failed;
    }
    notify_waiters(job);
    trim_done();
  }

  /// A worker died with these jobs in flight: requeue (front of the line)
  /// or fail each, depending on how many deaths it has already survived.
  void requeue_lost(const std::vector<JobRequest>& lost) {
    for (const JobRequest& request : lost) {
      const auto it = jobs.find(request.ticket);
      if (it == jobs.end()) continue;
      Job& job = it->second;
      if (job.state != JobState::kRunning) continue;
      ++job.attempts;
      if (static_cast<int>(job.attempts) > options.max_retries) {
        job.state = JobState::kFailed;
        job.error = strprintf(
            "worker died %u times running this scenario (retry limit %d)",
            job.attempts, options.max_retries);
        ++jobs_failed;
        notify_waiters(job);
      } else {
        job.state = JobState::kQueued;
        note_queued(job);
        retries.push_back(job.ticket);
      }
    }
  }

  // --- trace probing --------------------------------------------------------

  const pipeline::TraceInfo* probe_cached(const std::string& path,
                                          std::string* error) {
    namespace fs = std::filesystem;
    std::error_code ec;
    const auto mtime = fs::last_write_time(path, ec);
    if (ec) {
      *error = strprintf("%s: %s", path.c_str(), ec.message().c_str());
      return nullptr;
    }
    const std::int64_t mtime_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            mtime.time_since_epoch())
            .count();
    const std::uint64_t size =
        static_cast<std::uint64_t>(fs::file_size(path, ec));
    const auto it = trace_cache.find(path);
    if (it != trace_cache.end() && it->second.mtime_ns == mtime_ns &&
        it->second.size == size) {
      return &it->second.info;
    }
    try {
      ProbedTrace probed;
      probed.mtime_ns = mtime_ns;
      probed.size = size;
      probed.info = pipeline::probe_trace(path);
      return &(trace_cache[path] = probed).info;
    } catch (const std::exception& e) {
      *error = e.what();
      return nullptr;
    }
  }

  // --- message handling -----------------------------------------------------

  /// Admission check for `fresh` new jobs totalling `fresh_bytes` of trace
  /// input. Dedupe runs before this, so only genuinely new work counts.
  bool admit(std::int64_t fresh, std::int64_t fresh_bytes) {
    if (queued_jobs + fresh > options.max_queue) return false;
    if (queued_bytes + fresh_bytes > options.max_inflight_bytes) return false;
    return true;
  }

  /// One scenario through the dedupe tiers. Returns the ticket info, or
  /// nullopt when the scenario must be admitted as fresh work (the caller
  /// handles admission and enqueue).
  std::optional<TicketInfo> dedupe(const pipeline::Fingerprint& ticket,
                                   int client_fd) {
    const auto it = jobs.find(ticket);
    if (it != jobs.end()) {
      Job& job = it->second;
      switch (job.state) {
        case JobState::kDone:
          ++dedupe_served_memory;
          return TicketInfo{ticket, SubmitDisposition::kServed};
        case JobState::kQueued:
        case JobState::kRunning:
          job.owners.insert(client_fd);
          ++dedupe_shared;
          return TicketInfo{ticket, SubmitDisposition::kShared};
        case JobState::kFailed:
        case JobState::kCancelled:
          // Resubmitting a failed or cancelled scenario starts it over.
          jobs.erase(it);
          break;
      }
    }
    if (store) {
      if (std::optional<std::string> report = store->load_report(ticket)) {
        Job& job = jobs[ticket];
        job.ticket = ticket;
        job.state = JobState::kDone;
        job.report_json = std::move(*report);
        done_order.push_back(ticket);
        ++dedupe_served_store;
        if (journal_completed.count(pipeline::to_hex(ticket)) != 0) {
          ++journal_hits;
        }
        trim_done();
        return TicketInfo{ticket, SubmitDisposition::kServed};
      }
    }
    return std::nullopt;
  }

  void enqueue_fresh(const ScenarioSpec& spec,
                     const pipeline::Fingerprint& ticket,
                     std::uint64_t trace_bytes, int client_fd) {
    Job& job = jobs[ticket];
    job.spec = spec;
    job.ticket = ticket;
    job.trace_bytes = trace_bytes;
    job.state = JobState::kQueued;
    job.attempts = 0;
    job.error.clear();
    job.owners.insert(client_fd);
    note_queued(job);
    std::deque<pipeline::Fingerprint>& queue = queues[client_fd];
    if (queue.empty() &&
        std::find(rr.begin(), rr.end(), client_fd) == rr.end()) {
      rr.push_back(client_fd);
    }
    queue.push_back(ticket);
  }

  void handle_submit(Client& client, const std::vector<ScenarioSpec>& specs) {
    ++submits;
    if (draining) {
      send_to(client, ServerMessage(ErrorReply{
                          RpcErrorCode::kShuttingDown, "server is draining"}));
      return;
    }
    // Resolve every spec first (fingerprint + dedupe tier), so admission
    // is judged on the genuinely fresh remainder and a busy reject leaves
    // no half-submitted study behind.
    struct Resolved {
      ScenarioSpec spec;
      pipeline::Fingerprint ticket;
      std::uint64_t trace_bytes = 0;
      std::optional<TicketInfo> deduped;
    };
    std::vector<Resolved> resolved;
    resolved.reserve(specs.size());
    std::int64_t fresh = 0;
    std::int64_t fresh_bytes = 0;
    std::set<std::string> fresh_seen;  // dedupe within the submission itself
    for (const ScenarioSpec& spec : specs) {
      std::string error;
      const pipeline::TraceInfo* info =
          probe_cached(spec.trace_path, &error);
      if (info == nullptr) {
        ++bad_requests;
        send_to(client,
                ServerMessage(ErrorReply{RpcErrorCode::kBadRequest, error}));
        return;
      }
      Resolved r;
      r.spec = spec;
      r.trace_bytes = info->file_bytes;
      try {
        // A ticket names the report replay (metrics on). Out-of-range or
        // unknown values throw here, before any worker sees the job.
        r.ticket = pipeline::spec_fingerprint(spec, *info, true);
      } catch (const std::exception& e) {
        ++bad_requests;
        send_to(client, ServerMessage(
                            ErrorReply{RpcErrorCode::kBadRequest, e.what()}));
        return;
      }
      r.deduped = dedupe(r.ticket, client.fd);
      if (!r.deduped.has_value() &&
          fresh_seen.insert(pipeline::to_hex(r.ticket)).second) {
        ++fresh;
        fresh_bytes += static_cast<std::int64_t>(r.trace_bytes);
      }
      resolved.push_back(std::move(r));
    }
    if (!admit(fresh, fresh_bytes)) {
      ++busy_rejects;
      send_to(client,
              ServerMessage(ErrorReply{
                  RpcErrorCode::kBusy,
                  strprintf("queue full (%lld queued job(s), %lld bytes)",
                            static_cast<long long>(queued_jobs),
                            static_cast<long long>(queued_bytes))}));
      return;
    }
    Submitted reply;
    for (Resolved& r : resolved) {
      if (r.deduped.has_value()) {
        reply.tickets.push_back(*r.deduped);
        continue;
      }
      // A study can repeat a scenario; the second occurrence dedupes
      // against the first's freshly-created job.
      if (const auto it = jobs.find(r.ticket);
          it != jobs.end() && it->second.state == JobState::kQueued) {
        it->second.owners.insert(client.fd);
        reply.tickets.push_back(
            TicketInfo{r.ticket, SubmitDisposition::kShared});
        continue;
      }
      enqueue_fresh(r.spec, r.ticket, r.trace_bytes, client.fd);
      reply.tickets.push_back(TicketInfo{r.ticket, SubmitDisposition::kFresh});
    }
    send_to(client, ServerMessage(reply));
  }

  void handle_poll(Client& client, const PollStatus& poll) {
    const auto it = jobs.find(poll.ticket);
    if (it == jobs.end()) {
      // The job table forgets completed work under memory pressure; the
      // store tier still answers for it.
      if (store) {
        if (std::optional<std::string> report =
                store->load_report(poll.ticket)) {
          Job& job = jobs[poll.ticket];
          job.ticket = poll.ticket;
          job.state = JobState::kDone;
          job.report_json = std::move(*report);
          done_order.push_back(poll.ticket);
          trim_done();
          send_to(client, ServerMessage(StatusReply{poll.ticket,
                                                    JobState::kDone, 0, ""}));
          return;
        }
      }
      send_to(client, ServerMessage(
                          ErrorReply{RpcErrorCode::kNotFound, "no such ticket"}));
      return;
    }
    Job& job = it->second;
    const bool terminal = job.state == JobState::kDone ||
                          job.state == JobState::kFailed ||
                          job.state == JobState::kCancelled;
    if (poll.wait && !terminal) {
      job.waiters.push_back(client.fd);
      return;  // answered when the job reaches a terminal state
    }
    send_to(client, ServerMessage(StatusReply{job.ticket, job.state,
                                              job.attempts, job.error}));
  }

  void handle_fetch(Client& client, const FetchReport& fetch) {
    const auto it = jobs.find(fetch.ticket);
    if (it != jobs.end()) {
      const Job& job = it->second;
      switch (job.state) {
        case JobState::kDone:
          send_to(client,
                  ServerMessage(ReportReply{job.ticket, job.report_json}));
          return;
        case JobState::kFailed:
          send_to(client, ServerMessage(
                              ErrorReply{RpcErrorCode::kFailed, job.error}));
          return;
        case JobState::kCancelled:
          send_to(client, ServerMessage(ErrorReply{RpcErrorCode::kNotFound,
                                                   "scenario was cancelled"}));
          return;
        case JobState::kQueued:
        case JobState::kRunning:
          send_to(client,
                  ServerMessage(ErrorReply{
                      RpcErrorCode::kBadRequest,
                      "scenario still pending; poll until it is done"}));
          return;
      }
    }
    if (store) {
      if (std::optional<std::string> report = store->load_report(fetch.ticket)) {
        ++dedupe_served_store;
        send_to(client,
                ServerMessage(ReportReply{fetch.ticket, std::move(*report)}));
        return;
      }
    }
    send_to(client, ServerMessage(
                        ErrorReply{RpcErrorCode::kNotFound, "no such ticket"}));
  }

  void handle_cancel(Client& client, const Cancel& cancel) {
    const auto it = jobs.find(cancel.ticket);
    if (it == jobs.end()) {
      send_to(client, ServerMessage(
                          ErrorReply{RpcErrorCode::kNotFound, "no such ticket"}));
      return;
    }
    Job& job = it->second;
    job.owners.erase(client.fd);
    job.waiters.erase(
        std::remove(job.waiters.begin(), job.waiters.end(), client.fd),
        job.waiters.end());
    // Only unclaimed queued work is actually cancelled: running scenarios
    // finish (the result is cacheable either way), and other owners keep
    // their claim.
    if (job.state == JobState::kQueued && job.owners.empty()) {
      cancel_job(job);
    }
    send_to(client, ServerMessage(OkReply{}));
  }

  void begin_drain(int code) {
    if (draining) return;
    draining = true;
    exit_code = code;
    if (unix_listen_fd >= 0) {
      ::close(unix_listen_fd);
      unix_listen_fd = -1;
    }
    if (tcp_listen_fd >= 0) {
      ::close(tcp_listen_fd);
      tcp_listen_fd = -1;
    }
    // Cancel everything still queued; running jobs are allowed to finish.
    for (auto& [ticket, job] : jobs) {
      if (job.state == JobState::kQueued) cancel_job(job);
    }
    queues.clear();
    rr.clear();
    retries.clear();
  }

  void handle_message(Client& client, const ClientMessage& message) {
    if (const auto* m = std::get_if<SubmitScenario>(&message)) {
      handle_submit(client, {m->spec});
    } else if (const auto* m = std::get_if<SubmitStudy>(&message)) {
      if (m->bandwidths.empty()) {
        ++bad_requests;
        send_to(client, ServerMessage(ErrorReply{RpcErrorCode::kBadRequest,
                                                 "empty bandwidth sweep"}));
        return;
      }
      std::vector<ScenarioSpec> specs;
      specs.reserve(m->bandwidths.size());
      for (const double bw : m->bandwidths) {
        ScenarioSpec spec = m->base;
        spec.bandwidth = bw;
        specs.push_back(std::move(spec));
      }
      handle_submit(client, specs);
    } else if (const auto* m = std::get_if<PollStatus>(&message)) {
      handle_poll(client, *m);
    } else if (const auto* m = std::get_if<FetchReport>(&message)) {
      handle_fetch(client, *m);
    } else if (const auto* m = std::get_if<Cancel>(&message)) {
      handle_cancel(client, *m);
    } else if (std::get_if<ServerStats>(&message) != nullptr) {
      send_to(client, ServerMessage(StatsReply{stats_json()}));
    } else {
      send_to(client, ServerMessage(OkReply{}));
      begin_drain(kExitOk);
    }
  }

  void read_client(Client& client) {
    char buffer[64 * 1024];
    for (;;) {
      const ssize_t n = ::read(client.fd, buffer, sizeof(buffer));
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        client.drop = true;
        return;
      }
      if (n == 0) {
        client.drop = true;
        return;
      }
      std::string_view bytes(buffer, static_cast<std::size_t>(n));
      if (!client.handshaken) {
        const std::size_t need = kHandshakeBytes - client.handshake.size();
        const std::size_t take = std::min(need, bytes.size());
        client.handshake.append(bytes.substr(0, take));
        bytes.remove_prefix(take);
        if (client.handshake.size() < kHandshakeBytes) continue;
        if (!check_handshake(client.handshake)) {
          client.drop = true;  // wrong magic or version: no common language
          return;
        }
        client.handshaken = true;
      }
      client.reader.feed(bytes);
      if (static_cast<std::size_t>(n) < sizeof(buffer)) break;
    }
    while (std::optional<std::string> payload = client.reader.next()) {
      const std::optional<ClientMessage> message =
          decode_client_message(*payload);
      if (!message.has_value()) {
        ++bad_requests;
        send_to(client, ServerMessage(ErrorReply{RpcErrorCode::kBadRequest,
                                                 "malformed message"}));
        client.drop = true;
        return;
      }
      handle_message(client, *message);
      if (client.drop) return;
    }
    if (client.reader.error()) {
      // Oversized frame header: drop without ever allocating the payload.
      ++bad_requests;
      client.drop = true;
    }
  }

  // --- scheduling -----------------------------------------------------------

  /// The next queued ticket in line: the retry lane first, then round-
  /// robin across client queues (skipping tickets whose job was taken by
  /// another queue or cancelled meanwhile).
  std::optional<pipeline::Fingerprint> pop_next() {
    while (!retries.empty()) {
      const pipeline::Fingerprint ticket = retries.front();
      retries.pop_front();
      const auto it = jobs.find(ticket);
      if (it != jobs.end() && it->second.state == JobState::kQueued) {
        return ticket;
      }
    }
    for (std::size_t rotations = rr.size(); rotations > 0; --rotations) {
      const int fd = rr.front();
      rr.pop_front();
      std::deque<pipeline::Fingerprint>& queue = queues[fd];
      std::optional<pipeline::Fingerprint> found;
      while (!queue.empty()) {
        const pipeline::Fingerprint ticket = queue.front();
        queue.pop_front();
        const auto it = jobs.find(ticket);
        if (it != jobs.end() && it->second.state == JobState::kQueued) {
          found = ticket;
          break;
        }
      }
      if (!queue.empty()) {
        rr.push_back(fd);  // still has work: back of the rotation
      } else if (!found.has_value()) {
        queues.erase(fd);
        continue;
      }
      if (found.has_value()) return found;
    }
    return std::nullopt;
  }

  /// Steals additional queued jobs over the same trace for one worker
  /// assignment (they validate the trace once between them).
  std::vector<JobRequest> batch_for(const pipeline::Fingerprint& first) {
    std::vector<JobRequest> batch;
    Job& lead = jobs.at(first);
    batch.push_back(JobRequest{first, lead.spec});
    if (options.max_batch <= 1) return batch;
    for (auto& [ticket, job] : jobs) {
      if (static_cast<int>(batch.size()) >= options.max_batch) break;
      if (job.state != JobState::kQueued || ticket == first) continue;
      if (job.spec.trace_path != lead.spec.trace_path) continue;
      batch.push_back(JobRequest{ticket, job.spec});
    }
    return batch;
  }

  void schedule() {
    if (draining) return;
    for (;;) {
      const int worker = pool->idle_worker();
      if (worker < 0) return;
      const std::optional<pipeline::Fingerprint> next = pop_next();
      if (!next.has_value()) return;
      const std::vector<JobRequest> batch = batch_for(*next);
      for (const JobRequest& request : batch) {
        Job& job = jobs.at(request.ticket);
        note_unqueued(job);
        job.state = JobState::kRunning;
      }
      pool->assign(worker, batch);
    }
  }

  // --- worker events --------------------------------------------------------

  void worker_died(int worker) {
    if (!pool->alive(worker)) return;
    // Results the worker wrote before dying are still buffered in the
    // socketpair; drain them first so finished work is completed, not
    // needlessly retried. Only the genuinely unfinished jobs requeue.
    bool dead = false;
    for (const JobResult& result : pool->on_readable(worker, dead)) {
      complete_job(result);
    }
    requeue_lost(pool->take_inflight(worker));
    pool->mark_dead(worker);
    if (!draining) {
      try {
        pool->respawn(worker);
      } catch (const std::exception&) {
        // Respawn can fail under fork pressure; the next death or drain
        // tick retries implicitly because the slot stays dead and idle
        // workers simply number one fewer.
      }
    }
  }

  void worker_readable(int worker) {
    bool dead = false;
    const std::vector<JobResult> results = pool->on_readable(worker, dead);
    for (const JobResult& result : results) complete_job(result);
    if (dead) worker_died(worker);
  }

  // --- stats ----------------------------------------------------------------

  std::string stats_json() {
    metrics::JsonWriter writer;
    writer.begin_object();
    writer.key("schema").value("osim.serve_stats");
    writer.key("version").value(std::int64_t{1});
    writer.key("socket").value(options.socket_path);
    writer.key("draining").value(draining);
    writer.key("clients").value(
        static_cast<std::uint64_t>(clients.size()));
    writer.key("clients_accepted").value(clients_accepted);

    std::uint64_t queued = 0;
    std::uint64_t running = 0;
    std::uint64_t done = 0;
    std::uint64_t failed = 0;
    std::uint64_t cancelled = 0;
    for (const auto& [ticket, job] : jobs) {
      switch (job.state) {
        case JobState::kQueued: ++queued; break;
        case JobState::kRunning: ++running; break;
        case JobState::kDone: ++done; break;
        case JobState::kFailed: ++failed; break;
        case JobState::kCancelled: ++cancelled; break;
      }
    }
    writer.key("jobs").begin_object();
    writer.key("queued").value(queued);
    writer.key("running").value(running);
    writer.key("done").value(done);
    writer.key("failed").value(failed);
    writer.key("cancelled").value(cancelled);
    writer.end_object();

    writer.key("counters").begin_object();
    writer.key("submits").value(submits);
    writer.key("dedupe_shared").value(dedupe_shared);
    writer.key("dedupe_served_memory").value(dedupe_served_memory);
    writer.key("dedupe_served_store").value(dedupe_served_store);
    writer.key("journal_hits").value(journal_hits);
    writer.key("busy_rejects").value(busy_rejects);
    writer.key("bad_requests").value(bad_requests);
    writer.key("replays_completed").value(replays_completed);
    writer.key("jobs_failed").value(jobs_failed);
    writer.key("jobs_cancelled").value(jobs_cancelled);
    writer.end_object();

    writer.key("admission").begin_object();
    writer.key("max_queue").value(
        static_cast<std::int64_t>(options.max_queue));
    writer.key("max_inflight_bytes")
        .value(static_cast<std::int64_t>(options.max_inflight_bytes));
    writer.key("queued_jobs").value(static_cast<std::int64_t>(queued_jobs));
    writer.key("queued_bytes").value(static_cast<std::int64_t>(queued_bytes));
    writer.end_object();

    writer.key("workers").begin_object();
    writer.key("count").value(static_cast<std::int64_t>(pool->size()));
    writer.key("busy").value(static_cast<std::int64_t>(pool->busy_workers()));
    writer.key("spawned").value(pool->spawned());
    writer.key("deaths").value(pool->deaths());
    writer.key("pids").begin_array();
    for (int i = 0; i < pool->size(); ++i) {
      writer.value(static_cast<std::int64_t>(pool->pid(i)));
    }
    writer.end_array();
    writer.end_object();

    writer.key("journal").begin_object();
    writer.key("enabled").value(journal != nullptr);
    writer.key("recovered")
        .value(static_cast<std::uint64_t>(journal_completed.size()));
    writer.end_object();

    if (store) {
      writer.key("store").begin_object();
      write_store_stats_fields(writer, *store,
                               supervise::list_journals(store->root()));
      writer.end_object();
    } else {
      writer.key("store").null();
    }
    writer.end_object();
    return writer.str();
  }

  // --- the loop -------------------------------------------------------------

  int run() {
    ignore_sigpipe();
    install_graceful_shutdown();
    install_child_reaper();
    open_store_and_journal();
    open_listeners();
    WorkerOptions worker_options;
    worker_options.count = options.workers;
    worker_options.use_fork = options.fork_workers;
    worker_options.serve_binary = options.serve_binary;
    worker_options.cache_dir = options.cache_dir;
    pool = std::make_unique<WorkerPool>(worker_options);
    pool->start();

    const int wake_fd = signal_wake_fd();
    std::vector<pollfd> pfds;
    std::vector<int> worker_slots;   // parallel to the worker pfds
    std::vector<int> client_fds;     // parallel to the client pfds
    for (;;) {
      pfds.clear();
      worker_slots.clear();
      client_fds.clear();
      pfds.push_back({wake_fd, POLLIN, 0});
      if (unix_listen_fd >= 0) pfds.push_back({unix_listen_fd, POLLIN, 0});
      if (tcp_listen_fd >= 0) pfds.push_back({tcp_listen_fd, POLLIN, 0});
      const std::size_t first_worker = pfds.size();
      for (int i = 0; i < pool->size(); ++i) {
        if (pool->fd(i) < 0) continue;
        pfds.push_back({pool->fd(i), POLLIN, 0});
        worker_slots.push_back(i);
      }
      const std::size_t first_client = pfds.size();
      for (auto& [fd, client] : clients) {
        short events = POLLIN;
        if (!client.outbox.empty()) events |= POLLOUT;
        pfds.push_back({fd, events, 0});
        client_fds.push_back(fd);
      }

      const int ready = ::poll(pfds.data(),
                               static_cast<nfds_t>(pfds.size()), 500);
      if (ready < 0 && errno != EINTR) {
        throw Error(strprintf("poll: %s", std::strerror(errno)));
      }

      // Signals first: a SIGCHLD's requeues should be visible before the
      // scheduling pass below.
      if (shutdown_requested() && !draining) begin_drain(kExitInterrupted);
      drain_signal_wake_fd();
      if (child_exit_pending()) {
        for (const ReapedChild& child : reap_children()) {
          const int worker = pool->worker_by_pid(child.pid);
          if (worker >= 0) worker_died(worker);
        }
      }

      if (ready > 0) {
        for (std::size_t i = first_worker; i < first_client; ++i) {
          if (pfds[i].revents == 0) continue;
          worker_readable(worker_slots[i - first_worker]);
        }
        for (std::size_t i = first_client; i < pfds.size(); ++i) {
          if (pfds[i].revents == 0) continue;
          const int fd = client_fds[i - first_client];
          const auto it = clients.find(fd);
          if (it == clients.end()) continue;
          if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0 &&
              !it->second.drop) {
            read_client(it->second);
          }
          if ((pfds[i].revents & POLLOUT) != 0 && !it->second.drop) {
            flush_client(it->second);
          }
        }
        for (std::size_t i = 1; i < first_worker; ++i) {
          if ((pfds[i].revents & POLLIN) != 0) accept_clients(pfds[i].fd);
        }
      }

      // Opportunistic flush (most replies fit the socket buffer without a
      // POLLOUT round trip), then close anything marked for drop.
      std::vector<int> to_drop;
      for (auto& [fd, client] : clients) {
        if (!client.outbox.empty()) flush_client(client);
        if (client.drop) to_drop.push_back(fd);
      }
      for (const int fd : to_drop) disconnect(fd);

      schedule();

      if (draining && pool->busy_workers() == 0) break;
    }

    pool->shutdown();
    if (child_exit_pending()) reap_children();
    for (auto& [fd, client] : clients) {
      if (!client.outbox.empty()) flush_client(client);
      ::close(fd);
    }
    clients.clear();
    if (!options.socket_path.empty()) ::unlink(options.socket_path.c_str());
    return exit_code;
  }
};

Controller::Controller(ControllerOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

Controller::~Controller() = default;

int Controller::run() { return impl_->run(); }

#else  // !OSIM_HAVE_SERVE_POSIX

struct Controller::Impl {};

Controller::Controller(ControllerOptions) {}
Controller::~Controller() = default;

int Controller::run() {
  throw Error("the analysis service requires a POSIX platform");
}

#endif

}  // namespace osim::serve
