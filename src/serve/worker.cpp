#include "serve/worker.hpp"

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/expect.hpp"
#include "common/strings.hpp"
#include "trace/binary_io.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define OSIM_HAVE_SERVE_POSIX 1
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace osim::serve {

#if OSIM_HAVE_SERVE_POSIX

namespace {

// write() the whole buffer, riding out EINTR, partial writes and (on the
// controller's non-blocking ends) momentarily full socket buffers.
bool write_all(int fd, std::string_view bytes) {
  std::size_t off = 0;
  int stalls = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Bounded: a peer that stops draining for 30s is treated as dead
        // rather than wedging the writer forever.
        if (++stalls > 30) return false;
        struct pollfd pfd = {};
        pfd.fd = fd;
        pfd.events = POLLOUT;
        ::poll(&pfd, 1, 1000 /* ms */);
        continue;
      }
      return false;
    }
    stalls = 0;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

int run_worker_loop(int fd, const std::string& cache_dir) {
  std::unique_ptr<store::ScenarioStore> store;
  if (!cache_dir.empty()) {
    try {
      store = std::make_unique<store::ScenarioStore>(cache_dir);
    } catch (const std::exception&) {
      // A broken cache demotes the worker to uncached, never kills it.
      store = nullptr;
    }
  }

  // One-entry trace cache: batched jobs arrive grouped by trace, so the
  // previous path is the only one worth keeping.
  std::string cached_path;
  std::shared_ptr<const trace::Trace> cached_trace;

  FrameReader reader;
  char buffer[64 * 1024];
  int exit_code = 0;
  for (;;) {
    std::optional<std::string> payload;
    while (!(payload = reader.next()).has_value()) {
      if (reader.error()) {
        exit_code = 1;
        goto out;
      }
      const ssize_t n = ::read(fd, buffer, sizeof(buffer));
      if (n < 0) {
        if (errno == EINTR) continue;
        exit_code = 1;
        goto out;
      }
      if (n == 0) goto out;  // controller closed: clean shutdown
      reader.feed(std::string_view(buffer, static_cast<std::size_t>(n)));
    }

    {
      const std::optional<JobRequest> request = decode_job_request(*payload);
      if (!request.has_value()) {
        exit_code = 1;
        goto out;
      }
      JobResult result;
      result.ticket = request->ticket;
      if (request->spec.trace_path != cached_path || !cached_trace) {
        cached_trace = nullptr;
        cached_path.clear();
        try {
          cached_trace = std::make_shared<const trace::Trace>(
              trace::read_any_file(request->spec.trace_path));
          cached_path = request->spec.trace_path;
        } catch (const std::exception& e) {
          result.ok = false;
          result.error = e.what();
        }
      }
      if (cached_trace) {
        const JobOutcome outcome =
            run_job(request->spec, cached_trace, store.get());
        result.ok = outcome.ok;
        result.report_json = outcome.report_json;
        result.error = outcome.error;
      }
      std::string frame;
      if (!append_frame(frame, encode_job_result(result))) {
        // A frame over the cap would poison the controller's reader, which
        // then takes this worker for dead and reruns the job. Answer with a
        // failed job instead: the report is too large to ship.
        JobResult refused;
        refused.ticket = result.ticket;
        refused.error = strprintf(
            "run report of %zu bytes exceeds the %u-byte RPC frame cap",
            result.report_json.size(), kMaxFrameBytes);
        append_frame(frame, encode_job_result(refused));
      }
      if (!write_all(fd, frame)) {
        exit_code = 1;
        goto out;
      }
    }
  }
out:
  ::close(fd);
  return exit_code;
}

WorkerPool::WorkerPool(WorkerOptions options) : options_(std::move(options)) {
  if (options_.count < 1) options_.count = 1;
}

WorkerPool::~WorkerPool() { shutdown(); }

void WorkerPool::start() {
  while (static_cast<int>(workers_.size()) < options_.count) {
    auto worker = std::make_unique<Worker>();
    spawn(*worker);
    workers_.push_back(std::move(worker));
  }
}

void WorkerPool::spawn(Worker& worker) {
  int sv[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
    throw Error(strprintf("socketpair failed: %s", std::strerror(errno)));
  }
  if (options_.use_fork) {
    if (options_.serve_binary.empty()) {
      ::close(sv[0]);
      ::close(sv[1]);
      throw Error("fork-mode workers need the server binary path");
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(sv[0]);
      ::close(sv[1]);
      throw Error(strprintf("fork failed: %s", std::strerror(errno)));
    }
    if (pid == 0) {
      // Child: job socket on a fixed fd, then a fresh address space.
      ::close(sv[0]);
      if (::dup2(sv[1], 3) < 0) _exit(127);
      if (sv[1] != 3) ::close(sv[1]);
      const char* argv[8];
      int argc = 0;
      argv[argc++] = options_.serve_binary.c_str();
      argv[argc++] = "--worker";
      argv[argc++] = "--worker-fd";
      argv[argc++] = "3";
      if (!options_.cache_dir.empty()) {
        argv[argc++] = "--cache-dir";
        argv[argc++] = options_.cache_dir.c_str();
      }
      argv[argc] = nullptr;
      ::execv(options_.serve_binary.c_str(),
              const_cast<char* const*>(argv));
      _exit(127);
    }
    ::close(sv[1]);
    // The controller's end must not leak into later workers' exec images,
    // and its reads must never block the event loop.
    ::fcntl(sv[0], F_SETFD, FD_CLOEXEC);
    ::fcntl(sv[0], F_SETFL, O_NONBLOCK);
    worker.fd = sv[0];
    worker.pid = static_cast<int>(pid);
  } else {
    ::fcntl(sv[0], F_SETFD, FD_CLOEXEC);
    ::fcntl(sv[0], F_SETFL, O_NONBLOCK);
    const int child_fd = sv[1];
    const std::string cache_dir = options_.cache_dir;
    worker.thread = std::make_unique<std::thread>(
        [child_fd, cache_dir]() { run_worker_loop(child_fd, cache_dir); });
    worker.fd = sv[0];
    worker.pid = -1;
  }
  worker.reader = FrameReader();
  worker.inflight.clear();
  ++spawned_;
}

int WorkerPool::idle_worker() const {
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    if (workers_[i]->fd >= 0 && workers_[i]->inflight.empty()) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

int WorkerPool::busy_workers() const {
  int busy = 0;
  for (const auto& worker : workers_) {
    if (worker->fd >= 0 && !worker->inflight.empty()) ++busy;
  }
  return busy;
}

void WorkerPool::assign(int i, const std::vector<JobRequest>& batch) {
  Worker& worker = *workers_[static_cast<std::size_t>(i)];
  std::string frames;
  for (const JobRequest& request : batch) {
    append_frame(frames, encode_job_request(request));
    worker.inflight.push_back(request);
  }
  if (!write_all(worker.fd, frames)) {
    // A dead worker at assign time surfaces through on_readable/reap; the
    // jobs stay in `inflight` so take_inflight() requeues them.
  }
}

std::vector<JobResult> WorkerPool::on_readable(int i, bool& dead) {
  Worker& worker = *workers_[static_cast<std::size_t>(i)];
  dead = false;
  std::vector<JobResult> results;
  char buffer[64 * 1024];
  for (;;) {
    const ssize_t n = ::read(worker.fd, buffer, sizeof(buffer));
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      dead = true;
      break;
    }
    if (n == 0) {
      dead = true;
      break;
    }
    worker.reader.feed(std::string_view(buffer, static_cast<std::size_t>(n)));
    // A worker that filled one read() buffer exactly may have more bytes
    // pending, but frames drain below either way; looping again would
    // block on an empty socket, so stop after a short read.
    if (static_cast<std::size_t>(n) < sizeof(buffer)) break;
  }
  while (std::optional<std::string> payload = worker.reader.next()) {
    const std::optional<JobResult> result = decode_job_result(*payload);
    if (!result.has_value()) {
      dead = true;  // protocol violation: treat as a worker death
      break;
    }
    // Results arrive in assignment order; drop the matching in-flight
    // entry (front in the common case, scan to be safe).
    for (auto it = worker.inflight.begin(); it != worker.inflight.end();
         ++it) {
      if (it->ticket == result->ticket) {
        worker.inflight.erase(it);
        break;
      }
    }
    results.push_back(*result);
  }
  if (worker.reader.error()) dead = true;
  return results;
}

std::vector<JobRequest> WorkerPool::take_inflight(int i) {
  Worker& worker = *workers_[static_cast<std::size_t>(i)];
  std::vector<JobRequest> lost(worker.inflight.begin(),
                               worker.inflight.end());
  worker.inflight.clear();
  return lost;
}

int WorkerPool::worker_by_pid(int pid) const {
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    if (workers_[i]->pid == pid) return static_cast<int>(i);
  }
  return -1;
}

void WorkerPool::mark_dead(int i) {
  Worker& worker = *workers_[static_cast<std::size_t>(i)];
  if (worker.fd >= 0) {
    ::close(worker.fd);
    worker.fd = -1;
  }
  if (worker.thread) {
    worker.thread->join();
    worker.thread = nullptr;
  }
  worker.pid = -1;
  ++deaths_;
}

void WorkerPool::respawn(int i) {
  Worker& worker = *workers_[static_cast<std::size_t>(i)];
  if (worker.fd >= 0) return;  // still alive; nothing to do
  spawn(worker);
}

void WorkerPool::shutdown() {
  for (auto& worker : workers_) {
    if (worker->fd >= 0) {
      ::close(worker->fd);
      worker->fd = -1;
    }
    if (worker->thread) {
      worker->thread->join();
      worker->thread = nullptr;
    }
    worker->inflight.clear();
  }
}

#else  // !OSIM_HAVE_SERVE_POSIX

int run_worker_loop(int, const std::string&) { return 1; }

WorkerPool::WorkerPool(WorkerOptions options) : options_(std::move(options)) {}
WorkerPool::~WorkerPool() = default;
void WorkerPool::start() {
  throw Error("the analysis service requires a POSIX platform");
}
void WorkerPool::spawn(Worker&) {}
int WorkerPool::idle_worker() const { return -1; }
int WorkerPool::busy_workers() const { return 0; }
void WorkerPool::assign(int, const std::vector<JobRequest>&) {}
std::vector<JobResult> WorkerPool::on_readable(int, bool& dead) {
  dead = true;
  return {};
}
std::vector<JobRequest> WorkerPool::take_inflight(int) { return {}; }
int WorkerPool::worker_by_pid(int) const { return -1; }
void WorkerPool::mark_dead(int) {}
void WorkerPool::respawn(int) {}
void WorkerPool::shutdown() {}

#endif

}  // namespace osim::serve
