#include "spans.hpp"

#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>

#include "common/expect.hpp"

namespace overlapbench {
namespace {

struct ThreadBuffer {
  int thread = 0;
  std::vector<SpanRecord> spans;
  std::vector<int> open;  // indices of spans opened and not yet closed
};

const Clock::time_point g_epoch = Clock::now();
std::atomic<bool> g_on{false};
// Buffers outlive their threads (a Study's pool threads end with the
// study); each thread appends only to its own buffer, and clear/collect run
// only while no other thread records.
std::mutex g_mutex;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;
thread_local ThreadBuffer* t_buffer = nullptr;
thread_local int t_override = -1;  // -1: follow g_on; 0 off; 1 on

ThreadBuffer& this_thread_buffer() {
  if (t_buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_mutex);
    g_buffers.push_back(std::make_unique<ThreadBuffer>());
    t_buffer = g_buffers.back().get();
    t_buffer->thread = static_cast<int>(g_buffers.size()) - 1;
  }
  return *t_buffer;
}

double now_s() {
  return std::chrono::duration<double>(Clock::now() - g_epoch).count();
}

}  // namespace

void set_tracing(bool on) { g_on.store(on, std::memory_order_relaxed); }

ThreadTracing::ThreadTracing(bool on) : previous_(t_override) {
  t_override = on ? 1 : 0;
}

ThreadTracing::~ThreadTracing() { t_override = previous_; }

void clear_spans() {
  std::lock_guard<std::mutex> lock(g_mutex);
  for (auto& buffer : g_buffers) {
    buffer->spans.clear();
    buffer->open.clear();
  }
}

std::vector<std::vector<SpanRecord>> collect_spans() {
  std::lock_guard<std::mutex> lock(g_mutex);
  std::vector<std::vector<SpanRecord>> out;
  for (const auto& buffer : g_buffers) {
    if (!buffer->spans.empty()) out.push_back(buffer->spans);
  }
  return out;
}

Span::Span(const char* name, std::int64_t id) {
  if (t_override == 0 ||
      (t_override < 0 && !g_on.load(std::memory_order_relaxed))) {
    return;
  }
  ThreadBuffer& buffer = this_thread_buffer();
  index_ = static_cast<int>(buffer.spans.size());
  SpanRecord record;
  record.name = name;
  record.start = now_s();
  record.parent = buffer.open.empty() ? -1 : buffer.open.back();
  record.thread = buffer.thread;
  record.id = id;
  buffer.spans.push_back(record);
  buffer.open.push_back(index_);
}

Span::~Span() {
  if (index_ < 0) return;
  ThreadBuffer& buffer = this_thread_buffer();
  buffer.spans[static_cast<std::size_t>(index_)].end = now_s();
  buffer.open.pop_back();
}

double LayerTimes::mean_self(const std::string& name) const {
  const auto it = calls.find(name);
  if (it == calls.end() || it->second == 0) return 0.0;
  return self_s.at(name) / static_cast<double>(it->second);
}

double LayerTimes::total_self(const std::string& name) const {
  const auto it = self_s.find(name);
  return it == self_s.end() ? 0.0 : it->second;
}

double LayerTimes::total(const std::string& name) const {
  const auto it = total_s.find(name);
  return it == total_s.end() ? 0.0 : it->second;
}

LayerTimes derive_layer_times(
    const std::vector<std::vector<SpanRecord>>& spans) {
  LayerTimes out;
  for (const std::vector<SpanRecord>& thread : spans) {
    std::vector<double> child_s(thread.size(), 0.0);
    for (const SpanRecord& span : thread) {
      if (span.parent >= 0) {
        child_s[static_cast<std::size_t>(span.parent)] += span.end - span.start;
      }
    }
    for (std::size_t i = 0; i < thread.size(); ++i) {
      const SpanRecord& span = thread[i];
      out.total_s[span.name] += span.end - span.start;
      out.self_s[span.name] += (span.end - span.start) - child_s[i];
      ++out.calls[span.name];
    }
  }
  return out;
}

void write_layer_times(const LayerTimes& times, const std::string& path) {
  std::ofstream out(path);
  out.precision(17);
  for (const auto& [name, calls] : times.calls) {
    out << name << ' ' << calls << ' ' << times.total(name) << ' '
        << times.total_self(name) << '\n';
  }
  out.flush();
  if (!out) throw osim::Error("cannot write " + path);
}

void merge_layer_times(const std::string& path, LayerTimes& into) {
  std::ifstream in(path);
  if (!in) throw osim::Error("cannot read " + path);
  std::string name;
  std::int64_t calls = 0;
  double total = 0.0;
  double self = 0.0;
  while (in >> name >> calls >> total >> self) {
    into.calls[name] += calls;
    into.total_s[name] += total;
    into.self_s[name] += self;
  }
}

void write_spans(const std::vector<std::vector<SpanRecord>>& spans,
                 const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw osim::Error("cannot write " + path);
  for (const std::vector<SpanRecord>& thread : spans) {
    for (const SpanRecord& s : thread) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"thread\":%d,\"start_s\":%.9f,"
                   "\"end_s\":%.9f,\"parent\":%d,\"id\":%lld}\n",
                   s.name, s.thread, s.start, s.end, s.parent,
                   static_cast<long long>(s.id));
    }
  }
  if (std::fclose(f) != 0) throw osim::Error("cannot write " + path);
}

}  // namespace overlapbench
