#include "store/store.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#ifndef _WIN32
#include <cerrno>
#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>
#endif

#include "common/crash_point.hpp"
#include "common/codec.hpp"
#include "common/expect.hpp"
#include "common/strings.hpp"

namespace osim::store {

namespace fs = std::filesystem;

namespace {

constexpr std::string_view kIndexMagic = "OSIMIDX1";
constexpr std::uint32_t kIndexVersion = 1;
constexpr const char* kIndexName = "index.osim";
constexpr const char* kLogName = "index.log";
constexpr const char* kLockName = "lock";
constexpr std::string_view kLogMagic = "OSIMLOG1";
constexpr std::uint32_t kLogVersion = 1;

/// RAII advisory lock on <root>/lock. flock() locks are per open file
/// description, so two threads of one process exclude each other exactly
/// like two processes do — each acquisition opens its own descriptor.
class FileLock {
 public:
  explicit FileLock(const fs::path& path) {
#ifndef _WIN32
    fd_ = ::open(path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
    if (fd_ >= 0) {
      while (::flock(fd_, LOCK_EX) != 0 && errno == EINTR) {
      }
    }
#else
    (void)path;  // single-process best effort on platforms without flock
#endif
  }
  ~FileLock() {
#ifndef _WIN32
    if (fd_ >= 0) ::close(fd_);  // releases the lock
#endif
  }
  FileLock(const FileLock&) = delete;
  FileLock& operator=(const FileLock&) = delete;

 private:
  int fd_ = -1;
};

std::optional<std::string> read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return std::nullopt;
  return std::move(buffer).str();
}

/// The first `n` bytes of `path` (fewer when it is shorter) and its size.
/// The access path reads the index and log headers this way, never their
/// bodies.
struct FileHead {
  std::string bytes;
  std::uint64_t size = 0;
};

std::optional<FileHead> read_head(const fs::path& path, std::size_t n) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return std::nullopt;
  FileHead head;
  head.size = static_cast<std::uint64_t>(in.tellg());
  head.bytes.resize(static_cast<std::size_t>(
      std::min<std::uint64_t>(n, head.size)));
  in.seekg(0);
  in.read(head.bytes.data(), static_cast<std::streamsize>(head.bytes.size()));
  if (!in) return std::nullopt;
  return head;
}

/// Publishes `bytes` at `path` via a unique temp file in `tmp_dir` and an
/// atomic rename, so concurrent readers see either the old object, the new
/// one, or nothing — never a torn write.
void write_file_atomic(const fs::path& path, const std::string& bytes,
                       const fs::path& tmp_dir) {
  static std::atomic<std::uint64_t> sequence{0};
  const fs::path tmp =
      tmp_dir / strprintf("%s.%ld.%llu.tmp", path.filename().c_str(),
#ifndef _WIN32
                          static_cast<long>(::getpid()),
#else
                          0L,
#endif
                          static_cast<unsigned long long>(
                              sequence.fetch_add(1)));
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw Error("store: cannot create " + tmp.string());
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) {
      std::error_code ignored;
      fs::remove(tmp, ignored);
      throw Error("store: failed writing " + tmp.string());
    }
  }
  // Crash injection for durability tests: dying here leaves only an
  // orphaned tmp file (a reader sees a clean miss; the open-time sweep
  // reclaims it), dying after the rename leaves a complete object whose
  // index entry lags (the index is rebuilt from the tree).
  maybe_crash("store.publish.tmp");
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    std::error_code ignored;
    fs::remove(tmp, ignored);
    throw Error("store: cannot publish " + path.string() + ": " +
                ec.message());
  }
  maybe_crash("store.publish.renamed");
}

}  // namespace

// --- index (de)serialization -------------------------------------------------
//
// Layout mirrors the object format: magic "OSIMIDX1", u32 version,
// u64 clock, u64 entry count, entries (hi, lo, bytes, last_access, hits),
// u32 CRC over every byte after the magic. The index is a rebuildable
// summary, so a failed decode is repaired, not reported to callers.

struct IndexCodec {
  static constexpr std::size_t kHeader = 8 + 4 + 8 + 8;

  static std::string encode(std::uint64_t clock,
                            const std::vector<std::uint64_t>& flat) {
    // flat holds 5 u64 per entry: hi, lo, bytes, last_access, hits.
    std::string out = codec::begin_envelope(kIndexMagic, kIndexVersion);
    codec::put_u64(out, clock);
    codec::put_u64(out, flat.size() / 5);
    for (const std::uint64_t v : flat) codec::put_u64(out, v);
    codec::seal_envelope(out, kIndexMagic);
    return out;
  }

  /// Checks the header of an index of `size` bytes against that size; the
  /// CRC needs the whole file, so this alone is what an access can afford.
  static bool decode_head(std::string_view head, std::uint64_t size,
                          std::uint64_t& clock, std::uint64_t& count) {
    if (size < kHeader + 4) return false;
    std::optional<codec::Reader> in =
        codec::peek_envelope(head, kIndexMagic, kIndexVersion);
    if (!in.has_value()) return false;
    clock = in->get_u64();
    count = in->get_u64();
    return in->ok() && (size - kHeader - 4) % 40 == 0 &&
           count == (size - kHeader - 4) / 40;
  }

  /// Sets `clock` and `flat` only when the whole index checks out.
  static bool decode(std::string_view bytes, std::uint64_t& clock,
                     std::vector<std::uint64_t>& flat) {
    std::optional<codec::Reader> in =
        codec::open_envelope(bytes, kIndexMagic, kIndexVersion);
    if (!in.has_value()) return false;
    const std::uint64_t head_clock = in->get_u64();
    const std::uint64_t count = in->get_u64();
    if (!in->ok() || in->remaining() % 40 != 0 ||
        count != in->remaining() / 40) {
      return false;
    }
    flat.resize(count * 5);
    for (std::uint64_t& v : flat) v = in->get_u64();
    clock = head_clock;
    return true;
  }
};

// --- index log ---------------------------------------------------------------
//
// Header: magic "OSIMLOG1", u32 version, u64 base clock (the index clock
// the log applies to), u32 CRC over version and clock. Then one record
// per access: u64 hi, u64 lo, u64 object bytes, u32 kind, u32 CRC over
// the first 28 bytes. Record k carries clock base + k + 1 by position,
// so a damaged record loses only itself and shifts no other.

namespace {

enum class LogKind : std::uint32_t { kSave = 1, kHit = 2 };

struct LogRecord {
  pipeline::Fingerprint fp;
  std::uint64_t bytes = 0;
  LogKind kind = LogKind::kSave;
  bool intact = false;  // CRC and kind check out
};

struct ParsedLog {
  bool header_ok = false;
  std::uint64_t base = 0;
  std::vector<LogRecord> records;  // one per complete slot, damaged included
  std::size_t torn_bytes = 0;      // a trailing partial record
};

std::string encode_log_header(std::uint64_t base) {
  std::string out = codec::begin_envelope(kLogMagic, kLogVersion);
  codec::put_u64(out, base);
  codec::seal_envelope(out, kLogMagic);
  return out;
}

/// Reads only the first kIndexLogHeaderBytes of `bytes`.
bool decode_log_header(std::string_view bytes, std::uint64_t& base) {
  std::optional<codec::Reader> in = codec::open_envelope(
      bytes.substr(0, kIndexLogHeaderBytes), kLogMagic, kLogVersion);
  if (!in.has_value()) return false;
  base = in->get_u64();
  return in->done();
}

std::string encode_log_record(const pipeline::Fingerprint& fp,
                              std::uint64_t bytes, LogKind kind) {
  std::string out;
  codec::put_u64(out, fp.hi);
  codec::put_u64(out, fp.lo);
  codec::put_u64(out, bytes);
  codec::put_u32(out, static_cast<std::uint32_t>(kind));
  codec::seal_record(out);
  return out;
}

ParsedLog parse_log(std::string_view bytes) {
  ParsedLog parsed;
  if (!decode_log_header(bytes, parsed.base)) return parsed;
  parsed.header_ok = true;
  std::string_view body = bytes.substr(kIndexLogHeaderBytes);
  for (; body.size() >= kIndexLogRecordBytes;
       body.remove_prefix(kIndexLogRecordBytes)) {
    // A damaged record keeps its slot (and so its clock) but no content.
    LogRecord& record = parsed.records.emplace_back();
    std::optional<codec::Reader> in =
        codec::open_record(body.substr(0, kIndexLogRecordBytes));
    if (!in.has_value()) continue;
    record.fp.hi = in->get_u64();
    record.fp.lo = in->get_u64();
    record.bytes = in->get_u64();
    record.kind = static_cast<LogKind>(in->get_u32());
    record.intact = in->done() && (record.kind == LogKind::kSave ||
                                   record.kind == LogKind::kHit);
  }
  parsed.torn_bytes = body.size();
  return parsed;
}

}  // namespace

// --- ScenarioStore -----------------------------------------------------------

ScenarioStore::ScenarioStore(std::string root) : root_(std::move(root)) {
  OSIM_CHECK_MSG(!root_.empty(), "store: empty root directory");
  std::error_code ec;
  fs::create_directories(fs::path(root_) / "objects", ec);
  if (!ec) fs::create_directories(fs::path(root_) / "tmp", ec);
  if (ec) {
    throw Error("store: cannot create cache directory " + root_ + ": " +
                ec.message());
  }
  sweep_stale_tmp(root_, kStaleTmpMaxAge);
}

std::size_t ScenarioStore::sweep_stale_tmp(const std::string& root,
                                           std::chrono::seconds max_age) {
  // Interrupted publications (kill -9 between write and rename) orphan
  // their temp files; nothing else ever references them, so age is the
  // only signal needed. The age guard keeps us from racing a live writer
  // in another process that has written but not yet renamed.
  std::size_t removed = 0;
  std::error_code ec;
  const fs::path tmp_dir = fs::path(root) / "tmp";
  if (!fs::is_directory(tmp_dir, ec)) return 0;
  const auto now = fs::file_time_type::clock::now();
  for (const auto& entry : fs::directory_iterator(tmp_dir, ec)) {
    std::error_code entry_ec;
    if (!entry.is_regular_file(entry_ec)) continue;
    const fs::file_time_type mtime = fs::last_write_time(entry, entry_ec);
    if (entry_ec) continue;
    if (now - mtime < max_age) continue;
    if (fs::remove(entry.path(), entry_ec) && !entry_ec) ++removed;
  }
  return removed;
}

std::string ScenarioStore::object_path(const pipeline::Fingerprint& fp) const {
  const std::string hex = pipeline::to_hex(fp);
  return (fs::path(root_) / "objects" / hex.substr(0, 2) / hex).string();
}

std::optional<ScenarioArtifact> ScenarioStore::load(
    const pipeline::Fingerprint& fp) {
  const std::optional<std::string> bytes = read_file(object_path(fp));
  std::optional<DecodedObject> decoded;
  if (bytes.has_value()) decoded = decode_object(*bytes);
  if (!settle_lookup(fp, bytes, decoded ? &decoded->fingerprint : nullptr)) {
    return std::nullopt;
  }
  return std::move(decoded->artifact);
}

void ScenarioStore::save(const pipeline::Fingerprint& fp,
                         const ScenarioArtifact& artifact) {
  publish(fp, encode_object(fp, artifact));
}

std::optional<lint::Report> ScenarioStore::load_lint(
    const pipeline::Fingerprint& fp) {
  const std::optional<std::string> bytes = read_file(object_path(fp));
  std::optional<DecodedLintObject> decoded;
  if (bytes.has_value()) decoded = decode_lint_object(*bytes);
  if (!settle_lookup(fp, bytes, decoded ? &decoded->fingerprint : nullptr)) {
    return std::nullopt;
  }
  return std::move(decoded->report);
}

void ScenarioStore::save_lint(const pipeline::Fingerprint& fp,
                              const lint::Report& report) {
  publish(fp, encode_lint_object(fp, report));
}

std::optional<std::string> ScenarioStore::load_report(
    const pipeline::Fingerprint& scenario) {
  const pipeline::Fingerprint fp = report_address(scenario);
  const std::optional<std::string> bytes = read_file(object_path(fp));
  std::optional<DecodedReportObject> decoded;
  if (bytes.has_value()) decoded = decode_report_object(*bytes);
  if (!settle_lookup(fp, bytes, decoded ? &decoded->fingerprint : nullptr)) {
    return std::nullopt;
  }
  return std::move(decoded->report_json);
}

void ScenarioStore::save_report(const pipeline::Fingerprint& scenario,
                                std::string_view report_json) {
  const pipeline::Fingerprint fp = report_address(scenario);
  publish(fp, encode_report_object(fp, report_json));
}

bool ScenarioStore::settle_lookup(const pipeline::Fingerprint& fp,
                                  const std::optional<std::string>& bytes,
                                  const pipeline::Fingerprint* decoded) {
  {
    std::lock_guard<std::mutex> guard(mutex_);
    if (!bytes.has_value()) {
      ++misses_;
      return false;
    }
    if (decoded == nullptr || !(*decoded == fp)) {
      // Damaged, version-skewed or mis-addressed: a miss, never an error.
      ++misses_;
      ++rejects_;
      return false;
    }
    ++hits_;
  }
  // Bump the LRU slot so gc() evicts cold objects first.
  record_access(fp, bytes->size(), /*hit=*/true);
  return true;
}

void ScenarioStore::publish(const pipeline::Fingerprint& fp,
                            const std::string& bytes) {
  const fs::path path(object_path(fp));
  std::error_code ec;
  fs::create_directories(path.parent_path(), ec);
  if (ec) {
    throw Error("store: cannot create " + path.parent_path().string() + ": " +
                ec.message());
  }
  write_file_atomic(path, bytes, fs::path(root_) / "tmp");
  record_access(fp, bytes.size(), /*hit=*/false);
}

void ScenarioStore::record_access(const pipeline::Fingerprint& fp,
                                  std::uint64_t bytes, bool hit) {
  const fs::path root(root_);
  const fs::path log_path = root / kLogName;
  FileLock lock(root / kLockName);

  // The index clock and size from its header alone. A header that does
  // not check out reads as clock 0, which is what the fold rebuilds a
  // damaged index to.
  std::uint64_t clock = 0;
  std::uint64_t entries = 0;
  const std::optional<FileHead> index_head =
      read_head(root / kIndexName, IndexCodec::kHeader);
  if (!index_head.has_value() ||
      !IndexCodec::decode_head(index_head->bytes, index_head->size, clock,
                               entries)) {
    clock = 0;
    entries = 0;
  }

  std::string append;
  std::ios::openmode mode = std::ios::binary | std::ios::app;
  std::uint64_t records = 0;
  std::uint64_t base = 0;
  const std::optional<FileHead> log_head =
      read_head(log_path, kIndexLogHeaderBytes);
  if (log_head.has_value() && decode_log_header(log_head->bytes, base) &&
      base == clock) {
    records = (log_head->size - kIndexLogHeaderBytes) / kIndexLogRecordBytes;
    const std::uint64_t valid_end =
        kIndexLogHeaderBytes + records * kIndexLogRecordBytes;
    if (log_head->size != valid_end) {
      // A crash tore the last append: drop it so ours starts a record.
      std::error_code ec;
      fs::resize_file(log_path, valid_end, ec);
      if (ec) {
        throw Error("store: cannot truncate " + log_path.string() + ": " +
                    ec.message());
      }
    }
  } else {
    // Missing, damaged, or stale: a crash between a fold's index rename
    // and its log removal leaves a log the index already holds. Start a
    // new log on the current index.
    append = encode_log_header(clock);
    mode = std::ios::binary | std::ios::trunc;
  }
  append += encode_log_record(fp, bytes, hit ? LogKind::kHit : LogKind::kSave);
  {
    std::ofstream out(log_path, mode);
    if (!out) throw Error("store: cannot open " + log_path.string());
    // Two-part write with a crash point between: dying there leaves the
    // torn record that the next access truncates and a fold ignores.
    const std::size_t half = append.size() - kIndexLogRecordBytes / 2;
    out.write(append.data(), static_cast<std::streamsize>(half));
    out.flush();
    maybe_crash("store.log.append.torn");
    out.write(append.data() + half,
              static_cast<std::streamsize>(append.size() - half));
    out.flush();
    if (!out) throw Error("store: failed appending to " + log_path.string());
  }
  // Folding once the log is as long as the index keeps the amortised
  // cost of an access constant.
  if (records + 1 >= std::max(entries, kIndexLogFoldFloor)) fold();
}

ScenarioStore::Index ScenarioStore::fold() {
  Index index = reconciled_index();
  write_index(index);
  // Dying here leaves a log whose base clock no longer matches the new
  // index: stale, so it is ignored rather than applied twice.
  maybe_crash("store.index.folded");
  std::error_code ec;
  fs::remove(fs::path(root_) / kLogName, ec);
  return index;
}

std::vector<pipeline::Fingerprint> ScenarioStore::scan_objects() const {
  std::vector<pipeline::Fingerprint> found;
  std::error_code ec;
  const fs::path objects = fs::path(root_) / "objects";
  for (fs::directory_iterator prefix(objects, ec);
       !ec && prefix != fs::directory_iterator(); prefix.increment(ec)) {
    if (!prefix->is_directory(ec)) continue;
    std::error_code inner;
    for (fs::directory_iterator file(prefix->path(), inner);
         !inner && file != fs::directory_iterator(); file.increment(inner)) {
      const std::optional<pipeline::Fingerprint> fp =
          pipeline::fingerprint_from_hex(file->path().filename().string());
      if (fp.has_value()) found.push_back(*fp);
    }
  }
  return found;
}

ScenarioStore::Index ScenarioStore::reconciled_index() {
  const fs::path root(root_);
  Index index;
  const std::optional<std::string> bytes = read_file(root / kIndexName);
  std::vector<std::uint64_t> flat;
  if (bytes.has_value() && IndexCodec::decode(*bytes, index.clock, flat)) {
    index.entries.reserve(flat.size() / 5);
    for (std::size_t i = 0; i + 4 < flat.size(); i += 5) {
      index.entries.push_back(IndexEntry{{flat[i + 1], flat[i]}, flat[i + 2],
                                         flat[i + 3], flat[i + 4]});
    }
  } else if (bytes.has_value()) {
    index.rebuilt = true;  // damaged index: rebuilt below, never fatal
  }
  // Replay the access log when it was started on this index; any other
  // base clock marks a log the index already holds.
  std::unordered_map<pipeline::Fingerprint, std::size_t,
                     pipeline::FingerprintHash>
      position;
  for (std::size_t i = 0; i < index.entries.size(); ++i) {
    position.emplace(index.entries[i].fp, i);
  }
  if (const std::optional<std::string> log = read_file(root / kLogName)) {
    const ParsedLog parsed = parse_log(*log);
    if (parsed.header_ok && parsed.base == index.clock) {
      for (const LogRecord& record : parsed.records) {
        ++index.clock;
        if (!record.intact) continue;
        const auto [it, inserted] =
            position.try_emplace(record.fp, index.entries.size());
        if (inserted) index.entries.push_back(IndexEntry{record.fp});
        IndexEntry& entry = index.entries[it->second];
        entry.bytes = record.bytes;
        entry.last_access = index.clock;
        if (record.kind == LogKind::kHit) ++entry.hits;
      }
    }
  }
  // Reconcile with the object tree: entries for vanished objects go, files
  // published without a log record (crash between rename and append, or a
  // hand-copied store) come in with unknown recency.
  std::vector<IndexEntry> alive;
  alive.reserve(index.entries.size());
  std::unordered_set<pipeline::Fingerprint, pipeline::FingerprintHash> known;
  for (const IndexEntry& entry : index.entries) {
    std::error_code ec;
    if (fs::exists(object_path(entry.fp), ec) && !ec) {
      alive.push_back(entry);
      known.insert(entry.fp);
    }
  }
  index.entries = std::move(alive);
  for (const pipeline::Fingerprint& fp : scan_objects()) {
    if (!known.insert(fp).second) continue;
    std::error_code ec;
    const std::uint64_t size = fs::file_size(object_path(fp), ec);
    index.entries.push_back(IndexEntry{fp, ec ? 0 : size, 0, 0});
  }
  return index;
}

void ScenarioStore::write_index(const Index& index) {
  std::vector<std::uint64_t> flat;
  flat.reserve(index.entries.size() * 5);
  for (const IndexEntry& entry : index.entries) {
    flat.push_back(entry.fp.hi);
    flat.push_back(entry.fp.lo);
    flat.push_back(entry.bytes);
    flat.push_back(entry.last_access);
    flat.push_back(entry.hits);
  }
  write_file_atomic(fs::path(root_) / kIndexName,
                    IndexCodec::encode(index.clock, flat),
                    fs::path(root_) / "tmp");
}

StoreStats ScenarioStore::stats() {
  FileLock lock(fs::path(root_) / kLockName);
  const Index index = fold();
  StoreStats stats;
  stats.clock = index.clock;
  stats.index_rebuilt = index.rebuilt;
  for (const IndexEntry& entry : index.entries) {
    ++stats.objects;
    stats.bytes += entry.bytes;
    stats.total_hits += entry.hits;
  }
  return stats;
}

VerifyReport ScenarioStore::verify() {
  VerifyReport report;
  for (const pipeline::Fingerprint& fp : scan_objects()) {
    ++report.objects_checked;
    const std::string path = object_path(fp);
    std::error_code rel_ec;
    const std::string relative = fs::relative(path, root_, rel_ec).string();
    const std::optional<std::string> bytes = read_file(path);
    if (!bytes.has_value()) {
      report.issues.push_back({relative, "unreadable"});
      continue;
    }
    // probe_object dispatches on the magic, so replay artifacts and lint
    // reports are both recognized (and neither flags the other as damage).
    const std::optional<pipeline::Fingerprint> probed = probe_object(*bytes);
    if (!probed.has_value()) {
      report.issues.push_back(
          {relative, "corrupt object (bad magic, version or CRC)"});
      continue;
    }
    if (!(*probed == fp)) {
      report.issues.push_back(
          {relative, "address mismatch: object records fingerprint " +
                         pipeline::to_hex(*probed)});
      continue;
    }
    ++report.objects_ok;
  }
  // The lock keeps a concurrent append from reading as a torn tail.
  FileLock lock(fs::path(root_) / kLockName);
  const std::optional<std::string> index_bytes =
      read_file(fs::path(root_) / kIndexName);
  if (index_bytes.has_value()) {
    std::uint64_t clock = 0;
    std::vector<std::uint64_t> flat;
    if (!IndexCodec::decode(*index_bytes, clock, flat)) {
      report.issues.push_back(
          {kIndexName, "damaged index (will be rebuilt on next use)"});
    }
  }
  const std::optional<std::string> log_bytes =
      read_file(fs::path(root_) / kLogName);
  if (log_bytes.has_value()) {
    const ParsedLog log = parse_log(*log_bytes);
    const auto damaged = std::count_if(
        log.records.begin(), log.records.end(),
        [](const LogRecord& record) { return !record.intact; });
    if (!log.header_ok) {
      report.issues.push_back(
          {kLogName, "damaged index log header (the log is ignored)"});
    } else if (damaged > 0) {
      report.issues.push_back(
          {kLogName, strprintf("%lld damaged index log record(s) (skipped "
                               "on the next fold)",
                               static_cast<long long>(damaged))});
    }
    if (log.torn_bytes > 0) {
      report.issues.push_back(
          {kLogName, strprintf("torn index log tail of %zu byte(s) (dropped "
                               "on the next access)",
                               log.torn_bytes)});
    }
  }
  return report;
}

GcReport ScenarioStore::gc(std::uint64_t max_bytes,
                           std::uint64_t max_objects) {
  FileLock lock(fs::path(root_) / kLockName);
  Index index = fold();

  GcReport report;
  for (const IndexEntry& entry : index.entries) {
    ++report.objects_before;
    report.bytes_before += entry.bytes;
  }

  // Corrupt objects are dead weight: they can only ever decode to misses,
  // so gc removes them regardless of the byte budget.
  std::vector<IndexEntry> intact;
  intact.reserve(index.entries.size());
  for (const IndexEntry& entry : index.entries) {
    const std::optional<std::string> bytes = read_file(object_path(entry.fp));
    const std::optional<pipeline::Fingerprint> probed =
        bytes.has_value() ? probe_object(*bytes) : std::nullopt;
    if (probed.has_value() && *probed == entry.fp) {
      intact.push_back(entry);
      continue;
    }
    std::error_code ec;
    fs::remove(object_path(entry.fp), ec);
    ++report.objects_removed;
    report.bytes_removed += entry.bytes;
  }

  // LRU eviction: coldest first (last_access 0 = never seen hot).
  std::sort(intact.begin(), intact.end(),
            [](const IndexEntry& a, const IndexEntry& b) {
              if (a.last_access != b.last_access) {
                return a.last_access < b.last_access;
              }
              return std::make_pair(a.fp.hi, a.fp.lo) <
                     std::make_pair(b.fp.hi, b.fp.lo);
            });
  std::uint64_t kept_bytes = 0;
  for (const IndexEntry& entry : intact) kept_bytes += entry.bytes;
  std::size_t evict = 0;
  while (evict < intact.size() &&
         (kept_bytes > max_bytes ||
          (max_objects != 0 && intact.size() - evict > max_objects))) {
    const IndexEntry& victim = intact[evict];
    std::error_code ec;
    fs::remove(object_path(victim.fp), ec);
    kept_bytes -= victim.bytes;
    ++report.objects_removed;
    report.bytes_removed += victim.bytes;
    ++evict;
  }
  intact.erase(intact.begin(),
               intact.begin() + static_cast<std::ptrdiff_t>(evict));

  report.objects_kept = intact.size();
  report.bytes_kept = kept_bytes;
  index.entries = std::move(intact);
  write_index(index);
  return report;
}

std::uint64_t ScenarioStore::hits() const {
  std::lock_guard<std::mutex> guard(mutex_);
  return hits_;
}

std::uint64_t ScenarioStore::misses() const {
  std::lock_guard<std::mutex> guard(mutex_);
  return misses_;
}

std::uint64_t ScenarioStore::rejects() const {
  std::lock_guard<std::mutex> guard(mutex_);
  return rejects_;
}

std::string VerifyReport::render_text() const {
  std::string out = strprintf("store verify: %llu object(s), %llu OK\n",
                              static_cast<unsigned long long>(objects_checked),
                              static_cast<unsigned long long>(objects_ok));
  for (const VerifyIssue& issue : issues) {
    out += "  " + issue.path + ": " + issue.message + "\n";
  }
  return out;
}

std::string resolve_cache_dir(std::string explicit_dir) {
  if (!explicit_dir.empty()) return explicit_dir;
  const char* env = std::getenv("OSIM_CACHE_DIR");
  return env != nullptr ? std::string(env) : std::string();
}

}  // namespace osim::store
