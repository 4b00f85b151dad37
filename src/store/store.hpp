// ScenarioStore — a persistent, content-addressed artifact store.
//
// The disk tier of the replay cache (see pipeline::Study): objects are
// keyed by pipeline::Fingerprint and live at
//
//   <root>/objects/<first 2 hex digits>/<32 hex digits>
//
// alongside a small LRU index (<root>/index.osim), an append-only access
// log (<root>/index.log) and an advisory lock file (<root>/lock). The
// store is safe to share between concurrent processes and threads:
//
//   publication  objects are written to <root>/tmp and renamed into place,
//                so a reader only ever sees absent or complete files;
//   access log   every save and every load hit appends one fixed 32-byte
//                CRC'd record (fingerprint, object bytes, kind) to
//                index.log under an exclusive advisory flock on
//                <root>/lock. The log header names the index clock it
//                applies to, and record k carries clock base + k + 1, so
//                an access reads two headers and appends; it never reads
//                the index body or walks the tree;
//   fold         stats() and gc() fold the log into the index: replay its
//                records, reconcile with the object tree, publish the
//                index by rename, remove the log. An access folds too
//                once the log holds as many records as the index has
//                entries (at least kIndexLogFoldFloor), which keeps the
//                amortised cost of an access constant;
//   crashes      a log whose base clock is not the index clock was left
//                by a crash between a fold's index rename and its log
//                removal; the index already holds it, so it is ignored.
//                A torn last record loses only itself;
//   reads        load() derives the object path from the key alone and
//                reads it without the lock; only a hit takes the lock, to
//                append its record. That is what makes a gc'd,
//                hand-pruned or half-indexed store merely slower, never
//                wrong.
//
// Damage never propagates: a corrupt or version-skewed object decodes to
// a miss (strict CRC, see store/format.hpp), a damaged index is rebuilt
// from a directory scan, and a damaged log record is skipped. The index
// and the log are metadata only — byte sizes, hit counts and a logical LRU
// clock used by gc() — so losing them loses recency, not results.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "pipeline/fingerprint.hpp"
#include "store/format.hpp"

namespace osim::store {

/// Store-wide totals, as recorded in the index once the access log is
/// folded in (reconciled with the object tree, so stale entries do not
/// inflate the numbers).
struct StoreStats {
  std::uint64_t objects = 0;
  std::uint64_t bytes = 0;
  std::uint64_t total_hits = 0;  // lifetime disk hits recorded in the index
  std::uint64_t clock = 0;       // logical LRU clock (advances per access)
  bool index_rebuilt = false;    // index was missing/damaged and rebuilt
};

struct VerifyIssue {
  std::string path;  // relative to the store root
  std::string message;
};

/// Full-scan integrity report: every object decoded and checked against
/// its address, plus the index header.
struct VerifyReport {
  std::uint64_t objects_checked = 0;
  std::uint64_t objects_ok = 0;
  std::vector<VerifyIssue> issues;

  bool clean() const { return issues.empty(); }
  std::string render_text() const;
};

struct GcReport {
  std::uint64_t objects_before = 0;
  std::uint64_t bytes_before = 0;
  std::uint64_t objects_removed = 0;  // evicted + corrupt + stale
  std::uint64_t bytes_removed = 0;
  std::uint64_t objects_kept = 0;
  std::uint64_t bytes_kept = 0;
};

/// Temp files older than this are orphans of a crashed publication and
/// are swept when a store opens; anything younger may belong to a live
/// writer mid-rename.
inline constexpr std::chrono::seconds kStaleTmpMaxAge =
    std::chrono::seconds(3600);

/// Framing of <root>/index.log: a fixed header (magic, version, base
/// clock, CRC), then one fixed-size record per access.
inline constexpr std::size_t kIndexLogHeaderBytes = 24;
inline constexpr std::size_t kIndexLogRecordBytes = 32;
/// An access folds the log into the index once it holds this many
/// records or as many as the index has entries, whichever is more.
inline constexpr std::uint64_t kIndexLogFoldFloor = 1024;

class ScenarioStore {
 public:
  /// Opens (creating if needed) the store rooted at `root`; throws
  /// osim::Error when the directory tree cannot be created. Sweeps stale
  /// tmp files (older than kStaleTmpMaxAge) left behind by crashed
  /// publications.
  explicit ScenarioStore(std::string root);

  /// Removes `<root>/tmp` entries older than `max_age`; returns how many
  /// were removed. Exposed for tests and maintenance tools; the
  /// constructor calls it with kStaleTmpMaxAge. Never throws — an
  /// unsweepable orphan is tomorrow's problem, not today's error.
  static std::size_t sweep_stale_tmp(const std::string& root,
                                     std::chrono::seconds max_age);

  const std::string& root() const { return root_; }

  /// Strict read-through lookup. A hit bumps the object's LRU slot in the
  /// index; a corrupt, truncated or version-skewed object counts as a miss
  /// (and as a reject, see rejects()). Never throws on object damage.
  std::optional<ScenarioArtifact> load(const pipeline::Fingerprint& fp);

  /// Publishes `artifact` under `fp` (write temp + rename, then index
  /// update). Overwrites any previous object at the same address — replay
  /// is pure, so an overwrite is bit-identical anyway. Throws osim::Error
  /// on I/O failure; callers on the write-behind path treat that as a
  /// warning, not an error (the result is already computed).
  void save(const pipeline::Fingerprint& fp, const ScenarioArtifact& artifact);

  /// Lint-report twin of load(): strict read-through lookup of a cached
  /// lint report (object kind "OSIMLNT1"). Shares the object tree, index
  /// and LRU policy with replay artifacts.
  std::optional<lint::Report> load_lint(const pipeline::Fingerprint& fp);

  /// Lint-report twin of save().
  void save_lint(const pipeline::Fingerprint& fp, const lint::Report& report);

  /// Run-report twin of load(): strict read-through lookup of a cached
  /// JSON run report (object kind "OSIMRPT1"), keyed by the *scenario*
  /// fingerprint — the report_address() derivation happens inside, so
  /// callers never handle report addresses directly.
  std::optional<std::string> load_report(const pipeline::Fingerprint& scenario);

  /// Run-report twin of save(); stores the JSON bytes verbatim.
  void save_report(const pipeline::Fingerprint& scenario,
                   std::string_view report_json);

  /// Absolute object path for `fp` (the file may or may not exist).
  std::string object_path(const pipeline::Fingerprint& fp) const;

  /// Folds the access log into the index and reports its totals.
  StoreStats stats();
  /// Decodes every object; also reports a damaged index, and an access
  /// log with a bad header, damaged records or a torn tail.
  VerifyReport verify();

  /// Evicts least-recently-used objects until the store holds at most
  /// `max_bytes` of objects (and at most `max_objects` objects, when
  /// non-zero). Corrupt objects and stale index entries are always
  /// removed. max_bytes == 0 empties the store. Folds the access log
  /// first, so eviction sees every recorded access.
  GcReport gc(std::uint64_t max_bytes, std::uint64_t max_objects = 0);

  // Process-local probe counters (thread-safe).
  std::uint64_t hits() const;
  std::uint64_t misses() const;
  /// Objects that existed but failed the strict decode and were therefore
  /// served as misses. Also counted in misses().
  std::uint64_t rejects() const;

 private:
  struct IndexEntry {
    pipeline::Fingerprint fp;
    std::uint64_t bytes = 0;
    std::uint64_t last_access = 0;  // logical clock tick; 0 = never/unknown
    std::uint64_t hits = 0;
  };
  struct Index {
    std::uint64_t clock = 0;
    std::vector<IndexEntry> entries;
    bool rebuilt = false;
  };

  // Counts a lookup at fp's address and logs a hit's access. `bytes` is
  // what was read there (nullopt: nothing); `decoded` is the fingerprint
  // its strict decode recorded (nullptr: damaged). Returns whether it hit.
  bool settle_lookup(const pipeline::Fingerprint& fp,
                     const std::optional<std::string>& bytes,
                     const pipeline::Fingerprint* decoded);
  // Publishes an encoded object and logs the save.
  void publish(const pipeline::Fingerprint& fp, const std::string& bytes);
  // Appends one access record to the log; folds when it is long enough.
  void record_access(const pipeline::Fingerprint& fp, std::uint64_t bytes,
                     bool hit);
  // fold(), reconciled_index() and write_index() need the store lock held.
  Index fold();  // reconciled_index() + write_index() + remove the log
  Index reconciled_index();  // index + log replay + object-tree reconcile
  void write_index(const Index& index);
  std::vector<pipeline::Fingerprint> scan_objects() const;

  std::string root_;
  mutable std::mutex mutex_;  // guards the counters
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t rejects_ = 0;
};

/// Cache-directory resolution shared by StudyOptions::cache_dir and the
/// CLI --cache-dir flags: the explicit value wins, then $OSIM_CACHE_DIR,
/// then "" (disk tier off).
std::string resolve_cache_dir(std::string explicit_dir);

}  // namespace osim::store
