// osim_cache — maintenance surface for the persistent scenario store
// (src/store): the on-disk, content-addressed cache behind Study's
// --cache-dir / $OSIM_CACHE_DIR disk tier.
//
//   osim_cache stats  --cache-dir DIR            # object/byte/hit totals
//   osim_cache stats  --cache-dir DIR --journals # + per-study journals
//   osim_cache stats  --cache-dir DIR --json     # machine-readable document
//   osim_cache verify --cache-dir DIR            # full integrity scan
//   osim_cache gc     --cache-dir DIR --max-bytes N [--max-objects M]
//
// verify decodes every object (magic, version, CRC, address) and checks
// the index and its access log; it exits 0 only on a fully intact store,
// 1 otherwise. stats and gc fold the access log into the index first. gc
// removes corrupt objects unconditionally and then evicts least-recently-
// used objects until the store fits the given budget; study journals
// (supervise/journal.hpp) whose study completed — or whose file no longer
// parses — are evicted too, while in-progress journals are kept so a
// later --resume still finds them.
//
// Exit codes follow common/exit_codes.hpp: 0 OK, 1 verification failures,
// 2 bad command line.
#include <cstdio>
#include <string>
#include <vector>

#include "common/exit_codes.hpp"
#include "common/expect.hpp"
#include "common/flags.hpp"
#include "common/run_options.hpp"
#include "common/strings.hpp"
#include "pipeline/fingerprint.hpp"
#include "serve/stats.hpp"
#include "store/store.hpp"
#include "supervise/journal.hpp"

int main(int argc, char** argv) try {
  using namespace osim;

  std::string command;
  std::vector<const char*> rest;
  rest.push_back(argc > 0 ? argv[0] : "osim_cache");
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (command.empty() && !arg.starts_with("--")) {
      command = arg;
    } else {
      rest.push_back(argv[i]);
    }
  }

  RunOptions run;
  std::int64_t max_bytes = -1;
  std::int64_t max_objects = 0;
  bool show_journals = false;
  bool json = false;
  Flags flags(
      "osim_cache <stats|verify|gc>: inspect and maintain a persistent "
      "scenario store");
  run.register_flags(flags, nullptr, "");
  flags.add("journals", &show_journals,
            "stats: list each study journal (path, entries, status)");
  flags.add("json", &json,
            "stats: print the machine-readable osim.cache_stats document "
            "(the same body the analysis service's server-stats embeds)");
  flags.add("max-bytes", &max_bytes,
            "gc: evict LRU objects until the store holds at most this many "
            "bytes (required for gc; 0 empties the store)");
  flags.add("max-objects", &max_objects,
            "gc: additionally keep at most this many objects (0 = no limit)");
  if (!flags.parse(static_cast<int>(rest.size()), rest.data())) return 0;

  if (command.empty()) {
    throw UsageError("missing command: expected stats, verify or gc\n" +
                     flags.usage());
  }
  const std::string dir = store::resolve_cache_dir(run.cache_dir);
  if (dir.empty()) {
    throw UsageError("no store: pass --cache-dir or set $OSIM_CACHE_DIR");
  }
  store::ScenarioStore cache(dir);

  if (command == "stats") {
    if (json) {
      const std::vector<supervise::JournalInfo> journals =
          supervise::list_journals(dir);
      std::printf("%s\n", serve::cache_stats_json(cache, journals).c_str());
      return kExitOk;
    }
    const store::StoreStats stats = cache.stats();
    std::printf("store: %s\n", cache.root().c_str());
    std::printf("objects: %llu\n",
                static_cast<unsigned long long>(stats.objects));
    std::printf("bytes: %llu (%s)\n",
                static_cast<unsigned long long>(stats.bytes),
                format_bytes(static_cast<double>(stats.bytes)).c_str());
    std::printf("recorded hits: %llu\n",
                static_cast<unsigned long long>(stats.total_hits));
    std::printf("lru clock: %llu\n",
                static_cast<unsigned long long>(stats.clock));
    if (stats.index_rebuilt) {
      std::printf("index: rebuilt from an object scan (was missing or "
                  "damaged)\n");
    }
    const std::vector<supervise::JournalInfo> journals =
        supervise::list_journals(dir);
    std::size_t complete = 0;
    std::size_t invalid = 0;
    for (const supervise::JournalInfo& j : journals) {
      if (!j.valid) ++invalid;
      else if (j.complete) ++complete;
    }
    std::printf("journals: %zu (%zu complete, %zu in progress%s)\n",
                journals.size(), complete,
                journals.size() - complete - invalid,
                invalid != 0
                    ? strprintf(", %zu unreadable", invalid).c_str()
                    : "");
    if (show_journals) {
      for (const supervise::JournalInfo& j : journals) {
        const char* state = !j.valid      ? "unreadable"
                            : j.complete  ? "complete"
                                          : "in progress";
        std::printf("  %s  %zu entr%s (%zu ok)  %s  %s\n",
                    j.valid ? pipeline::to_hex(j.study).c_str()
                            : j.path.c_str(),
                    j.entries, j.entries == 1 ? "y" : "ies", j.ok,
                    format_bytes(static_cast<double>(j.bytes)).c_str(),
                    state);
      }
    }
    return kExitOk;
  }

  if (command == "verify") {
    const store::VerifyReport report = cache.verify();
    std::printf("%s", report.render_text().c_str());
    if (!report.clean()) {
      std::printf("%s: %zu issue(s)\n", cache.root().c_str(),
                  report.issues.size());
      return kExitError;
    }
    std::printf("%s: OK\n", cache.root().c_str());
    return kExitOk;
  }

  if (command == "gc") {
    if (max_bytes < 0) throw UsageError("gc requires --max-bytes");
    const store::GcReport report =
        cache.gc(static_cast<std::uint64_t>(max_bytes),
                 static_cast<std::uint64_t>(max_objects));
    std::printf("gc: removed %llu object(s), %s; kept %llu object(s), %s\n",
                static_cast<unsigned long long>(report.objects_removed),
                format_bytes(static_cast<double>(report.bytes_removed)).c_str(),
                static_cast<unsigned long long>(report.objects_kept),
                format_bytes(static_cast<double>(report.bytes_kept)).c_str());
    const std::size_t journals_removed = supervise::gc_journals(dir);
    if (journals_removed != 0) {
      std::printf("gc: removed %zu finished-study journal(s)\n",
                  journals_removed);
    }
    return kExitOk;
  }

  throw UsageError("unknown command '" + command +
                   "': expected stats, verify or gc");
} catch (const osim::UsageError& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return osim::kExitUsage;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return osim::kExitError;
}
