// osim_inspect — summarize a trace file: record counts, communication
// volumes, message-size distribution, per-rank structure; optionally
// validate only.
//
// --validate-only runs both the structural validator (trace::validate)
// and the semantic linter (lint::lint_trace), so a trace that would replay
// into garbage — unmatched traffic, leaked requests, deadlock, mismatched
// collectives — is rejected here with per-record diagnostics.
//
// --validate additionally reads the file through the salvaging reader
// first and prints a damage summary (corrupt records, CRC mismatches,
// truncation, with byte offsets), then validates whatever was salvaged.
// Exit codes follow common/exit_codes.hpp: 0 clean, 1 semantically
// invalid, 3 unreadable, 4 damaged but salvageable.
//
// --fingerprint prints the pipeline::ReplayContext content fingerprint of
// the trace under the scenario flags osim_replay takes (the shared
// pipeline::ScenarioSpec registration): the content address of the summary
// replay `osim_replay --cache-dir` stores (see osim_cache). Use it to
// correlate store objects with their inputs. It is not a service ticket:
// a ticket addresses the report replay (metrics collection on), so the two
// differ for the same flags. With --cache-dir, the object path and its
// presence are printed too.
//
//   osim_inspect --trace /tmp/cg.original.trace
//   osim_inspect --trace t.trace --validate-only
//   osim_inspect --trace t.trace --validate       # + damage triage
//   osim_inspect --trace t.trace --fingerprint --bandwidth 250 --buses 6
#include <cstdio>
#include <filesystem>
#include <utility>

#include "common/exit_codes.hpp"
#include "common/expect.hpp"
#include "common/flags.hpp"
#include "lint/lint.hpp"
#include "pipeline/scenario.hpp"
#include "store/store.hpp"
#include "trace/binary_io.hpp"
#include "trace/summary.hpp"

namespace {

/// Structural + semantic validation of an in-memory trace; returns the
/// process exit code.
int validate_trace(const osim::trace::Trace& t, const std::string& path) {
  using namespace osim;
  trace::validate(t);
  const lint::Report report = lint::lint_trace(t);
  if (!report.clean()) {
    std::printf("%s", report.render_text().c_str());
    return report.num_errors() > 0 ? kExitError : kExitOk;
  }
  std::printf("%s: valid\n", path.c_str());
  return kExitOk;
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace osim;
  pipeline::ScenarioSpec spec;
  bool validate_only = false;
  bool validate = false;
  bool fingerprint = false;
  std::string platform_path;
  std::string cache_dir;

  Flags flags("osim_inspect: summarize and validate a trace file");
  spec.register_flags(flags, "trace file to inspect (required)");
  flags.add("validate-only", &validate_only,
            "exit after structural validation and semantic lint");
  flags.add("validate", &validate,
            "like --validate-only, but salvage damaged input first and "
            "print a damage summary (exit 3 = unreadable, 4 = damaged "
            "but salvageable)");
  flags.add("fingerprint", &fingerprint,
            "print the ReplayContext content fingerprint of this trace "
            "under the scenario flags (the address of the summary replay "
            "osim_replay --cache-dir stores — see osim_cache)");
  flags.add("platform", &platform_path,
            "fingerprint: platform file; overrides the network flags");
  flags.add("cache-dir", &cache_dir,
            "fingerprint: also print the object path in this scenario "
            "store and whether it is present");
  if (!flags.parse(argc, argv)) return 0;
  const std::string& trace_path = spec.trace_path;
  if (trace_path.empty()) throw UsageError("--trace is required");

  if (fingerprint) {
    const pipeline::Fingerprint address = pipeline::spec_fingerprint(
        spec, pipeline::probe_trace(trace_path), false, platform_path);
    std::printf("%s\n", pipeline::to_hex(address).c_str());
    const std::string dir = store::resolve_cache_dir(cache_dir);
    if (!dir.empty()) {
      store::ScenarioStore cache(dir);
      const std::string path = cache.object_path(address);
      const bool present = std::filesystem::exists(path);
      std::printf("object: %s (%s)\n", path.c_str(),
                  present ? "present" : "absent");
    }
    return kExitOk;
  }

  if (validate) {
    trace::RecoveredTrace recovered =
        trace::read_any_file_recover(trace_path);
    if (!recovered.damage.clean()) {
      std::printf("%s", recovered.damage.render_text().c_str());
      if (recovered.damage.unusable) {
        std::printf("%s: unreadable\n", trace_path.c_str());
        return kExitUnreadable;
      }
      // Validate the salvage so the damage triage is complete, but the
      // exit code reports the damage even when the salvage lints clean.
      try {
        validate_trace(recovered.trace, trace_path);
      } catch (const Error& e) {
        std::printf("structural validation of the salvage failed: %s\n",
                    e.what());
      }
      std::printf("%s: damaged but salvageable\n", trace_path.c_str());
      return kExitSalvaged;
    }
    return validate_trace(recovered.trace, trace_path);
  }

  const trace::Trace t = trace::read_any_file(trace_path);
  trace::validate(t);
  if (validate_only) {
    const lint::Report report = lint::lint_trace(t);
    if (!report.clean()) {
      std::printf("%s", report.render_text().c_str());
      return report.num_errors() > 0 ? kExitError : kExitOk;
    }
    std::printf("%s: valid\n", trace_path.c_str());
    return kExitOk;
  }
  std::printf("%s", trace::render(trace::summarize(t)).c_str());
  return kExitOk;
} catch (const osim::UsageError& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return osim::kExitUsage;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return osim::kExitError;
}
