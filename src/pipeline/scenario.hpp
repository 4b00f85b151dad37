// Scenario lowering — the single app→trace→transform→replay entry point,
// and the single flag-level description of a scenario.
//
// Every bench and tool used to hand-roll the same glue: lower the annotated
// trace (original, or overlap-transformed with measured/ideal patterns),
// pick a platform, call dimemas::replay. make_context() owns the lowering
// and run_scenario() owns the replay call; nothing above the pipeline layer
// calls dimemas::replay directly (scripts/check.sh enforces this for bench/
// and src/analysis/).
//
// ScenarioSpec does the same for the command line and the service: one
// flag registration, one lowering to Platform/ReplayOptions (with range
// checks), one fingerprint and one report path. The batch tools and the
// service both go through them, so a service report is the batch report
// byte for byte and both address the same store objects (scripts/check.sh
// keeps new copies of the lowering out of tools/ and src/serve/).
#pragma once

#include <cstdint>
#include <string>

#include "common/flags.hpp"
#include "overlap/options.hpp"
#include "pipeline/context.hpp"
#include "store/store.hpp"
#include "trace/annotated.hpp"

namespace osim::pipeline {

/// Which of the paper's three traces to lower from an annotated run.
enum class TraceVariant {
  kOriginal,         // the non-overlapped execution
  kOverlapMeasured,  // overlapped, measured production/consumption patterns
  kOverlapIdeal,     // overlapped, ideal (uniform) patterns
};

const char* trace_variant_name(TraceVariant variant);

/// Lowers `annotated` per `variant` — forcing the matching PatternMode for
/// the overlapped variants — and wraps the result with `platform` and
/// `replay_options` into a validated ReplayContext.
ReplayContext make_context(const trace::AnnotatedTrace& annotated,
                           TraceVariant variant,
                           const overlap::OverlapOptions& overlap_options,
                           dimemas::Platform platform,
                           dimemas::ReplayOptions replay_options = {});

/// Replays the context's trace on its platform: the one place a simulation
/// result comes from above the dimemas layer.
dimemas::SimResult run_scenario(const ReplayContext& context);

/// One scenario given by flags: a trace file plus the platform and replay
/// option flags osim_replay, osim_inspect, osim_client and the analysis
/// service share (serve::ScenarioSpec is this type). Defaults are the
/// tools' flag defaults.
struct ScenarioSpec {
  std::string trace_path;                     // --trace
  double bandwidth = 250.0;                   // --bandwidth, MB/s
  double latency = 4.0;                       // --latency, us
  std::int64_t buses = 0;                     // --buses (0 = unlimited)
  std::int64_t ports = 1;                     // --ports
  std::int64_t eager = 16 * 1024;             // --eager, bytes
  std::string collectives = "binomial-tree";  // --collectives
  std::string fault_spec;                     // --faults ('' = none)
  std::string progress_spec;                  // --progress ('' = offload)

  friend bool operator==(const ScenarioSpec&, const ScenarioSpec&) = default;

  /// Registers the scenario flags above; `trace_help` is --trace's help
  /// text (the one flag whose role differs per tool).
  void register_flags(Flags& flags, const std::string& trace_help);
};

/// The platform `spec` replays on for a trace of `num_ranks` ranks. A
/// `platform_file` overrides the network flags; it must have at least
/// `num_ranks` nodes (osim::Error otherwise, and when it cannot be opened)
/// and parse with dimemas::read_platform (osim::UsageError otherwise,
/// e.g. for a non-finite or out-of-range value). Without one, the flags must
/// lie in the ranges platform files enforce — bandwidth finite and > 0,
/// latency finite and >= 0, buses >= 0, ports > 0, eager >= 0 — or
/// osim::UsageError is thrown.
dimemas::Platform lower_platform(const ScenarioSpec& spec,
                                 std::int32_t num_ranks,
                                 const std::string& platform_file = {});

/// The replay options `spec` describes (collective algorithm, fault and
/// progress models), with metrics collection — which run reports need — as
/// given. Throws osim::UsageError on an unknown or malformed spelling.
dimemas::ReplayOptions lower_options(const ScenarioSpec& spec,
                                     bool collect_metrics);

/// What fingerprinting a scenario needs to know about its trace file, so
/// a caller can address many scenarios over one trace without holding it.
struct TraceInfo {
  Fingerprint fingerprint;  // fingerprint_of() the trace
  std::int32_t num_ranks = 0;
  std::uint64_t file_bytes = 0;  // on-disk size (admission accounting)
};

/// Reads and fingerprints `path` (either trace format). Throws osim::Error
/// when the file is unreadable or malformed.
TraceInfo probe_trace(const std::string& path);

/// The fingerprint of `spec` lowered against `trace`: bit-identical to the
/// ReplayContext::fingerprint() of the same inputs, hence the address of
/// the scenario's store objects. `collect_metrics` is hashed in, so the
/// summary replay osim_replay --cache-dir stores and osim_inspect
/// --fingerprint prints (off) and the report replay a service ticket names
/// (on) are different scenarios for the same flags.
Fingerprint spec_fingerprint(const ScenarioSpec& spec, const TraceInfo& trace,
                             bool collect_metrics,
                             const std::string& platform_file = {});

/// The run report of a finished replay of `trace` on `platform`: the
/// trace's lint block (through `store`'s lint cache when non-null) next to
/// the replay. osim_replay --report and the service's workers both render
/// reports here, which is what makes their bytes comparable with cmp(1).
std::string scenario_report(const dimemas::SimResult& result,
                            const trace::Trace& trace,
                            const dimemas::Platform& platform,
                            store::ScenarioStore* store);

}  // namespace osim::pipeline
