// The unit of work the analysis service schedules: one scenario spec,
// run to its run report.
//
// Byte-identity is the contract here. A report fetched from the service
// must be bit-for-bit the document `osim_replay --report` writes for the
// same trace and flags (scripts/serve_test.sh cmp's the two). Both sides
// take the scenario as the one pipeline::ScenarioSpec and go through its
// lowering (lower_platform/lower_options) and its report path
// (scenario_report), so the two agree by construction. A ticket is
// spec_fingerprint() of the report replay (metrics collection on), which
// is why it differs from what `osim_inspect --fingerprint` prints for the
// same flags: that is the summary replay `osim_replay --cache-dir` stores.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "pipeline/fingerprint.hpp"
#include "pipeline/scenario.hpp"
#include "serve/wire.hpp"
#include "store/store.hpp"
#include "trace/trace.hpp"

namespace osim::serve {

using ScenarioSpec = pipeline::ScenarioSpec;

/// Wire body of a spec (serve/wire.hpp primitives); shared by the client
/// RPC messages and the controller->worker job frames.
void encode_spec(std::string& out, const ScenarioSpec& spec);
/// Strict decode via a wire::Reader the caller owns (so specs can embed in
/// larger messages); leaves the reader poisoned on malformed input.
ScenarioSpec decode_spec(wire::Reader& reader);

/// Outcome of one job, as the worker reports it.
struct JobOutcome {
  bool ok = false;
  std::string report_json;  // when ok
  std::string error;        // when !ok
};

/// Runs one scenario over its already-read trace to its JSON run report
/// (a worker handed N scenarios over one trace reads it once). `store`,
/// when non-null, serves/fills the lint cache. Never throws: failures come
/// back as JobOutcome::error. Crash point "serve.worker.job" fires at entry
/// (worker-death injection for the retry tests).
JobOutcome run_job(const ScenarioSpec& spec,
                   const std::shared_ptr<const trace::Trace>& trace,
                   store::ScenarioStore* store);

// --- controller <-> worker frames -------------------------------------------
//
// The worker socket speaks the same u32-length framing as the client
// protocol but its own two-message vocabulary; both ends are inside this
// process tree, yet decoding stays strict — a worker is a crash domain,
// not a trust domain.

struct JobRequest {
  pipeline::Fingerprint ticket;
  ScenarioSpec spec;
  friend bool operator==(const JobRequest&, const JobRequest&) = default;
};

struct JobResult {
  pipeline::Fingerprint ticket;
  bool ok = false;
  std::string report_json;
  std::string error;
  friend bool operator==(const JobResult&, const JobResult&) = default;
};

std::string encode_job_request(const JobRequest& request);
std::optional<JobRequest> decode_job_request(std::string_view payload);
std::string encode_job_result(const JobResult& result);
std::optional<JobResult> decode_job_result(std::string_view payload);

}  // namespace osim::serve
