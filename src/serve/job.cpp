#include "serve/job.hpp"

#include "common/codec.hpp"
#include "common/crash_point.hpp"

namespace osim::serve {

void encode_spec(std::string& out, const ScenarioSpec& spec) {
  codec::put_string(out, spec.trace_path);
  codec::put_f64(out, spec.bandwidth);
  codec::put_f64(out, spec.latency);
  codec::put_i64(out, spec.buses);
  codec::put_i64(out, spec.ports);
  codec::put_i64(out, spec.eager);
  codec::put_string(out, spec.collectives);
  codec::put_string(out, spec.fault_spec);
  codec::put_string(out, spec.progress_spec);
}

ScenarioSpec decode_spec(codec::Reader& reader) {
  ScenarioSpec spec;
  spec.trace_path = reader.get_string();
  spec.bandwidth = reader.get_f64();
  spec.latency = reader.get_f64();
  spec.buses = reader.get_i64();
  spec.ports = reader.get_i64();
  spec.eager = reader.get_i64();
  spec.collectives = reader.get_string();
  spec.fault_spec = reader.get_string();
  spec.progress_spec = reader.get_string();
  return spec;
}

JobOutcome run_job(const ScenarioSpec& spec,
                   const std::shared_ptr<const trace::Trace>& trace,
                   store::ScenarioStore* store) {
  JobOutcome outcome;
  try {
    maybe_crash("serve.worker.job");
    const dimemas::Platform platform =
        pipeline::lower_platform(spec, trace->num_ranks);
    const pipeline::ReplayContext context(
        trace, platform, pipeline::lower_options(spec, true));
    // The replay itself is not storable (collect_metrics results carry
    // metrics the artifact format omits); the lint block caches.
    outcome.report_json = pipeline::scenario_report(
        pipeline::run_scenario(context), *trace, platform, store);
    outcome.ok = true;
  } catch (const std::exception& e) {
    outcome.error = e.what();
  }
  return outcome;
}

std::string encode_job_request(const JobRequest& request) {
  std::string out;
  codec::put_u64(out, request.ticket.hi);
  codec::put_u64(out, request.ticket.lo);
  encode_spec(out, request.spec);
  return out;
}

std::optional<JobRequest> decode_job_request(std::string_view payload) {
  codec::Reader reader(payload);
  JobRequest request;
  request.ticket.hi = reader.get_u64();
  request.ticket.lo = reader.get_u64();
  request.spec = decode_spec(reader);
  if (!reader.done()) return std::nullopt;
  return request;
}

std::string encode_job_result(const JobResult& result) {
  std::string out;
  codec::put_u64(out, result.ticket.hi);
  codec::put_u64(out, result.ticket.lo);
  codec::put_u8(out, result.ok ? 1 : 0);
  codec::put_string(out, result.report_json);
  codec::put_string(out, result.error);
  return out;
}

std::optional<JobResult> decode_job_result(std::string_view payload) {
  codec::Reader reader(payload);
  JobResult result;
  result.ticket.hi = reader.get_u64();
  result.ticket.lo = reader.get_u64();
  const std::uint8_t ok = reader.get_u8();
  result.report_json = reader.get_string();
  result.error = reader.get_string();
  if (!reader.done() || ok > 1) return std::nullopt;
  result.ok = ok == 1;
  return result;
}

}  // namespace osim::serve
