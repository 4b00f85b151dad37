#include "store/format.hpp"

#include <utility>

#include "common/codec.hpp"
#include "metrics/replay_metrics.hpp"

namespace osim::store {

namespace {

using codec::put_f64;
using codec::put_u64;
using codec::put_u8;

void put_rank_stats(std::string& out, const dimemas::RankStats& s) {
  put_f64(out, s.compute_s);
  put_f64(out, s.send_blocked_s);
  put_f64(out, s.recv_blocked_s);
  put_f64(out, s.wait_blocked_s);
  put_f64(out, s.finish_time);
  put_u64(out, s.messages_sent);
  put_u64(out, s.messages_received);
  put_u64(out, s.bytes_sent);
  put_u64(out, s.bytes_received);
}

dimemas::RankStats get_rank_stats(codec::Reader& in) {
  dimemas::RankStats s;
  s.compute_s = in.get_f64();
  s.send_blocked_s = in.get_f64();
  s.recv_blocked_s = in.get_f64();
  s.wait_blocked_s = in.get_f64();
  s.finish_time = in.get_f64();
  s.messages_sent = in.get_u64();
  s.messages_received = in.get_u64();
  s.bytes_sent = in.get_u64();
  s.bytes_received = in.get_u64();
  return s;
}

/// Upper bound on stored rank counts: a flipped length byte must fail the
/// decode instead of provoking a multi-gigabyte allocation before the CRC
/// verdict is even consulted. (The CRC is checked first regardless; this
/// guards the decoder against future reorderings.)
constexpr std::uint64_t kMaxRanks = 1u << 20;

/// Same role for stored string lengths and diagnostic counts.
constexpr std::uint64_t kMaxStringBytes = 1u << 24;
constexpr std::uint64_t kMaxDiagnostics = 1u << 22;

/// The envelope every object kind shares: magic, version, then the
/// content address, u64 payload size and the payload, then the CRC.
std::string seal_object(std::string_view magic, std::uint32_t version,
                        const pipeline::Fingerprint& fp,
                        std::string_view payload) {
  std::string out = codec::begin_envelope(magic, version);
  out.reserve(magic.size() + 28 + payload.size() + 4);
  put_u64(out, fp.hi);
  put_u64(out, fp.lo);
  put_u64(out, payload.size());
  out.append(payload);
  codec::seal_envelope(out, magic);
  return out;
}

/// Opens the envelope of one object kind: nullopt on a foreign magic,
/// version skew, a CRC mismatch or a payload size that disagrees with the
/// bytes present. Integrity comes before interpretation: the CRC covers
/// version, address, size and payload, so a single flipped bit anywhere
/// is rejected before a field is read.
std::optional<codec::Reader> open_object(std::string_view bytes,
                                         std::string_view magic,
                                         std::uint32_t version,
                                         pipeline::Fingerprint& fp) {
  std::optional<codec::Reader> body =
      codec::open_envelope(bytes, magic, version);
  if (!body.has_value()) return std::nullopt;
  fp.hi = body->get_u64();
  fp.lo = body->get_u64();
  if (body->get_u64() != body->remaining() || !body->ok()) {
    return std::nullopt;
  }
  return body;
}

}  // namespace

std::string encode_object(const pipeline::Fingerprint& fp,
                          const ScenarioArtifact& artifact) {
  std::string payload;
  put_f64(payload, artifact.makespan);
  put_u64(payload, artifact.des_events);
  put_f64(payload, artifact.fault_wait_s);
  put_f64(payload, artifact.progress_wait_s);
  faults::put_counts(payload, artifact.fault_counts);
  put_u64(payload, artifact.rank_stats.size());
  for (const dimemas::RankStats& s : artifact.rank_stats) {
    put_rank_stats(payload, s);
  }
  return seal_object(kObjectMagic, kObjectVersion, fp, payload);
}

std::optional<DecodedObject> decode_object(std::string_view bytes) {
  DecodedObject decoded;
  std::optional<codec::Reader> in =
      open_object(bytes, kObjectMagic, kObjectVersion, decoded.fingerprint);
  if (!in.has_value()) return std::nullopt;
  ScenarioArtifact& a = decoded.artifact;
  a.makespan = in->get_f64();
  a.des_events = in->get_u64();
  a.fault_wait_s = in->get_f64();
  a.progress_wait_s = in->get_f64();
  a.fault_counts = faults::get_counts(*in);
  const std::uint64_t rank_count = in->get_u64();
  if (!in->ok() || rank_count > kMaxRanks) return std::nullopt;
  a.rank_stats.reserve(rank_count);
  for (std::uint64_t r = 0; r < rank_count && in->ok(); ++r) {
    a.rank_stats.push_back(get_rank_stats(*in));
  }
  if (!in->done()) return std::nullopt;  // short or trailing payload bytes
  return decoded;
}

ScenarioArtifact make_artifact(const dimemas::SimResult& result) {
  ScenarioArtifact artifact;
  artifact.makespan = result.makespan;
  artifact.des_events = result.des_events;
  artifact.rank_stats = result.rank_stats;
  artifact.fault_counts = result.fault_counts;
  if (result.metrics != nullptr) {
    for (const metrics::RankWaitAttribution& waits :
         result.metrics->rank_waits) {
      artifact.fault_wait_s += waits.total().fault_s;
      artifact.progress_wait_s += waits.total().progress_s;
    }
  }
  return artifact;
}

dimemas::SimResult to_sim_result(const ScenarioArtifact& artifact) {
  dimemas::SimResult result;
  result.makespan = artifact.makespan;
  result.des_events = artifact.des_events;
  result.rank_stats = artifact.rank_stats;
  result.fault_counts = artifact.fault_counts;
  return result;
}

std::string encode_lint_object(const pipeline::Fingerprint& fp,
                               const lint::Report& report) {
  std::string payload;
  put_u64(payload, report.diagnostics().size());
  for (const lint::Diagnostic& d : report.diagnostics()) {
    put_u8(payload, static_cast<std::uint8_t>(d.severity));
    codec::put_string64(payload, d.pass);
    codec::put_string64(payload, d.code);
    codec::put_i64(payload, d.rank);
    codec::put_i64(payload, d.record);
    codec::put_string64(payload, d.message);
    codec::put_string64(payload, d.evidence);
  }
  return seal_object(kLintObjectMagic, kLintObjectVersion, fp, payload);
}

std::optional<DecodedLintObject> decode_lint_object(std::string_view bytes) {
  DecodedLintObject decoded;
  std::optional<codec::Reader> in = open_object(
      bytes, kLintObjectMagic, kLintObjectVersion, decoded.fingerprint);
  if (!in.has_value()) return std::nullopt;
  const std::uint64_t count = in->get_u64();
  if (count > kMaxDiagnostics) return std::nullopt;
  for (std::uint64_t i = 0; i < count; ++i) {
    lint::Diagnostic d;
    const std::uint8_t severity = in->get_u8();
    d.pass = in->get_string64(kMaxStringBytes);
    d.code = in->get_string64(kMaxStringBytes);
    d.rank = static_cast<trace::Rank>(in->get_i64());
    d.record = static_cast<std::ptrdiff_t>(in->get_i64());
    d.message = in->get_string64(kMaxStringBytes);
    d.evidence = in->get_string64(kMaxStringBytes);
    if (!in->ok() || severity > 2) return std::nullopt;
    d.severity = static_cast<lint::Severity>(severity);
    decoded.report.add(std::move(d));
  }
  if (!in->done()) return std::nullopt;  // short or trailing payload bytes
  return decoded;
}

pipeline::Fingerprint report_address(const pipeline::Fingerprint& scenario) {
  // Folded over a domain tag so a report address can never equal the
  // scenario fingerprint it derives from.
  pipeline::Hasher h;
  h.u64(0x52505254);  // domain tag "RPRT"
  h.u64(scenario.lo);
  h.u64(scenario.hi);
  h.u64(kReportObjectVersion);
  return h.value();
}

std::string encode_report_object(const pipeline::Fingerprint& fp,
                                 std::string_view report_json) {
  return seal_object(kReportObjectMagic, kReportObjectVersion, fp,
                         report_json);
}

std::optional<DecodedReportObject> decode_report_object(
    std::string_view bytes) {
  DecodedReportObject decoded;
  std::optional<codec::Reader> in = open_object(
      bytes, kReportObjectMagic, kReportObjectVersion, decoded.fingerprint);
  if (!in.has_value()) return std::nullopt;
  decoded.report_json.assign(in->get_bytes(in->remaining()));
  return decoded;
}

std::optional<pipeline::Fingerprint> probe_object(std::string_view bytes) {
  if (bytes.size() >= kLintObjectMagic.size() &&
      bytes.substr(0, kLintObjectMagic.size()) == kLintObjectMagic) {
    const std::optional<DecodedLintObject> lint_obj =
        decode_lint_object(bytes);
    if (lint_obj.has_value()) return lint_obj->fingerprint;
    return std::nullopt;
  }
  if (bytes.size() >= kReportObjectMagic.size() &&
      bytes.substr(0, kReportObjectMagic.size()) == kReportObjectMagic) {
    const std::optional<DecodedReportObject> report_obj =
        decode_report_object(bytes);
    if (report_obj.has_value()) return report_obj->fingerprint;
    return std::nullopt;
  }
  const std::optional<DecodedObject> obj = decode_object(bytes);
  if (obj.has_value()) return obj->fingerprint;
  return std::nullopt;
}

}  // namespace osim::store
