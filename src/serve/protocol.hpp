// OSIMRPC1 — the versioned binary RPC protocol of the analysis service.
//
// Connection layout (both Unix-domain and TCP):
//
//   handshake   each side sends magic "OSIMRPC1" (8 bytes) + u32 protocol
//               version before any frame; a peer with the wrong magic or
//               version is disconnected, never half-understood.
//   frames      u32 LE payload length, then the payload: u8 message type +
//               the message body (common/codec.hpp primitives). The
//               length is capped at kMaxFrameBytes on both ends: a writer
//               refuses a larger payload, and a reader judges the cap on
//               the header alone — a forged length rejects the connection
//               before any allocation happens.
//
// Decoding is strict and total, like every other format in this repo
// (store objects, journals, binary traces): decode_client_message() /
// decode_server_message() return nullopt on anything malformed — unknown
// type, short body, trailing bytes, oversized string — and never throw on
// content. The framing fuzzer in tests/serve_test.cpp holds them to that.
//
// The scenario ticket is the scenario fingerprint itself
// (pipeline::Fingerprint, spelled as 32 hex digits at the CLI): clients of
// the service and users of the batch tools name scenarios the same way,
// and two clients submitting the same work hold the same ticket — dedupe
// is an addressing property, not a server table.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <variant>

#include "pipeline/fingerprint.hpp"
#include "serve/job.hpp"

namespace osim::serve {

inline constexpr std::string_view kHandshakeMagic = "OSIMRPC1";
inline constexpr std::uint32_t kProtocolVersion = 1;
/// Hard cap on one frame's payload. Large enough for any run report the
/// pipeline emits (reports are tens of KB), small enough that a malicious
/// length field cannot balloon the server.
inline constexpr std::uint32_t kMaxFrameBytes = 16u << 20;

/// Handshake bytes each side sends on connect (magic + u32 version).
std::string handshake_bytes();
/// Validates a peer's 12 handshake bytes.
bool check_handshake(std::string_view bytes);
inline constexpr std::size_t kHandshakeBytes = 12;

// --- message types ----------------------------------------------------------

enum class MsgType : std::uint8_t {
  // client -> server
  kSubmitScenario = 1,
  kSubmitStudy = 2,
  kPollStatus = 3,
  kFetchReport = 4,
  kCancel = 5,
  kServerStats = 6,
  kShutdown = 7,
  // server -> client
  kSubmitted = 64,
  kStatus = 65,
  kReport = 66,
  kStats = 67,
  kOk = 68,
  kError = 69,
};

enum class RpcErrorCode : std::uint8_t {
  kBadRequest = 1,    // malformed spec, unreadable trace, unknown flag value
  kBusy = 2,          // admission control refused the submit; retry later
  kNotFound = 3,      // no such ticket
  kFailed = 4,        // the scenario replayed and failed (message says why)
  kShuttingDown = 5,  // server is draining; request was not accepted
};

const char* rpc_error_code_name(RpcErrorCode code);

/// Lifecycle of a submitted scenario, as reported by poll-status.
enum class JobState : std::uint8_t {
  kQueued = 0,
  kRunning = 1,
  kDone = 2,
  kFailed = 3,
  kCancelled = 4,
};

const char* job_state_name(JobState state);

/// How a submit was satisfied, per ticket (the dedupe telemetry clients
/// see — and what the concurrent-client test asserts on).
enum class SubmitDisposition : std::uint8_t {
  kFresh = 0,     // new job, will replay
  kShared = 1,    // joined an in-flight job with the same fingerprint
  kServed = 2,    // answered from a cached report, no replay
};

const char* submit_disposition_name(SubmitDisposition disposition);

// --- client -> server messages ----------------------------------------------

struct SubmitScenario {
  ScenarioSpec spec;
  friend bool operator==(const SubmitScenario&,
                         const SubmitScenario&) = default;
};

/// A bandwidth sweep over one trace — the batched form the controller
/// hands to a single worker as one Study-shaped unit of work.
struct SubmitStudy {
  ScenarioSpec base;
  std::vector<double> bandwidths;
  friend bool operator==(const SubmitStudy&, const SubmitStudy&) = default;
};

struct PollStatus {
  pipeline::Fingerprint ticket;
  /// true = stream-status: the server answers when the job reaches a
  /// terminal state instead of immediately.
  bool wait = false;
  friend bool operator==(const PollStatus&, const PollStatus&) = default;
};

struct FetchReport {
  pipeline::Fingerprint ticket;
  friend bool operator==(const FetchReport&, const FetchReport&) = default;
};

struct Cancel {
  pipeline::Fingerprint ticket;
  friend bool operator==(const Cancel&, const Cancel&) = default;
};

struct ServerStats {
  friend bool operator==(const ServerStats&, const ServerStats&) = default;
};

struct Shutdown {
  friend bool operator==(const Shutdown&, const Shutdown&) = default;
};

using ClientMessage = std::variant<SubmitScenario, SubmitStudy, PollStatus,
                                   FetchReport, Cancel, ServerStats, Shutdown>;

// --- server -> client messages ----------------------------------------------

struct TicketInfo {
  pipeline::Fingerprint ticket;
  SubmitDisposition disposition = SubmitDisposition::kFresh;
  friend bool operator==(const TicketInfo&, const TicketInfo&) = default;
};

struct Submitted {
  std::vector<TicketInfo> tickets;  // one per scenario, submit order
  friend bool operator==(const Submitted&, const Submitted&) = default;
};

struct StatusReply {
  pipeline::Fingerprint ticket;
  JobState state = JobState::kQueued;
  std::uint32_t attempts = 0;  // worker deaths survived so far
  std::string error;           // non-empty for kFailed
  friend bool operator==(const StatusReply&, const StatusReply&) = default;
};

struct ReportReply {
  pipeline::Fingerprint ticket;
  std::string report_json;
  friend bool operator==(const ReportReply&, const ReportReply&) = default;
};

struct StatsReply {
  std::string stats_json;
  friend bool operator==(const StatsReply&, const StatsReply&) = default;
};

struct OkReply {
  friend bool operator==(const OkReply&, const OkReply&) = default;
};

struct ErrorReply {
  RpcErrorCode code = RpcErrorCode::kBadRequest;
  std::string message;
  friend bool operator==(const ErrorReply&, const ErrorReply&) = default;
};

using ServerMessage = std::variant<Submitted, StatusReply, ReportReply,
                                   StatsReply, OkReply, ErrorReply>;

// --- frame (en|de)coding ----------------------------------------------------

/// Payload bytes (type tag + body) for one message; framed by the caller.
std::string encode_client_message(const ClientMessage& message);
std::string encode_server_message(const ServerMessage& message);

/// Strict total decode of one frame payload; nullopt on anything
/// malformed. Never throws on content.
std::optional<ClientMessage> decode_client_message(std::string_view payload);
std::optional<ServerMessage> decode_server_message(std::string_view payload);

/// Appends the u32 length header + payload to `out`. A payload over
/// kMaxFrameBytes is refused: nothing is appended and the result is false
/// (the peer's FrameReader would poison on it).
bool append_frame(std::string& out, std::string_view payload);

/// Incremental frame parser over a byte stream. feed() bytes as they
/// arrive, then drain next() until nullopt. A declared length above
/// kMaxFrameBytes poisons the reader (error() == true) without allocating
/// — the connection must be dropped.
class FrameReader {
 public:
  void feed(std::string_view bytes);
  /// The next complete frame payload, or nullopt when more bytes are
  /// needed (or the stream is poisoned).
  std::optional<std::string> next();
  bool error() const { return error_; }
  /// Bytes buffered but not yet returned (for backpressure accounting).
  std::size_t buffered() const { return buffer_.size() - consumed_; }

 private:
  std::string buffer_;
  std::size_t consumed_ = 0;
  bool error_ = false;
};

}  // namespace osim::serve
