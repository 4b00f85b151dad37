#include "serve/protocol.hpp"

#include "common/codec.hpp"

namespace osim::serve {

// The handshake is an envelope header without body or CRC.
std::string handshake_bytes() {
  return codec::begin_envelope(kHandshakeMagic, kProtocolVersion);
}

bool check_handshake(std::string_view bytes) {
  return bytes.size() == kHandshakeBytes &&
         codec::peek_envelope(bytes, kHandshakeMagic, kProtocolVersion)
             .has_value();
}

const char* rpc_error_code_name(RpcErrorCode code) {
  switch (code) {
    case RpcErrorCode::kBadRequest:
      return "bad-request";
    case RpcErrorCode::kBusy:
      return "busy";
    case RpcErrorCode::kNotFound:
      return "not-found";
    case RpcErrorCode::kFailed:
      return "failed";
    case RpcErrorCode::kShuttingDown:
      return "shutting-down";
  }
  return "unknown";
}

const char* job_state_name(JobState state) {
  switch (state) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kDone:
      return "done";
    case JobState::kFailed:
      return "failed";
    case JobState::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

const char* submit_disposition_name(SubmitDisposition disposition) {
  switch (disposition) {
    case SubmitDisposition::kFresh:
      return "fresh";
    case SubmitDisposition::kShared:
      return "shared";
    case SubmitDisposition::kServed:
      return "served";
  }
  return "unknown";
}

namespace {

void put_fingerprint(std::string& out, const pipeline::Fingerprint& fp) {
  codec::put_u64(out, fp.hi);
  codec::put_u64(out, fp.lo);
}

pipeline::Fingerprint get_fingerprint(codec::Reader& reader) {
  pipeline::Fingerprint fp;
  fp.hi = reader.get_u64();
  fp.lo = reader.get_u64();
  return fp;
}

}  // namespace

std::string encode_client_message(const ClientMessage& message) {
  std::string out;
  if (const auto* m = std::get_if<SubmitScenario>(&message)) {
    codec::put_u8(out, static_cast<std::uint8_t>(MsgType::kSubmitScenario));
    encode_spec(out, m->spec);
  } else if (const auto* m = std::get_if<SubmitStudy>(&message)) {
    codec::put_u8(out, static_cast<std::uint8_t>(MsgType::kSubmitStudy));
    encode_spec(out, m->base);
    codec::put_u32(out, static_cast<std::uint32_t>(m->bandwidths.size()));
    for (const double bw : m->bandwidths) codec::put_f64(out, bw);
  } else if (const auto* m = std::get_if<PollStatus>(&message)) {
    codec::put_u8(out, static_cast<std::uint8_t>(MsgType::kPollStatus));
    put_fingerprint(out, m->ticket);
    codec::put_u8(out, m->wait ? 1 : 0);
  } else if (const auto* m = std::get_if<FetchReport>(&message)) {
    codec::put_u8(out, static_cast<std::uint8_t>(MsgType::kFetchReport));
    put_fingerprint(out, m->ticket);
  } else if (const auto* m = std::get_if<Cancel>(&message)) {
    codec::put_u8(out, static_cast<std::uint8_t>(MsgType::kCancel));
    put_fingerprint(out, m->ticket);
  } else if (std::get_if<ServerStats>(&message) != nullptr) {
    codec::put_u8(out, static_cast<std::uint8_t>(MsgType::kServerStats));
  } else {
    codec::put_u8(out, static_cast<std::uint8_t>(MsgType::kShutdown));
  }
  return out;
}

std::optional<ClientMessage> decode_client_message(std::string_view payload) {
  codec::Reader reader(payload);
  switch (static_cast<MsgType>(reader.get_u8())) {
    case MsgType::kSubmitScenario: {
      SubmitScenario m;
      m.spec = decode_spec(reader);
      if (!reader.done()) return std::nullopt;
      return ClientMessage(m);
    }
    case MsgType::kSubmitStudy: {
      SubmitStudy m;
      m.base = decode_spec(reader);
      const std::uint32_t count = reader.get_u32();
      // Each bandwidth is 8 bytes; bound the loop by what is actually
      // present so a forged count cannot drive a giant reserve.
      if (!reader.ok() || count > reader.remaining() / 8) return std::nullopt;
      m.bandwidths.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        m.bandwidths.push_back(reader.get_f64());
      }
      if (!reader.done()) return std::nullopt;
      return ClientMessage(m);
    }
    case MsgType::kPollStatus: {
      PollStatus m;
      m.ticket = get_fingerprint(reader);
      const std::uint8_t wait = reader.get_u8();
      if (!reader.done() || wait > 1) return std::nullopt;
      m.wait = wait == 1;
      return ClientMessage(m);
    }
    case MsgType::kFetchReport: {
      FetchReport m;
      m.ticket = get_fingerprint(reader);
      if (!reader.done()) return std::nullopt;
      return ClientMessage(m);
    }
    case MsgType::kCancel: {
      Cancel m;
      m.ticket = get_fingerprint(reader);
      if (!reader.done()) return std::nullopt;
      return ClientMessage(m);
    }
    case MsgType::kServerStats: {
      if (!reader.done()) return std::nullopt;
      return ClientMessage(ServerStats{});
    }
    case MsgType::kShutdown: {
      if (!reader.done()) return std::nullopt;
      return ClientMessage(Shutdown{});
    }
    default:
      return std::nullopt;
  }
}

std::string encode_server_message(const ServerMessage& message) {
  std::string out;
  if (const auto* m = std::get_if<Submitted>(&message)) {
    codec::put_u8(out, static_cast<std::uint8_t>(MsgType::kSubmitted));
    codec::put_u32(out, static_cast<std::uint32_t>(m->tickets.size()));
    for (const TicketInfo& t : m->tickets) {
      put_fingerprint(out, t.ticket);
      codec::put_u8(out, static_cast<std::uint8_t>(t.disposition));
    }
  } else if (const auto* m = std::get_if<StatusReply>(&message)) {
    codec::put_u8(out, static_cast<std::uint8_t>(MsgType::kStatus));
    put_fingerprint(out, m->ticket);
    codec::put_u8(out, static_cast<std::uint8_t>(m->state));
    codec::put_u32(out, m->attempts);
    codec::put_string(out, m->error);
  } else if (const auto* m = std::get_if<ReportReply>(&message)) {
    codec::put_u8(out, static_cast<std::uint8_t>(MsgType::kReport));
    put_fingerprint(out, m->ticket);
    codec::put_string(out, m->report_json);
  } else if (const auto* m = std::get_if<StatsReply>(&message)) {
    codec::put_u8(out, static_cast<std::uint8_t>(MsgType::kStats));
    codec::put_string(out, m->stats_json);
  } else if (std::get_if<OkReply>(&message) != nullptr) {
    codec::put_u8(out, static_cast<std::uint8_t>(MsgType::kOk));
  } else {
    const auto& m = std::get<ErrorReply>(message);
    codec::put_u8(out, static_cast<std::uint8_t>(MsgType::kError));
    codec::put_u8(out, static_cast<std::uint8_t>(m.code));
    codec::put_string(out, m.message);
  }
  return out;
}

std::optional<ServerMessage> decode_server_message(std::string_view payload) {
  codec::Reader reader(payload);
  switch (static_cast<MsgType>(reader.get_u8())) {
    case MsgType::kSubmitted: {
      Submitted m;
      const std::uint32_t count = reader.get_u32();
      // 17 bytes per ticket (fingerprint + disposition).
      if (!reader.ok() || count > reader.remaining() / 17) return std::nullopt;
      m.tickets.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        TicketInfo t;
        t.ticket = get_fingerprint(reader);
        const std::uint8_t d = reader.get_u8();
        if (d > static_cast<std::uint8_t>(SubmitDisposition::kServed)) {
          return std::nullopt;
        }
        t.disposition = static_cast<SubmitDisposition>(d);
        m.tickets.push_back(t);
      }
      if (!reader.done()) return std::nullopt;
      return ServerMessage(m);
    }
    case MsgType::kStatus: {
      StatusReply m;
      m.ticket = get_fingerprint(reader);
      const std::uint8_t state = reader.get_u8();
      m.attempts = reader.get_u32();
      m.error = reader.get_string();
      if (!reader.done() ||
          state > static_cast<std::uint8_t>(JobState::kCancelled)) {
        return std::nullopt;
      }
      m.state = static_cast<JobState>(state);
      return ServerMessage(m);
    }
    case MsgType::kReport: {
      ReportReply m;
      m.ticket = get_fingerprint(reader);
      m.report_json = reader.get_string();
      if (!reader.done()) return std::nullopt;
      return ServerMessage(m);
    }
    case MsgType::kStats: {
      StatsReply m;
      m.stats_json = reader.get_string();
      if (!reader.done()) return std::nullopt;
      return ServerMessage(m);
    }
    case MsgType::kOk: {
      if (!reader.done()) return std::nullopt;
      return ServerMessage(OkReply{});
    }
    case MsgType::kError: {
      ErrorReply m;
      const std::uint8_t code = reader.get_u8();
      m.message = reader.get_string();
      if (!reader.done() || code < 1 ||
          code > static_cast<std::uint8_t>(RpcErrorCode::kShuttingDown)) {
        return std::nullopt;
      }
      m.code = static_cast<RpcErrorCode>(code);
      return ServerMessage(m);
    }
    default:
      return std::nullopt;
  }
}

bool append_frame(std::string& out, std::string_view payload) {
  return codec::put_frame(out, payload, kMaxFrameBytes);
}

void FrameReader::feed(std::string_view bytes) {
  if (error_) return;
  // Compact lazily: drop consumed bytes once they dominate the buffer so
  // a long-lived connection does not grow without bound.
  if (consumed_ > 4096 && consumed_ > buffer_.size() / 2) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  buffer_.append(bytes.data(), bytes.size());
}

std::optional<std::string> FrameReader::next() {
  if (error_) return std::nullopt;
  const std::size_t available = buffer_.size() - consumed_;
  if (available < 4) return std::nullopt;
  codec::Reader header(
      std::string_view(buffer_.data() + consumed_, available));
  const std::uint32_t length = header.get_u32();
  if (length > kMaxFrameBytes) {
    // Poison before any payload allocation: the declared length is the
    // attack surface, and it is judged from the 4 header bytes alone.
    error_ = true;
    return std::nullopt;
  }
  if (available < 4 + static_cast<std::size_t>(length)) return std::nullopt;
  std::string payload = buffer_.substr(consumed_ + 4, length);
  consumed_ += 4 + static_cast<std::size_t>(length);
  return payload;
}

}  // namespace osim::serve
