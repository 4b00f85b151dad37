// The binary codec shared by every on-disk and on-wire record in the
// repository: the scenario store's objects, index and access log, the
// study journal and the service's RPC (DESIGN.md "Binary formats" lists
// them). Header-only so the lowest libraries (osim_supervise links only
// osim_common) can use it.
//
// Three layers:
//
//   primitives  fixed-width little-endian writers (put_u8 .. put_f64, two
//               string framings) and a total Reader. The byte order is
//               pinned, not host-native: stores are shared between machines
//               over network filesystems and RPC peers may differ.
//   Reader      never throws and never reads out of bounds. The first
//               underrun or oversized string latches ok() == false, every
//               later get returns a zero value, and decoders check
//               ok() && done() once at the end instead of guarding every
//               field. The store, journal and RPC fuzzers lean on this: any
//               bit flip or truncation must land in "reject", never in UB.
//   framing     the three record shapes that occur:
//                 envelope       magic | u32 version | body | u32 CRC-32 of
//                                everything after the magic
//                 CRC'd record   body | u32 CRC-32 of the body
//                 frame          u32 length | payload
//
// The streaming binary-trace reader (trace/binary_io.cpp) is deliberately
// not built on this: it throws, varint-decodes and tracks byte offsets
// for salvage over a stream, none of which these records need.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>

#include "common/crc32.hpp"

namespace osim::codec {

// --- writers ----------------------------------------------------------------

inline void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

inline void put_u32(std::string& out, std::uint32_t v) {
  char bytes[4];
  for (int i = 0; i < 4; ++i) bytes[i] = static_cast<char>(v >> (8 * i));
  out.append(bytes, sizeof(bytes));
}

inline void put_u64(std::string& out, std::uint64_t v) {
  char bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<char>(v >> (8 * i));
  out.append(bytes, sizeof(bytes));
}

inline void put_i64(std::string& out, std::int64_t v) {
  put_u64(out, static_cast<std::uint64_t>(v));
}

inline void put_f64(std::string& out, double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(out, bits);
}

/// u32 byte length + raw bytes (the RPC string framing).
inline void put_string(std::string& out, std::string_view s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s.data(), s.size());
}

/// u64 byte length + raw bytes (the store's lint-object string framing).
inline void put_string64(std::string& out, std::string_view s) {
  put_u64(out, s.size());
  out.append(s.data(), s.size());
}

inline std::uint32_t crc32_of(std::string_view bytes) {
  Crc32 crc;
  crc.update(bytes.data(), bytes.size());
  return crc.value();
}

// --- reader -----------------------------------------------------------------

/// A view over bytes it does not own: they must outlive the Reader (and
/// every Reader the framing helpers below return).
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  bool ok() const { return ok_; }
  /// Every byte consumed and no error: the strict-decode success predicate.
  bool done() const { return ok_ && pos_ == data_.size(); }
  std::size_t remaining() const { return data_.size() - pos_; }
  /// Latches failure for a value that decoded but is out of range.
  void fail() { ok_ = false; }

  std::uint8_t get_u8() {
    if (!take(1)) return 0;
    return static_cast<std::uint8_t>(data_[pos_ - 1]);
  }

  std::uint32_t get_u32() {
    if (!take(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(
               static_cast<unsigned char>(data_[pos_ - 4 + i]))
           << (8 * i);
    }
    return v;
  }

  std::uint64_t get_u64() {
    if (!take(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(data_[pos_ - 8 + i]))
           << (8 * i);
    }
    return v;
  }

  std::int64_t get_i64() { return static_cast<std::int64_t>(get_u64()); }

  double get_f64() {
    const std::uint64_t bits = get_u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  /// The next `n` raw bytes, or an empty view (and a latched failure) when
  /// fewer are left.
  std::string_view get_bytes(std::size_t n) {
    if (!take(n)) return {};
    return data_.substr(pos_ - n, n);
  }

  /// Inverse of put_string. The declared length is checked against the
  /// bytes actually present BEFORE anything is copied, so a forged header
  /// claiming 4 GB cannot make the reader allocate 4 GB.
  std::string get_string() { return std::string(get_bytes(get_u32())); }

  /// Inverse of put_string64; a length above `max_bytes` latches failure.
  std::string get_string64(std::uint64_t max_bytes) {
    const std::uint64_t n = get_u64();
    if (n > max_bytes) {
      ok_ = false;
      return std::string();
    }
    return std::string(get_bytes(static_cast<std::size_t>(n)));
  }

 private:
  bool take(std::size_t n) {
    if (!ok_ || n > remaining()) {
      ok_ = false;
      return false;
    }
    pos_ += n;
    return true;
  }

  std::string_view data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// --- envelope: magic | u32 version | body | u32 CRC-32 ----------------------

/// Starts an envelope: the magic and version. Append the body, then
/// seal_envelope().
inline std::string begin_envelope(std::string_view magic,
                                  std::uint32_t version) {
  std::string out(magic);
  put_u32(out, version);
  return out;
}

/// Appends the CRC-32 of everything after the magic.
inline void seal_envelope(std::string& out, std::string_view magic) {
  put_u32(out, crc32_of(std::string_view(out).substr(magic.size())));
}

/// Opens an envelope occupying all of `bytes`: nullopt unless it starts
/// with `magic`, its CRC matches and it carries `version` (version skew is
/// a failed decode, like damage). The Reader spans the body.
inline std::optional<Reader> open_envelope(std::string_view bytes,
                                           std::string_view magic,
                                           std::uint32_t version) {
  if (bytes.size() < magic.size() + 8 ||
      bytes.substr(0, magic.size()) != magic) {
    return std::nullopt;
  }
  const std::string_view covered =
      bytes.substr(magic.size(), bytes.size() - magic.size() - 4);
  if (Reader(bytes.substr(bytes.size() - 4)).get_u32() != crc32_of(covered)) {
    return std::nullopt;
  }
  Reader body(covered);
  if (body.get_u32() != version) return std::nullopt;
  return body;
}

/// Checks only the magic and version of an envelope whose leading bytes
/// are `head`, for callers that cannot afford to read the whole record
/// (the CRC needs all of it). The Reader spans the rest of `head`.
inline std::optional<Reader> peek_envelope(std::string_view head,
                                           std::string_view magic,
                                           std::uint32_t version) {
  if (head.substr(0, magic.size()) != magic) return std::nullopt;
  Reader body(head.substr(magic.size()));
  if (body.get_u32() != version || !body.ok()) return std::nullopt;
  return body;
}

// --- CRC'd record: body | u32 CRC-32 of the body ----------------------------

/// Appends the CRC-32 of out[begin..] (the record body just written).
inline void seal_record(std::string& out, std::size_t begin = 0) {
  put_u32(out, crc32_of(std::string_view(out).substr(begin)));
}

/// Opens a CRC'd record occupying all of `bytes`: nullopt unless the
/// trailing CRC matches. The Reader spans the body.
inline std::optional<Reader> open_record(std::string_view bytes) {
  if (bytes.size() < 4) return std::nullopt;
  const std::string_view body = bytes.substr(0, bytes.size() - 4);
  if (Reader(bytes.substr(body.size())).get_u32() != crc32_of(body)) {
    return std::nullopt;
  }
  return Reader(body);
}

// --- frame: u32 length | payload --------------------------------------------

/// Appends one frame. A payload over `max_bytes` is refused: nothing is
/// appended and the result is false, so the peer never receives a frame it
/// is bound to reject.
inline bool put_frame(std::string& out, std::string_view payload,
                      std::uint32_t max_bytes) {
  if (payload.size() > max_bytes) return false;
  put_string(out, payload);
  return true;
}

}  // namespace osim::codec
