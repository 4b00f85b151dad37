#include "trace/annotated_io.hpp"

#include <charconv>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <utility>

#include "common/expect.hpp"
#include "common/strings.hpp"
#include "trace/mmap_file.hpp"

namespace osim::trace {

namespace {

constexpr std::string_view kHeader = "#OSIM-ANNTRACE v1";

// --- writer -------------------------------------------------------------------

template <typename Int>
void put(std::string& out, Int value) {
  char buf[24];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  out.append(buf, result.ptr);
}

/// Appends " <value>" for each value.
template <typename... Ints>
void put_fields(std::string& out, Ints... values) {
  ((out += ' ', put(out, values)), ...);
}

void put_times(std::string& out, const std::vector<std::uint64_t>& times) {
  for (const std::uint64_t t : times) {
    if (t == kNeverAccessed) {
      out += " -";
    } else {
      put_fields(out, t);
    }
  }
}

void put_event(std::string& out, const AnnEvent& ev) {
  const bool immediate = ev.kind == AnnEvent::Kind::kIsend ||
                         ev.kind == AnnEvent::Kind::kIrecv;
  switch (ev.kind) {
    case AnnEvent::Kind::kSend:
    case AnnEvent::Kind::kIsend:
    case AnnEvent::Kind::kRecv:
    case AnnEvent::Kind::kIrecv: {
      const bool send = ev.kind == AnnEvent::Kind::kSend ||
                        ev.kind == AnnEvent::Kind::kIsend;
      out += immediate ? (send ? "is" : "ir") : (send ? "s" : "r");
      put_fields(out, ev.vclock);
      if (immediate) put_fields(out, ev.request);
      put_fields(out, ev.peer, ev.tag, ev.elem_bytes,
                 ev.bytes / ev.elem_bytes, ev.buffer_id,
                 ev.chunkable ? 1 : 0);
      if (send) {
        put_fields(out, ev.interval_start);
        put_times(out, ev.elem_last_store);
      } else {
        put_fields(out, ev.interval_end, ev.wait_event_index);
        put_times(out, ev.elem_first_load);
      }
      break;
    }
    case AnnEvent::Kind::kWait:
      out += 'w';
      put_fields(out, ev.vclock);
      for (const ReqId req : ev.wait_requests) put_fields(out, req);
      break;
    case AnnEvent::Kind::kGlobalOp:
      out += 'g';
      put_fields(out, ev.vclock);
      out += ' ';
      out += collective_name(ev.coll);
      put_fields(out, ev.root, ev.bytes, ev.coll_sequence);
      break;
  }
  out += '\n';
}

/// Formats `trace` into `out`, handing the buffer to `flush` after the
/// header and after each rank; `flush` may consume and clear it.
template <typename Flush>
void format_annotated(const AnnotatedTrace& trace, std::string& out,
                      Flush&& flush) {
  out += kHeader;
  out += "\nmeta app ";
  out += trace.app.empty() ? "-" : trace.app;
  out += "\nmeta ranks";
  put_fields(out, trace.num_ranks);
  out += "\nmeta mips ";
  out += strprintf("%.17g", trace.mips);
  out += '\n';
  flush(out);
  for (Rank rank = 0; rank < trace.num_ranks; ++rank) {
    const AnnotatedRank& arank = trace.ranks[static_cast<std::size_t>(rank)];
    out += "rank";
    put_fields(out, rank);
    out += " final";
    put_fields(out, arank.final_vclock);
    out += '\n';
    for (const AnnEvent& ev : arank.events) put_event(out, ev);
    flush(out);
  }
}

// --- reader -------------------------------------------------------------------

/// std::isspace in the "C" locale.
constexpr bool is_space(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

constexpr bool is_digit(char c) { return c >= '0' && c <= '9'; }

/// Strict decimal: an optional '+' (or, for signed types, '-') and digits,
/// nothing else; nullopt when the token is not one or the value overflows.
template <typename Int>
std::optional<Int> parse_decimal(std::string_view token) {
  const char* first = token.data();
  const char* last = first + token.size();
  if (first != last && *first == '+') {
    ++first;
    if (first == last || !is_digit(*first)) return std::nullopt;
  }
  Int value = 0;
  const auto result = std::from_chars(first, last, value);
  if (result.ec != std::errc() || result.ptr != last) return std::nullopt;
  return value;
}

std::optional<CollectiveKind> collective_from_name(std::string_view name) {
  static constexpr CollectiveKind kAll[] = {
      CollectiveKind::kBarrier,  CollectiveKind::kBcast,
      CollectiveKind::kReduce,   CollectiveKind::kAllreduce,
      CollectiveKind::kGather,   CollectiveKind::kAllgather,
      CollectiveKind::kScatter,  CollectiveKind::kAlltoall,
      CollectiveKind::kScan,
  };
  for (const CollectiveKind kind : kAll) {
    if (name == collective_name(kind)) return kind;
  }
  return std::nullopt;
}

/// One pass over the text in place: lines are cut with memchr, tokens are
/// views into the text, and per-element times are parsed straight from the
/// bytes, so the only allocations are the trace itself.
class Parser {
 public:
  explicit Parser(std::string_view text) : rest_(text) {}

  AnnotatedTrace parse() {
    expect_header();
    bool more = next_line();
    for (; more && peek_token() == "meta"; more = next_line()) parse_meta();
    if (ranks_ <= 0) fail("annotated trace missing 'meta ranks'");

    AnnotatedTrace trace = AnnotatedTrace::make(ranks_, mips_, app_);
    Rank current = -1;
    for (; more; more = next_line()) {
      const std::string_view op = field();
      if (op == "rank") {
        require_min(4);
        const std::string_view rank = field();
        if (field() != "final") fail("expected 'rank N final CLOCK'");
        current = to_i<Rank>(rank);
        if (current < 0 || current >= ranks_) fail("rank out of range");
        trace.ranks[static_cast<std::size_t>(current)].final_vclock =
            to_u64(field());
        continue;
      }
      if (current < 0) fail("event before any 'rank' directive");
      trace.ranks[static_cast<std::size_t>(current)].events.push_back(
          parse_event(op));
    }
    validate(trace);
    return trace;
  }

 private:
  AnnEvent parse_event(std::string_view op) {
    AnnEvent ev;
    if (op == "s" || op == "is" || op == "r" || op == "ir") {
      const bool send = op.back() == 's';
      const bool immediate = op.size() == 2;
      ev.kind = send ? (immediate ? AnnEvent::Kind::kIsend
                                  : AnnEvent::Kind::kSend)
                     : (immediate ? AnnEvent::Kind::kIrecv
                                  : AnnEvent::Kind::kRecv);
      ev.vclock = to_u64(field());
      if (immediate) ev.request = to_i<ReqId>(field());
      ev.peer = to_i<Rank>(field());
      ev.tag = to_i<Tag>(field());
      ev.elem_bytes = to_i<std::uint32_t>(field());
      const std::uint64_t nelems = to_u64(field());
      if (ev.elem_bytes != 0 &&
          nelems > std::numeric_limits<std::uint64_t>::max() / ev.elem_bytes) {
        fail("transfer size overflows: " + std::to_string(nelems) +
             " elements of " + std::to_string(ev.elem_bytes) + " bytes");
      }
      ev.bytes = nelems * ev.elem_bytes;
      ev.buffer_id = to_i<std::int64_t>(field());
      ev.chunkable = to_u64(field()) != 0;
      if (send) {
        ev.interval_start = to_u64(field());
        read_times(nelems, &ev.elem_last_store);
      } else {
        ev.interval_end = to_u64(field());
        ev.wait_event_index = to_i<std::int64_t>(field());
        read_times(nelems, &ev.elem_first_load);
      }
    } else if (op == "w") {
      ev.kind = AnnEvent::Kind::kWait;
      ev.vclock = to_u64(field());
      if (peek_token().empty()) fail("wait with no requests");
      for (std::string_view token = next_token(); !token.empty();
           token = next_token()) {
        ev.wait_requests.push_back(to_i<ReqId>(token));
      }
    } else if (op == "g") {
      ev.kind = AnnEvent::Kind::kGlobalOp;
      ev.vclock = to_u64(field());
      const auto kind = collective_from_name(field());
      if (!kind) fail("unknown collective");
      ev.coll = *kind;
      ev.root = to_i<Rank>(field());
      ev.bytes = to_u64(field());
      ev.coll_sequence = to_i<std::int64_t>(field());
    } else {
      fail("unknown event type '" + std::string(op) + "'");
    }
    return ev;
  }

  void parse_meta() {
    require_min(3);
    field();  // "meta"
    const std::string_view key = next_token();
    const std::string_view value = next_token();
    if (key == "app") {
      app_ = value == "-" ? std::string() : std::string(value);
    } else if (key == "ranks") {
      ranks_ = to_i<Rank>(value);
      if (ranks_ <= 0) fail("ranks must be positive");
    } else if (key == "mips") {
      const auto parsed = parse_f64(value);
      if (!parsed || *parsed <= 0.0) fail("bad mips value");
      mips_ = *parsed;
    } else {
      fail("unknown meta key '" + std::string(key) + "'");
    }
  }

  /// The per-element trailer: absent, or exactly `nelems` times. The fast
  /// path parses plain digit runs and '-' in place; anything else, and any
  /// error, goes through check_times so the message is the same one a
  /// count-first, token-by-token reading gives.
  void read_times(std::uint64_t nelems, std::vector<std::uint64_t>* out) {
    skip_space();
    if (pos_ == line_end_) return;  // untracked: no trailer
    const char* const trailer = pos_;
    // k tokens take at least 2k - 1 bytes: a larger count cannot match,
    // and must not size an allocation.
    const auto room = static_cast<std::uint64_t>(line_end_ - trailer) / 2 + 1;
    if (nelems > room) check_times(trailer, nelems);
    out->resize(nelems);
    std::uint64_t* slot = out->data();
    std::uint64_t* const slot_end = slot + nelems;
    for (; pos_ != line_end_; skip_space()) {
      if (slot == slot_end) check_times(trailer, nelems);
      const char* const start = pos_;
      std::uint64_t value = 0;
      while (pos_ != line_end_ && is_digit(*pos_)) {
        value = value * 10 + static_cast<std::uint64_t>(*pos_ - '0');
        ++pos_;
      }
      if (pos_ == start || pos_ - start > 19 ||
          (pos_ != line_end_ && !is_space(*pos_))) {
        // Not a run of at most 19 digits (which cannot overflow): '-', a
        // '+', a longer number or a bad token.
        while (pos_ != line_end_ && !is_space(*pos_)) ++pos_;
        const std::string_view token(start,
                                     static_cast<std::size_t>(pos_ - start));
        const auto parsed = token == "-"
                                ? std::optional<std::uint64_t>(kNeverAccessed)
                                : parse_decimal<std::uint64_t>(token);
        if (!parsed) check_times(trailer, nelems);
        value = *parsed;
      }
      *slot++ = value;
    }
    if (slot != slot_end) check_times(trailer, nelems);
  }

  /// Reports what is wrong with the trailer starting at `trailer`: first
  /// the count, then the first token that is not an unsigned integer.
  [[noreturn]] void check_times(const char* trailer, std::uint64_t nelems) {
    pos_ = trailer;
    std::size_t count = 0;
    while (!next_token().empty()) ++count;
    if (count != nelems) {
      fail(strprintf("expected %llu per-element times, got %zu",
                     static_cast<unsigned long long>(nelems), count));
    }
    pos_ = trailer;
    for (std::string_view token = next_token(); !token.empty();
         token = next_token()) {
      if (token != "-") to_u64(token);
    }
    fail("malformed per-element times");  // unreachable for a bad trailer
  }

  /// Cuts the next raw line off the text; false at the end of the text.
  bool next_raw_line(std::string_view& line) {
    if (rest_.empty()) return false;
    ++line_number_;
    const void* newline = std::memchr(rest_.data(), '\n', rest_.size());
    const std::size_t length =
        newline == nullptr
            ? rest_.size()
            : static_cast<std::size_t>(static_cast<const char*>(newline) -
                                       rest_.data());
    line = rest_.substr(0, length);
    rest_.remove_prefix(newline == nullptr ? length : length + 1);
    return true;
  }

  /// Advances to the next line with a token before any '#' and puts the
  /// token cursor at its start; false at the end of the text.
  bool next_line() {
    std::string_view line;
    while (next_raw_line(line)) {
      const void* hash = std::memchr(line.data(), '#', line.size());
      pos_ = line_start_ = line.data();
      line_end_ = hash == nullptr ? line.data() + line.size()
                                  : static_cast<const char*>(hash);
      skip_space();
      if (pos_ != line_end_) return true;
    }
    return false;
  }

  void skip_space() {
    while (pos_ != line_end_ && is_space(*pos_)) ++pos_;
  }

  /// The next token of the current line; empty at the end of the line.
  std::string_view next_token() {
    skip_space();
    const char* const start = pos_;
    while (pos_ != line_end_ && !is_space(*pos_)) ++pos_;
    return {start, static_cast<std::size_t>(pos_ - start)};
  }

  std::string_view peek_token() {
    const char* const saved = pos_;
    const std::string_view token = next_token();
    pos_ = saved;
    return token;
  }

  void expect_header() {
    std::string_view line;
    if (!next_raw_line(line)) fail("empty annotated trace file");
    if (trim(line) != kHeader) fail("missing '#OSIM-ANNTRACE v1' header");
  }

  std::string_view field() {
    const std::string_view token = next_token();
    if (token.empty()) fail("missing field");
    return token;
  }

  /// Fails unless the current line has at least `count` tokens.
  void require_min(std::size_t count) {
    const char* const saved = pos_;
    pos_ = line_start_;
    std::size_t have = 0;
    while (have < count && !next_token().empty()) ++have;
    pos_ = saved;
    if (have < count) fail("too few fields");
  }

  /// A signed decimal that must also fit `Int`: narrowing is an error,
  /// never a silent wrap.
  template <typename Int>
  Int to_i(std::string_view text) {
    const auto parsed = parse_decimal<std::int64_t>(text);
    if (!parsed) fail("bad integer '" + std::string(text) + "'");
    if (!std::in_range<Int>(*parsed)) {
      fail("integer '" + std::string(text) + "' out of range");
    }
    return static_cast<Int>(*parsed);
  }

  std::uint64_t to_u64(std::string_view text) {
    const auto parsed = parse_decimal<std::uint64_t>(text);
    if (!parsed) fail("bad unsigned integer '" + std::string(text) + "'");
    return *parsed;
  }

  [[noreturn]] void fail(const std::string& why) const {
    throw Error(strprintf("annotated trace parse error at line %d: %s",
                          line_number_, why.c_str()));
  }

  std::string_view rest_;       // text after the current line
  const char* line_start_ = nullptr;  // the current line
  const char* pos_ = nullptr;         // token cursor in it
  const char* line_end_ = nullptr;    // its end, or its '#'
  int line_number_ = 0;
  Rank ranks_ = 0;
  double mips_ = 1000.0;
  std::string app_;
};

}  // namespace

std::string write_annotated(const AnnotatedTrace& trace) {
  std::string out;
  format_annotated(trace, out, [](std::string&) {});
  return out;
}

void write_annotated_file(const AnnotatedTrace& trace,
                          const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw Error("cannot open annotated trace file: " + path);
  std::string buffer;
  format_annotated(trace, buffer, [&out](std::string& text) {
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
    text.clear();
  });
  out.flush();
  if (!out) throw Error("error writing annotated trace file: " + path);
}

AnnotatedTrace read_annotated(std::string_view text) {
  return Parser(text).parse();
}

AnnotatedTrace read_annotated_file(const std::string& path) {
  const MappedFile file = MappedFile::open(path);
  return read_annotated(std::string_view(file.data(), file.size()));
}

}  // namespace osim::trace
