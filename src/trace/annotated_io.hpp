// Text (de)serialization of annotated traces, so the tracing stage can run
// once and the overlap transformation can be re-run offline with different
// options (chunk counts, mechanism toggles, ideal vs measured patterns).
//
// Format (one record per line):
//
//   #OSIM-ANNTRACE v1
//   meta app nas_cg
//   meta ranks 2
//   meta mips 2300
//   rank 0 final 123456
//   s  <vclock> <peer> <tag> <elem_bytes> <nelems> <buffer> <chunkable>
//      <interval_start> [per-element last-store vclocks]
//   is <vclock> <req> <peer> <tag> ... (same trailer as s)
//   r  <vclock> <peer> <tag> <elem_bytes> <nelems> <buffer> <chunkable>
//      <interval_end> <wait_event_index> [per-element first-load vclocks]
//   ir <vclock> <req> <peer> <tag> ... (same trailer as r)
//   w  <vclock> <request ids...>
//   g  <vclock> <collective> <root> <bytes> <sequence>
//
// Grammar the reader accepts (the writer emits one canonical spelling):
//   - The first line is the header, alone apart from surrounding
//     whitespace. After it, '#' starts a comment anywhere on a line, and
//     lines with no token before a '#' are skipped.
//   - Lines end at '\n'. Any "C"-locale whitespace character separates
//     tokens, so CRLF line ends and tabs work. Tokens after the last
//     field of a meta, rank or g line are ignored.
//   - All meta lines come before the first other line, in any order; a
//     repeated key overrides the earlier one. 'meta ranks' is required;
//     'meta app -' names no app.
//   - Integers are decimal with an optional leading '+'. Signed fields
//     also take a leading '-'; unsigned fields (vclocks, nelems, bytes,
//     times) reject it. Every value must fit its field: an out-of-range
//     peer, rank or elem_bytes, or an nelems x elem_bytes that overflows
//     64 bits, is an error, never a wrap.
//   - In a per-element trailer, '-' alone is kNeverAccessed. The trailer
//     is absent or has exactly <nelems> entries. The writer emits none
//     for untracked transfers (buffer = -1).
//
// The reader parses the text in place (a mapped file or a caller's
// string) with no per-token allocation, and runs validate() on the result.
#pragma once

#include <string>
#include <string_view>

#include "trace/annotated.hpp"

namespace osim::trace {

std::string write_annotated(const AnnotatedTrace& trace);
void write_annotated_file(const AnnotatedTrace& trace,
                          const std::string& path);

/// Throws osim::Error with a line number on malformed input, and the
/// validate() error on a well-formed but inconsistent trace.
AnnotatedTrace read_annotated(std::string_view text);
AnnotatedTrace read_annotated_file(const std::string& path);

}  // namespace osim::trace
