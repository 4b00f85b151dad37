#!/bin/sh
# Static checks plus a sanitizer build-and-test pass:
#
#   1. layering greps: nothing in bench/ or src/analysis/ may call
#      dimemas::replay directly — every replay goes through the
#      pipeline::ReplayContext / Study API — nothing in tools/ or
#      src/serve/ may lower scenario flags by hand — every Platform /
#      ReplayOptions built from flags comes from pipeline::ScenarioSpec —
#      only ScenarioStore::fold() may run the store's full index
#      reconcile, and no little-endian loop, CRC-over-a-string helper or
#      FNV-1a hasher may be hand-written outside the one codec;
#   2. full build under AddressSanitizer + UndefinedBehaviorSanitizer (or
#      ThreadSanitizer with 'thread', or standalone UBSan with 'undefined'
#      as the second argument) and the full test suite;
#   3. a dedicated ThreadSanitizer pass over pipeline_test, the one
#      genuinely multithreaded consumer besides mpisim (skipped in
#      'undefined' mode, which exists to catch UB that ASan's presence can
#      mask — the tsan pass belongs to the other modes).
#
#   scripts/check.sh [build-dir] [address|thread|undefined]
set -e
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${1:-$ROOT/build-asan}"
MODE="${2:-address}"

case "$MODE" in
  address)   SANITIZE="address;undefined" ;;
  thread)    SANITIZE="thread" ;;
  undefined) SANITIZE="undefined" ;;
  *) echo "usage: $0 [build-dir] [address|thread|undefined]" >&2; exit 2 ;;
esac

# Layering: benches and analysis must use the pipeline API, never the raw
# replay entry point (see DESIGN.md "API conventions").
if grep -rn --include='*.cpp' --include='*.hpp' -F 'dimemas::replay(' \
     "$ROOT/bench" "$ROOT/src/analysis"; then
  echo "error: direct dimemas::replay call in bench/ or src/analysis/;" \
       "route it through pipeline::ReplayContext / Study" >&2
  exit 1
fi
if grep -rn --include='*.cpp' --include='*.hpp' -F 'dimemas/replay.hpp' \
     "$ROOT/bench" "$ROOT/src/analysis"; then
  echo "error: dimemas/replay.hpp included from bench/ or src/analysis/" >&2
  exit 1
fi
echo "layering OK (no direct dimemas::replay in bench/ or src/analysis/)"

# The deprecated raw trace/platform analysis shims were removed once the
# Study/ReplayContext API landed; they must not come back.
if grep -rn --include='*.cpp' --include='*.hpp' -F '[[deprecated' \
     "$ROOT/src/analysis"; then
  echo "error: [[deprecated]] shim under src/analysis/; the raw" \
       "trace/platform entry points were removed — add the Study/" \
       "ReplayContext overload directly instead" >&2
  exit 1
fi
echo "shims OK (no [[deprecated]] under src/analysis/)"

# One scenario lowering: tools/ and src/serve/ take their scenario as a
# pipeline::ScenarioSpec and lower it with pipeline::lower_platform /
# lower_options (src/pipeline/scenario.cpp). A collective-name comparison,
# a fault/progress spec parse or a bandwidth assignment there is a second
# copy of that lowering, free to drift from the first.
if grep -rnE --include='*.cpp' --include='*.hpp' \
     -e '[=!]= *"(binomial-tree|linear|recursive-doubling)"' \
     -e '"(binomial-tree|linear|recursive-doubling)" *[=!]=' \
     -e 'dimemas::parse_progress_spec\(|faults::parse_spec\(' \
     -e 'bandwidth_MBps *=[^=]' \
     "$ROOT/tools" "$ROOT/src/serve"; then
  echo "error: scenario lowering in tools/ or src/serve/; build the" \
       "Platform/ReplayOptions with pipeline::lower_platform /" \
       "lower_options (src/pipeline/scenario.cpp)" >&2
  exit 1
fi
echo "scenario OK (one lowering, in src/pipeline/scenario.cpp)"

# Constant-cost store access: a load hit or a save appends one record to
# index.log; only ScenarioStore::fold() (stats(), gc(), or an access that
# finds the log as long as the index) reads the whole index and walks the
# object tree. A reconciled_index() call in any other function of
# src/store/store.cpp brings back an O(store size) access.
if awk '/^[A-Za-z_].*\(/ && !/;[[:space:]]*$/ { fn = $0 }
        /reconciled_index\(/ && !/ScenarioStore::reconciled_index\(\)/ &&
        fn !~ /ScenarioStore::fold\(\)/ {
          print FILENAME ":" FNR ": " $0; bad = 1
        }
        END { exit !bad }' "$ROOT/src/store/store.cpp"; then
  echo "error: reconciled_index() called outside ScenarioStore::fold();" \
       "store accesses append to index.log instead" >&2
  exit 1
fi
echo "store OK (the full index reconcile runs only in ScenarioStore::fold)"

# One binary codec: the little-endian primitives and record framing live
# in src/common/codec.hpp (on src/common/crc32.hpp), the fingerprint
# hasher in src/pipeline/fingerprint.hpp. The streaming trace reader
# (src/trace/binary_io.cpp) keeps its own by design; see DESIGN.md
# "Binary formats". A private copy anywhere else is free to drift.
if grep -rnE --include='*.cpp' --include='*.hpp' \
     -e '(<<|>>) \(8 \* i\)' -e 'Crc32 crc;' -e '0x100000001[bB]3' \
     "$ROOT/src" "$ROOT/tools" |
   grep -vE "^$ROOT/src/(common/codec\.hpp|common/crc32\.hpp|pipeline/fingerprint\.hpp|trace/binary_io\.cpp):"; then
  echo "error: hand-written byte codec or hasher in src/ or tools/; use" \
       "common/codec.hpp (primitives, envelope, CRC'd record, frame) or" \
       "pipeline::Hasher" >&2
  exit 1
fi
echo "codec OK (one codec in src/common/codec.hpp, one hasher)"

cmake -B "$BUILD" -S "$ROOT" -DOSIM_SANITIZE="$SANITIZE" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD" -j "$(nproc)"
ctest --test-dir "$BUILD" --output-on-failure -j "$(nproc)"

# ThreadSanitizer over the thread-pool engine. 'undefined' mode skips
# this: it is a pure-UBSan lane and the tsan pass already runs in the
# 'address' and 'thread' lanes.
if [ "$MODE" = undefined ]; then
  echo "check OK ($SANITIZE)"
  exit 0
fi
if [ "$MODE" = thread ]; then
  TSAN_BUILD="$BUILD"
else
  TSAN_BUILD="$ROOT/build-tsan"
  cmake -B "$TSAN_BUILD" -S "$ROOT" -DOSIM_SANITIZE=thread \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$TSAN_BUILD" -j "$(nproc)" --target pipeline_test
fi
ctest --test-dir "$TSAN_BUILD" --output-on-failure -R '^pipeline_test$'

echo "check OK ($SANITIZE + tsan:pipeline_test)"
