#!/bin/sh
# Static-analysis gate (DESIGN.md §12.7):
#
#   1. ph-lint over every shipped IR unit (prelude + each benchmark);
#      any lint error fails the check.
#   2. No naps: sleep_for, usleep or nanosleep anywhere in src/ outside
#      the Parker (src/rts/parker.*) and schedtest's injected perturbation
#      (src/rts/schedtest.cpp) fails the check. Every wall-clock idle wait
#      parks on the Parker instead (DESIGN.md §18).
#   3. A pinned clang-tidy subset over src/core and src/rts. The container
#      does not always ship clang-tidy, so this stage degrades to a
#      skip-with-notice rather than a failure when the tool (or the
#      compile database) is missing.
#
# Usage: static_check.sh <path-to-ph-lint> <repo-root>
set -u

PH_LINT="${1:?usage: static_check.sh <ph-lint> <repo-root>}"
REPO="${2:?usage: static_check.sh <ph-lint> <repo-root>}"

echo "== stage 1: ph-lint =="
"$PH_LINT" || exit 1

echo "== stage 2: no naps outside the Parker =="
NAPS=$(grep -rnE 'sleep_for|usleep|nanosleep' "$REPO/src" |
       grep -vE "^$REPO/src/rts/(parker\.(hpp|cpp)|schedtest\.cpp):" || true)
if [ -n "$NAPS" ]; then
  echo "$NAPS"
  echo "idle waits must park on the Parker (src/rts/parker.hpp), not sleep"
  exit 1
fi
echo "none"

echo "== stage 3: clang-tidy (pinned subset) =="
if ! command -v clang-tidy >/dev/null 2>&1; then
  echo "clang-tidy: not found in container, skipping this stage"
  exit 0
fi
BUILD_DIR="$REPO/build"
if [ ! -f "$BUILD_DIR/compile_commands.json" ]; then
  echo "clang-tidy: no compile_commands.json under $BUILD_DIR, skipping this stage"
  echo "            (configure with -DCMAKE_EXPORT_COMPILE_COMMANDS=ON to enable)"
  exit 0
fi
# Pinned check subset: correctness-adjacent checks only, so upgrading the
# toolchain cannot flip the gate on style opinions.
CHECKS="-*,bugprone-use-after-move,bugprone-dangling-handle,bugprone-infinite-loop,clang-analyzer-core.*,clang-analyzer-cplusplus.NewDelete,clang-analyzer-deadcode.DeadStores"
STATUS=0
for f in "$REPO"/src/core/*.cpp "$REPO"/src/core/lint/*.cpp \
         "$REPO"/src/core/analysis/*.cpp "$REPO"/src/rts/*.cpp; do
  [ -f "$f" ] || continue
  if ! clang-tidy -p "$BUILD_DIR" --quiet --warnings-as-errors='*' \
       --checks="$CHECKS" "$f"; then
    STATUS=1
  fi
done
exit $STATUS
