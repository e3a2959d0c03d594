#!/usr/bin/env bash
# Sanitizer stress job for the schedule-exploration harness, the parallel
# GC and the real-time Eden driver.
#
# Builds the tree with PARHASK_SANITIZE=thread and runs these labelled
# suites under many random schedules:
#   schedtest — Chase-Lev deque races, black-hole entry ordering, an update
#               racing an entry in each lock bank, perturbed full
#               ThreadedDriver runs;
#   threaded  — GpH on the OS-thread driver: every policy on 4 capabilities,
#               the stress grid under constant GC barriers (parallel GC and
#               spark pruning included), shared-thunk races and deadlock
#               detection;
#   gc        — the parallel-GC torture suite (random graphs vs the
#               sequential oracle, evacuation CAS-race exploration, the
#               ThreadedDriver hammer with frequent team collections);
#   eden_rt   — EdenThreadedDriver over the real transports (shm mailboxes,
#               framed TCP): OS-threaded PEs, lossy-plan retransmission and
#               the freeze-based quiescence protocol;
#   chaos     — EdenProcDriver kill -9 survival: forked workers really
#               SIGKILLed mid-run, supervisor reap/heartbeat detection,
#               restart + send-log replay (TSan sees only the supervisor
#               process — the forked single-threaded workers re-exec
#               nothing, so their side is exercised, not instrumented);
#   serving   — phserved end-to-end robustness: the ServeDaemon event loop
#               (client thread vs daemon thread), the forked worker fleet,
#               admission/dedup/breaker policies under chaos kills and the
#               graceful drain path;
#   bytecode  — the bytecode backend: the interpreter-vs-bytecode
#               differential fuzzer on the sim and OS-thread drivers (engine
#               divergence, spark-counter drift), an Eden-RT value check
#               with every PE on the bytecode engine, and the code-cache
#               robustness suite (truncation, bit rot, stale versions).
# Each iteration exports a fresh PARHASK_SCHED_SEED, which the seeded tests
# pick up to derive their delay decisions. A data race found by TSan is
# therefore reproducible: re-export the seed printed on the failing line and
# re-run the same ctest command. With --asan an AddressSanitizer pass over
# the gc label follows the TSan sweep (one iteration — ASan failures are
# not schedule-dependent): the block-structured to-space is exactly where a
# bad carve would read out of bounds, and the chaos label puts ASan inside
# the supervisor's frame handling and the workers' replay paths, and the
# serving label walks the daemon's wire decode, per-request Machines and
# drain teardown under the same instrumentation; the bytecode label runs
# the dispatch loop and the cache file decoder over adversarial inputs,
# where an unchecked operand or a short read is an out-of-bounds access.
#
# Usage: tools/tsan_stress.sh [iterations] [base-seed] [--asan]
#   iterations  number of seeds to try        (default 20)
#   base-seed   first seed; i-th run uses base-seed + i  (default 1)
#   --asan      also build with PARHASK_SANITIZE=address and run `-L 'gc|chaos|serving|bytecode'`
set -euo pipefail

run_asan=0
args=()
for a in "$@"; do
  if [[ $a == --asan ]]; then run_asan=1; else args+=("$a"); fi
done
iterations=${args[0]:-20}
base_seed=${args[1]:-1}
repo_root=$(cd "$(dirname "$0")/.." && pwd)
build_dir=${TSAN_BUILD_DIR:-"$repo_root/build-tsan"}

cmake -B "$build_dir" -S "$repo_root" -DPARHASK_SANITIZE=thread
cmake --build "$build_dir" -j "$(nproc)"

# halt_on_error so the first race fails the run instead of scrolling past;
# second_deadlock_stack gives both sides of lock-order reports.
export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1 ${TSAN_OPTIONS:-}"

fail=0
for ((i = 0; i < iterations; ++i)); do
  seed=$((base_seed + i))
  echo "=== tsan_stress: seed $seed ($((i + 1))/$iterations) ==="
  if ! (cd "$build_dir" && PARHASK_SCHED_SEED=$seed \
        ctest -L 'schedtest|threaded|gc|eden_rt|chaos|serving|bytecode' --output-on-failure); then
    echo "tsan_stress: FAILURE at PARHASK_SCHED_SEED=$seed" >&2
    echo "reproduce with:" >&2
    echo "  cd $build_dir && PARHASK_SCHED_SEED=$seed ctest -L 'schedtest|threaded|gc|eden_rt|chaos|serving|bytecode' --output-on-failure" >&2
    fail=1
    break
  fi
done

if [[ $fail -eq 0 && $run_asan -eq 1 ]]; then
  asan_dir=${ASAN_BUILD_DIR:-"$repo_root/build-asan"}
  echo "=== tsan_stress: ASan pass over the gc, chaos and serving labels ==="
  cmake -B "$asan_dir" -S "$repo_root" -DPARHASK_SANITIZE=address
  cmake --build "$asan_dir" -j "$(nproc)"
  if ! (cd "$asan_dir" && ctest -L 'gc|chaos|serving|bytecode' --output-on-failure); then
    echo "tsan_stress: ASan FAILURE (ctest -L 'gc|chaos|serving|bytecode' in $asan_dir)" >&2
    fail=1
  fi
fi

if [[ $fail -eq 0 ]]; then
  echo "tsan_stress: $iterations seeds clean (base seed $base_seed)"
fi
exit $fail
