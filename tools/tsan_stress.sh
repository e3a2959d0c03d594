#!/usr/bin/env bash
# Sanitizer stress job for the schedule-exploration harness, the parallel
# GC, the real-time Eden driver and the Parker.
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
#               restart + send-log replay, and workers exiting once their
#               supervisor is gone
#               (ProcChaos.WorkersExitWhenTheirSupervisorDiesMidRun). TSan
#               sees only the supervisor process — the forked
#               single-threaded workers re-exec nothing, so their side is
#               exercised, not instrumented;
#   serving   — phserved end-to-end robustness: the ServeDaemon event loop
#               (client thread vs daemon thread), the forked worker fleet,
#               admission/dedup/breaker policies under chaos kills, the
#               fleet's silence detection and orphaned workers
#               (ServeFleetChaos.HeartbeatSilenceLosesTheRequestAndRespawns,
#               ServeFleetChaos.WorkersExitWhenTheirSupervisorDies), a
#               Cancel read with its Submit
#               (ServeDaemon.CancelReadWithItsSubmitStillLands) and the
#               graceful drain path;
#   parker    — the doorbell every wall-clock idle wait parks on
#               (parhask_parker_tests): a ring inside the re-check window
#               (Parker.RingBeforeSleepReturnsRungAtOnce), published state
#               (Parker.PublishedStateBeforeParkReturnsReady), the timeout
#               (Parker.ParkWithNoRingTimesOutNoSooner), fresh revents for
#               the caller's poll set on every exit
#               (Parker.CallersFdsArePolledOnEveryExit), a 100k-ring
#               ping-pong that must lose no wakeup
#               (Parker.PingPongOf100kRingsLosesNone), a doorbell in shared
#               memory rung across fork() on both wake paths
#               (Wake/ParkerAcrossFork.*), and the five-park deadlock
#               windows of ThreadedDriver and EdenThreadedDriver
#               (ParkerDeadlockWindow.*);
#   bytecode  — the bytecode backend: the interpreter-vs-bytecode
#               differential fuzzer on the sim and OS-thread drivers (engine
#               divergence, spark-counter drift, and audited collections on
#               a tiny nursery), an Eden-RT value check with every PE on the
#               bytecode engine, the code-cache robustness suite
#               (truncation, bit rot, stale versions) and the mutator
#               allocation check (parhask_alloc_tests,
#               MutatorAllocation.*: it replaces the global operator new
#               and counts the calls one evaluation makes on each engine).
# Each iteration exports a fresh PARHASK_SCHED_SEED, which the seeded tests
# pick up to derive their delay decisions. A data race found by TSan is
# therefore reproducible: re-export the seed printed on the failing line and
# re-run the same ctest command. Each seed then runs the serving and chaos
# labels once more as a parallel pass (`ctest -j8`): forked fleets competing
# for the cores are what exposed the stale-frame, client-wait and
# missed-kill bugs, none of which showed in serial runs. After every pass
# and a 1 s grace, any process still running a binary from the build's
# tests/ or bench/ directory is a leaked worker: the script prints its pid
# and command line, kills it and fails, since a leaked worker would keep
# a core busy through every later pass. With --asan an
# AddressSanitizer pass over the gc and parker labels follows the TSan
# sweep (one iteration — ASan failures are not schedule-dependent): the
# block-structured to-space is exactly where a bad carve would read out of
# bounds, and the chaos label puts ASan inside
# the supervisor's frame handling and the workers' replay paths, and the
# serving label walks the daemon's wire decode, per-request Machines and
# drain teardown under the same instrumentation; the bytecode label runs
# the dispatch loop and the cache file decoder over adversarial inputs,
# where an unchecked operand or a short read is an out-of-bounds access.
#
# Usage: tools/tsan_stress.sh [iterations] [base-seed] [--asan]
#   iterations  number of seeds to try        (default 20)
#   base-seed   first seed; i-th run uses base-seed + i  (default 1)
#   --asan      also build with PARHASK_SANITIZE=address and run `-L 'gc|chaos|serving|bytecode|parker'`
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
build_dir=$(cd "$build_dir" && pwd -P)  # /proc/<pid>/exe names real paths

# Kills and reports every live process started from a test or bench
# binary under build dir $1; fails when there was one.
reap_leaked_workers() {
  local dir=$1 p exe leaked=0
  sleep 1
  for p in /proc/[0-9]*; do
    exe=$(readlink "$p/exe" 2>/dev/null) || continue
    case $exe in
      "$dir"/tests/* | "$dir"/bench/*)
        echo "tsan_stress: leaked process ${p#/proc/}: $(tr '\0' ' ' <"$p/cmdline" 2>/dev/null)" >&2
        kill -9 "${p#/proc/}" 2>/dev/null || true
        leaked=1
        ;;
    esac
  done
  return $leaked
}

# halt_on_error so the first race fails the run instead of scrolling past;
# second_deadlock_stack gives both sides of lock-order reports.
export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1 ${TSAN_OPTIONS:-}"

passes=(
  "ctest -L 'schedtest|threaded|gc|eden_rt|chaos|serving|bytecode|parker' --output-on-failure"
  "ctest -L 'serving|chaos' -j8 --output-on-failure"
)

fail=0
for ((i = 0; i < iterations && fail == 0; ++i)); do
  seed=$((base_seed + i))
  echo "=== tsan_stress: seed $seed ($((i + 1))/$iterations) ==="
  for pass in "${passes[@]}"; do
    (cd "$build_dir" && export PARHASK_SCHED_SEED=$seed && eval "$pass") || fail=1
    reap_leaked_workers "$build_dir" || fail=1
    if [[ $fail -ne 0 ]]; then
      echo "tsan_stress: FAILURE at PARHASK_SCHED_SEED=$seed" >&2
      echo "reproduce with:" >&2
      echo "  cd $build_dir && PARHASK_SCHED_SEED=$seed $pass" >&2
      break
    fi
  done
done

if [[ $fail -eq 0 && $run_asan -eq 1 ]]; then
  asan_dir=${ASAN_BUILD_DIR:-"$repo_root/build-asan"}
  echo "=== tsan_stress: ASan pass over the gc, chaos, serving, bytecode and parker labels ==="
  cmake -B "$asan_dir" -S "$repo_root" -DPARHASK_SANITIZE=address
  cmake --build "$asan_dir" -j "$(nproc)"
  (cd "$asan_dir" && ctest -L 'gc|chaos|serving|bytecode|parker' --output-on-failure) || fail=1
  reap_leaked_workers "$(cd "$asan_dir" && pwd -P)" || fail=1
  if [[ $fail -ne 0 ]]; then
    echo "tsan_stress: ASan FAILURE (ctest -L 'gc|chaos|serving|bytecode|parker' in $asan_dir)" >&2
  fi
fi

if [[ $fail -eq 0 ]]; then
  echo "tsan_stress: $iterations seeds clean (base seed $base_seed)"
fi
exit $fail
