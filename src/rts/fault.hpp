// Deterministic fault injection and the runtime's recovery vocabulary.
//
// A FaultPlan is a *schedule* of misbehaviour: message drop / duplication /
// delay probabilities for the Eden middleware, one PE crash at a virtual
// time, and a window of forced allocation failures. All decisions are
// derived from a seed by counter-based hashing (splitmix64 over the
// message/allocation identity), so the same plan over the same program
// yields byte-identical traces — faults are reproducible experiments, not
// flaky chaos.
//
// This header also defines the structured failures the runtime raises
// instead of aborting (RtsInternalError with a heap census, per-TSO
// HeapOverflow) and the DeadlockDiagnosis produced by the blocked-thread
// analysis that replaced the drivers' idle-spin heuristics.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "heap/heap.hpp"
#include "rts/tso.hpp"

namespace ph {

struct FaultPlan {
  static constexpr std::uint32_t kNoPe = ~std::uint32_t{0};

  std::uint64_t seed = 0;

  // Lossy-link model applied to every Eden message (probabilities in [0,1]).
  double drop = 0.0;
  double duplicate = 0.0;
  double delay = 0.0;
  std::uint64_t delay_extra = 2000;  // added latency when a message is delayed

  // PE crash: `crash_pe` dies when virtual time reaches `crash_at`.
  std::uint32_t crash_pe = kNoPe;
  std::uint64_t crash_at = 0;

  // Forced allocation failures: the Nth..(N+count-1)th allocation observed
  // by the injector fails, optionally restricted to one thread.
  std::uint64_t alloc_fail_at = 0;  // 0 = off (1-based allocation index)
  std::uint32_t alloc_fail_count = 3;
  ThreadId alloc_fail_tso = kNoThread;  // kNoThread = any caller

  // Recovery knobs (reliable-channel retry, crash supervision).
  std::uint64_t retry_timeout = 2500;  // virtual time before first retransmit
  double retry_backoff = 2.0;          // timeout multiplier per attempt
  std::uint32_t retry_max = 0;         // max send attempts (0 = unbounded)
  std::uint64_t retry_cap = 0;         // backoff ceiling per attempt (0 = uncapped)
  double retry_jitter = 0.0;           // ± fraction of the timeout, drawn per deadline
  std::uint64_t heartbeat_interval = 500;   // supervisor check period
  std::uint64_t heartbeat_timeout = 4000;   // silence before a PE is declared dead
  std::uint32_t restart_max = 5;       // per-PE respawn budget (process-per-PE mode)
  // Process-per-PE crash supervision without any injected misbehaviour
  // (heartbeats, waitpid reaping, restart + replay on real PE death).
  bool supervise = false;

  bool lossy() const { return drop > 0.0 || duplicate > 0.0 || delay > 0.0; }
  bool crashes() const { return crash_pe != kNoPe; }
  bool enabled() const {
    return lossy() || crashes() || alloc_fail_at != 0 || supervise;
  }
};

/// Deterministic ± jitter applied to a retry deadline: the same identity
/// (a, b, c — e.g. src PE, cseq, attempt) always draws the same offset,
/// so schedules stay reproducible. Returns `timeout` unchanged when the
/// plan has no jitter; never returns 0.
std::uint64_t jittered_timeout(const FaultPlan& plan, std::uint64_t timeout,
                               std::uint64_t a, std::uint64_t b, std::uint64_t c);

/// Parses fault flags (whitespace-separated) on top of `base`:
///   -Fs<seed>       RNG seed               -Fd<pct> drop probability (%)
///   -Fu<pct>        duplicate probability  -Fl<pct> delay probability (%)
///   -FL<t>          extra delay            -Fc<pe>@<time> crash PE at time
///   -Fa<n>[:c[:t]]  fail allocations n..n+c-1 (of tso t)
///   -Fr<t>          retry timeout          -Fb<x100> backoff ×100 (-Fb200 = 2.0)
///   -Fm<n>          max send attempts      -Fh<t> heartbeat interval
///   -FH<t>          heartbeat timeout      -FC<t> backoff ceiling (0 = uncapped)
///   -FJ<pct>        retry jitter (± % of the timeout)
///   -FR<n>          per-PE restart budget  -FS enable crash supervision
FaultPlan parse_fault_flags(const std::string& flags, FaultPlan base = FaultPlan{});
std::string show_fault_flags(const FaultPlan& plan);

struct FaultStats {
  std::uint64_t dropped = 0;       // messages eaten by the lossy link
  std::uint64_t duplicated = 0;    // messages delivered twice
  std::uint64_t delayed = 0;       // messages given extra latency
  std::uint64_t retries = 0;       // timeout-driven retransmissions
  std::uint64_t acks = 0;          // acknowledgements sent
  std::uint64_t dedup_dropped = 0; // duplicates discarded by sequence check
  std::uint64_t replayed = 0;      // log entries replayed into a restarted PE
  std::uint64_t crashes = 0;       // PEs killed by the plan
  std::uint64_t restarts = 0;      // processes re-instantiated by supervision
  std::uint64_t lost_processes = 0;  // crashed processes that could not be rebuilt
  std::uint64_t heap_overflows = 0;  // TSOs unwound by HeapOverflow
  std::uint64_t alloc_faults = 0;    // allocations failed by injection
  std::uint64_t detect_us = 0;       // kill → supervisor-noticed latency (summed)
  std::uint64_t replay_us = 0;       // wall time survivors spent replaying logs
};

/// Stateful face of a FaultPlan: answers "does this event misbehave?"
/// deterministically and counts what it did. One injector is shared by a
/// whole system (Machine heap hooks + Eden middleware).
class FaultInjector {
 public:
  FaultInjector() = default;
  explicit FaultInjector(FaultPlan plan) : plan_(plan) {}

  const FaultPlan& plan() const { return plan_; }
  FaultStats& stats() { return stats_; }
  const FaultStats& stats() const { return stats_; }

  /// Lossy-link decisions for one transmission attempt of one message.
  bool drop_message(std::uint64_t channel, std::uint64_t cseq, std::uint32_t attempt) const;
  bool drop_ack(std::uint64_t channel, std::uint64_t cseq);
  /// Pure ack-drop draw keyed on the triggering data transmission's
  /// attempt instead of the injector-wide ack counter. Used by the
  /// real-time transports, where many PE threads consult the injector
  /// concurrently and a shared counter would be a race (and would make
  /// draws depend on wall-clock arrival order).
  bool drop_ack(std::uint64_t channel, std::uint64_t cseq, std::uint32_t attempt) const;
  bool duplicate_message(std::uint64_t channel, std::uint64_t cseq,
                         std::uint32_t attempt) const;
  bool delay_message(std::uint64_t channel, std::uint64_t cseq,
                     std::uint32_t attempt) const;

  /// Forced allocation failure for the calling thread (kNoThread = host
  /// allocation). Counts only calls that match the plan's TSO restriction.
  bool fail_alloc(ThreadId who);

 private:
  bool chance(double p, std::uint64_t stream, std::uint64_t a, std::uint64_t b,
              std::uint64_t c) const;

  FaultPlan plan_;
  FaultStats stats_;
  std::uint64_t allocs_seen_ = 0;
  std::uint64_t acks_seen_ = 0;
};

/// Raised when a thread cannot allocate even after a forced major GC. The
/// drivers catch it (or call Machine::kill_thread directly) so only the
/// victim thread unwinds.
struct HeapOverflow : std::runtime_error {
  HeapOverflow(ThreadId t, const std::string& what)
      : std::runtime_error(what), tso(t) {}
  ThreadId tso;
};

/// Raised on internal-consistency failures (e.g. a GC root pointing at a
/// reclaimed space) instead of std::abort(): carries enough structure for
/// tests and supervisors to act on.
struct RtsInternalError : std::runtime_error {
  RtsInternalError(const std::string& what, ThreadId t, std::string slot_kind_,
                   int obj_kind_, HeapCensus census_)
      : std::runtime_error(what), tso(t), slot_kind(std::move(slot_kind_)),
        obj_kind(obj_kind_), census(std::move(census_)) {}
  ThreadId tso;          // owner of the offending slot (kNoThread if global)
  std::string slot_kind; // "code.ptr", "vstack", "caf", "spark", ...
  int obj_kind;          // header kind of the bad object (-1 if null)
  HeapCensus census;     // heap population at the moment of failure
};

enum class DeadlockKind : std::uint8_t {
  None,
  NonTermination,  // a genuine cycle of threads blocked on each other
  Starvation       // blocked threads with no local producer (e.g. a
                   // placeholder whose sender never existed)
};

/// Result of the blocked-thread analysis (Machine::diagnose_deadlock).
struct DeadlockDiagnosis {
  DeadlockKind kind = DeadlockKind::None;
  std::vector<ThreadId> cycle;    // the blocked cycle, in edge order
  std::vector<ThreadId> starved;  // blocked threads outside any cycle
  std::uint32_t pe = FaultPlan::kNoPe;  // owning PE in an Eden system

  /// GHC-style one-line report ("<<loop>>" for NonTermination).
  std::string describe() const;
};

}  // namespace ph
