// EdenProcDriver: the process-per-PE Eden deployment with real-time
// crash supervision — the driver that survives `kill -9`.
//
// Where EdenThreadedDriver gives every PE a thread, this driver fork()s
// every PE into its own worker *process* over a ProcTransport (net/proc):
// fork-inherited shared-memory frame rings or a pre-connected TCP mesh.
// The parent process never computes; it supervises through a
// net::Supervisor (net/supervisor.hpp), which forks the workers, books
// their heartbeats, detects deaths (waitpid reaping, heartbeat silence),
// respawns under backoff and a per-PE restart budget (-FR), and executes
// FaultPlan crash entries (-Fc<pe>@<t>) as real signals at wall-clock
// offset t µs. What stays Eden's:
//
//   * the heartbeat payload (progress, idle, unacked sends, GC and replay
//     totals) — a dead incarnation can no longer report final counters,
//     so its last snapshot is the record of what it did;
//   * recovery: a respawned PE recomputes from scratch — sound because
//     Eden processes are pure — while the live survivors, told via a
//     RestartNotify ctrl frame, bump the dead PE's channel epochs and
//     replay their send logs into it (EdenSystem::rt_restart_notify),
//     exactly the sim supervisor's repoint-and-replay against real wires;
//   * an exhausted restart budget ends the run with a structured
//     RtsInternalError naming the lost PE instead of wedging;
//   * Done/Stats: the root's worker ships the packed result, and every
//     worker ships its final counters on Shutdown.
//
// Quiescence cannot rely on a dead PE's unacked counts (they died with
// it): the driver instead watches the heartbeat payloads — all workers
// idle with nothing unacked and no progress for a full window, with no
// respawn pending, is declared a distributed deadlock.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "eden/eden_rt.hpp"
#include "net/supervisor.hpp"

namespace ph {

/// Control-plane opcodes, carried in DataMsg::channel of MsgKind::Ctrl
/// frames (ctrl frames never touch the channel table).
enum class ProcCtrl : std::uint64_t {
  Shutdown = 1,       // supervisor → worker: send Stats, _Exit(0)
  RestartNotify = 2,  // supervisor → workers: [restarted pe, incarnations...]
  Done = 3,           // root's worker → supervisor: packed result payload
  DoneNoValue = 4,    // root's worker → supervisor: root died unrecoverably
  Stats = 5,          // worker → supervisor: final counters (kStatsWords)
};

class EdenProcDriver : private net::Supervisor::Driver {
 public:
  /// The system must be configured with --eden-transport=proc. `wire`
  /// picks the inter-process medium; `ring_bytes` sizes the shm rings.
  explicit EdenProcDriver(EdenSystem& sys, TraceLog* trace = nullptr,
                          net::ProcWire wire = net::ProcWire::Shm,
                          std::size_t ring_bytes = std::size_t{1} << 22);

  /// Runs until `root` finishes (on any PE — the owning worker packs the
  /// result and ships it home), the system deadlocks, or a PE exhausts
  /// its restart budget (throws RtsInternalError naming the lost PE).
  /// The topology must be fully built before this call: the workers are
  /// forked from this image, and every respawn re-forks it.
  EdenRtResult run(Tso* root);

  /// Cross-thread graceful stop. The call rings the supervisor's doorbell,
  /// so its loop notices at once — even mid-computation — sends Shutdown
  /// to every live worker, reaps them all (bounded grace, then SIGKILL
  /// stragglers) and run() returns with whatever result was in hand. An
  /// atomic store and a ring: safe from another thread or a signal
  /// handler.
  void request_shutdown() {
    shutdown_requested_.store(true, std::memory_order_release);
    sup_.doorbell().ring();
  }

  /// Every worker pid this driver ever forked, including replaced
  /// incarnations — for post-run hygiene asserts: after run() returns,
  /// none of these may remain a child (zombie or live) of the caller.
  std::vector<pid_t> spawned_pids() const { return sup_.spawned_pids(); }

  /// Chaos-suite hook: the signal the plan's crash entry delivers (default
  /// SIGKILL). SIGSTOP wedges the worker instead of killing it, so only
  /// heartbeat silence — not waitpid — can expose the death; the chaos
  /// suite uses it to pin the silence-detection path deterministically.
  void set_crash_signal(int sig) { sup_.set_crash_signal(sig); }

 private:
  /// The last heartbeat payload of a PE's live incarnation: quiescence
  /// inputs plus the running totals a dead incarnation can no longer
  /// report itself.
  struct Beat {
    bool seen = false;  // this incarnation has reported at least once
    std::uint64_t progress = 0;
    bool idle = false;
    std::uint64_t unacked = 0;
    std::uint64_t gc = 0, ovf = 0, replayed = 0, replay_us = 0;
  };

  void worker_main(net::Supervisor::Worker& w) override;
  void on_frame(net::DataMsg& m) override;
  void on_spawn(std::uint32_t pe) override;
  void on_kill(std::uint32_t pe) override;
  void on_death(std::uint32_t pe, const char* how, bool tripped) override;
  void merge_stats(const Packet& p);
  void note(std::uint32_t pe, const std::string& text);

  EdenSystem& sys_;
  TraceLog* trace_;
  net::Supervisor sup_;
  Tso* root_ = nullptr;
  std::vector<Beat> beats_;
  std::atomic<bool> shutdown_requested_{false};
  bool finished_ = false;
  std::optional<Packet> result_packet_;
  EdenRtResult result_;
  // Deadlock heuristic state.
  std::uint64_t quiet_since_ = 0;
  std::uint64_t last_total_progress_ = ~std::uint64_t{0};
};

}  // namespace ph
