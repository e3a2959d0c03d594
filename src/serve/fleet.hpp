// ServeFleet — a persistent fork-per-PE worker pool for phserved.
//
// Supervision is a net::Supervisor (net/supervisor.hpp), the same one
// EdenProcDriver uses: workers are forked once over a pre-built
// net::ProcTransport (shm byte rings or framed localhost TCP — every wire
// resource exists before fork, so nothing leaks when a child is
// SIGKILLed), announce liveness with heartbeats, and are reaped by
// waitpid(WNOHANG) plus heartbeat-silence detection; frames to a worker
// are stamped with its incarnation. What the fleet keeps is what
// "long-lived" forces:
//
//   * no fixed topology — a worker executes catalog requests on a fresh
//     per-request Machine instead of a fork-frozen Eden process graph, so
//     the fleet outlives any one computation;
//   * dispatch — one request in flight per worker, least recently used
//     first; the request a dying worker held comes back as a lost id;
//   * deadline/cancel propagation — each request's absolute deadline
//     travels in its Submit frame and is enforced *inside* Machine::step
//     via the cooperative cancel hook, which doubles as the worker's
//     heartbeat tick and control-plane poll;
//   * quarantine instead of RtsInternalError — a PE whose restart budget
//     (-FR) is exhausted is not placed on while its breaker is Open, and
//     the fleet keeps serving on the survivors; the supervisor's HalfOpen
//     probe respawn readmits it once a request served there closes the
//     breaker;
//   * graceful drain — Shutdown lets a busy worker finish its in-flight
//     request, ship final stats and _Exit(0); stragglers are killed after
//     a bounded grace so drain cannot hang the daemon.
//
// The supervisor side is single-threaded and non-blocking: the daemon's
// event loop calls tick(), which never sleeps, and blocks in one poll()
// that includes the fleet's doorbell (every worker reply rings it). An
// idle worker parks on its own doorbell until a control frame arrives or
// its next heartbeat is due (DESIGN.md §18).
#pragma once

#include <sys/types.h>

#include <functional>
#include <optional>
#include <vector>

#include "net/supervisor.hpp"
#include "rts/fault.hpp"
#include "serve/catalog.hpp"
#include "serve/wire.hpp"

namespace ph::serve {

struct FleetConfig {
  std::uint32_t n_pes = 4;
  net::ProcWire wire = net::ProcWire::Shm;
  /// Serve traffic is one small frame per request/reply, so the rings can
  /// be far smaller than Eden's packet streams need.
  std::size_t ring_bytes = std::size_t{1} << 18;
  /// Heartbeat knobs, the restart budget (-FR) and the chaos kill (-Fc)
  /// all reuse the PR 6 fault-plan grammar.
  FaultPlan fault;
  RtsConfig worker_rts;
  std::uint64_t breaker_cooldown_us = 2'000'000;
  /// Runs in the child right after fork(), before the worker loop — the
  /// daemon closes its listening/client sockets here so a worker never
  /// holds a client connection open past the parent's close().
  std::function<void()> post_fork_child;
};

/// The supervisor's counters plus the workers' final WorkerStats.
struct FleetStats : net::SupervisorStats {
  std::uint64_t executed = 0;  // requests completed by workers
  std::uint64_t killed = 0;    // request threads killed in workers
};

/// One tick()'s worth of supervisor observations.
struct FleetEvents {
  std::vector<ServeReply> replies;       // Result/Error frames from workers
  std::vector<std::uint64_t> lost_ids;   // in-flight ids whose PE died
};

class ServeFleet : private net::Supervisor::Driver {
 public:
  ServeFleet(const Program& prog, FleetConfig cfg);
  ServeFleet(const ServeFleet&) = delete;
  ServeFleet& operator=(const ServeFleet&) = delete;

  void start();
  /// µs since the fleet epoch — the clock deadlines are expressed in.
  std::uint64_t now_us() const;
  std::uint32_t n_pes() const { return cfg_.n_pes; }

  // --- scheduling surface (the daemon's dispatcher) -------------------------
  /// Alive, not quarantined, not busy.
  bool pe_available(std::uint32_t pe) const;
  std::optional<std::uint32_t> pick_worker() const;
  std::uint32_t healthy_workers() const;  // alive or respawning, not quarantined
  void submit(std::uint32_t pe, const ServeRequest& req,
              std::uint64_t abs_deadline_us);
  void cancel(std::uint32_t pe, std::uint64_t request_id);

  /// One non-blocking supervision pass: drain worker frames, execute due
  /// chaos kills, reap, detect silence, respawn/probe, quarantine.
  FleetEvents tick();
  /// The fleet's doorbell: every worker reply and inject_kill ring it; its
  /// fd() joins the daemon's poll set.
  Parker& doorbell() { return sup_.doorbell(); }
  /// The next tick() has work now (a frame waiting, a kill queued).
  bool tick_ready() { return sup_.tick_ready(); }
  /// When tick() next has work with no frame arriving (fleet-epoch µs).
  std::uint64_t next_tick_us() const { return sup_.next_due_us(); }

  /// Graceful stop: Shutdown to every live worker, bounded reap, SIGKILL
  /// stragglers. After drain() no child of this process remains (waitpid
  /// confirmed) and the transport is stopped.
  void drain(std::uint64_t grace_us = 1'000'000);

  // --- chaos / introspection ------------------------------------------------
  pid_t pe_pid(std::uint32_t pe) const;
  /// Queues a SIGKILL for `pe`, delivered on the next tick. Safe to call
  /// from another thread (tests race it against live traffic).
  void inject_kill(std::uint32_t pe);
  net::BreakerState breaker_state(std::uint32_t pe) const;
  FleetStats stats() const;
  std::vector<pid_t> spawned_pids() const { return sup_.spawned_pids(); }

 private:
  struct Slot {
    std::optional<std::uint64_t> inflight;  // request id being executed
    std::uint64_t last_dispatch = 0;        // LRU tiebreak for pick_worker
  };

  void worker_main(net::Supervisor::Worker& w) override;
  void on_frame(net::DataMsg& m) override;
  void on_death(std::uint32_t pe, const char* how, bool tripped) override;

  const Program& prog_;
  FleetConfig cfg_;
  FaultInjector injector_;
  net::Supervisor sup_;
  std::vector<Slot> slots_;
  std::uint64_t executed_ = 0;  // from the workers' final WorkerStats
  std::uint64_t killed_ = 0;
  FleetEvents* events_ = nullptr;  // the tick() in progress, if any
};

}  // namespace ph::serve
