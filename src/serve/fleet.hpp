// ServeFleet — a persistent fork-per-PE worker pool for phserved.
//
// The supervision architecture is EdenProcDriver's (PR 6) re-aimed at a
// daemon: workers are forked once over a pre-built net::ProcTransport
// (shm byte rings or framed localhost TCP — every wire resource exists
// before fork, so nothing leaks when a child is SIGKILLed), announce
// liveness with MsgKind::Heartbeat frames, and are reaped by
// waitpid(WNOHANG) plus heartbeat-silence detection. The differences are
// what "long-lived" forces:
//
//   * no fixed topology — a worker executes catalog requests on a fresh
//     per-request Machine instead of a fork-frozen Eden process graph, so
//     the fleet outlives any one computation;
//   * deadline/cancel propagation — each request's absolute deadline
//     travels in its Submit frame and is enforced *inside* Machine::step
//     via the cooperative cancel hook, which doubles as the worker's
//     heartbeat tick and control-plane poll;
//   * a circuit breaker instead of RtsInternalError — exhausting the
//     restart budget (-FR) quarantines the PE (breaker Open) and the
//     fleet keeps serving on the survivors; a HalfOpen probe respawn
//     later readmits the PE if it proves healthy;
//   * graceful drain — Shutdown lets a busy worker finish its in-flight
//     request, ship final stats and _Exit(0); stragglers are killed after
//     a bounded grace so drain cannot hang the daemon;
//   * incarnation-safe control frames — Submit and Cancel carry the
//     slot's death count as DataMsg::epoch, and a worker drops frames
//     stamped for another incarnation, since the supervisor->PE ring
//     outlives a killed worker together with its unread frames.
//
// The supervisor side is single-threaded and non-blocking: the daemon's
// event loop calls tick() which never sleeps.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "net/proc.hpp"
#include "rts/fault.hpp"
#include "serve/admission.hpp"
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

struct FleetStats {
  std::uint64_t deaths = 0;
  std::uint64_t respawns = 0;
  std::uint64_t quarantines = 0;  // breaker trips into Open
  std::uint64_t probes = 0;       // HalfOpen respawn attempts
  std::uint64_t executed = 0;     // requests completed by workers (final Stats)
  std::uint64_t killed = 0;       // request threads killed in workers
  std::uint64_t chaos_kills = 0;  // -Fc / inject_kill SIGKILLs delivered
};

/// One tick()'s worth of supervisor observations.
struct FleetEvents {
  std::vector<ServeReply> replies;       // Result/Error frames from workers
  std::vector<std::uint64_t> lost_ids;   // in-flight ids whose PE died
};

class ServeFleet {
 public:
  ServeFleet(const Program& prog, FleetConfig cfg);
  ~ServeFleet();
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

  /// Graceful stop: Shutdown to every live worker, bounded reap, SIGKILL
  /// stragglers. After drain() no child of this process remains (waitpid
  /// confirmed) and the transport is stopped.
  void drain(std::uint64_t grace_us = 1'000'000);

  // --- chaos / introspection ------------------------------------------------
  pid_t pe_pid(std::uint32_t pe) const;
  /// Queues a SIGKILL for `pe`, delivered on the next tick. Safe to call
  /// from another thread (tests race it against live traffic).
  void inject_kill(std::uint32_t pe);
  BreakerState breaker_state(std::uint32_t pe) const;
  const FleetStats& stats() const { return stats_; }
  std::vector<pid_t> spawned_pids() const;  // every pid ever forked

 private:
  struct Slot {
    pid_t pid = -1;
    std::uint64_t deaths = 0;  // also names the live incarnation
    std::uint64_t last_beat = 0;
    bool beat_seen = false;
    std::uint64_t respawn_at = 0;  // 0 = none scheduled
    bool probe = false;            // current incarnation is a HalfOpen probe
    std::optional<std::uint64_t> inflight;  // request id being executed
    std::uint64_t last_dispatch = 0;        // LRU tiebreak for pick_worker
  };

  void spawn(std::uint32_t pe);
  void on_death(std::uint32_t pe, std::uint64_t now, const char* how,
                FleetEvents& ev);
  void reap_and_detect(std::uint64_t now, FleetEvents& ev);
  void drain_frames(std::uint64_t now, FleetEvents* ev);
  [[noreturn]] void worker_main(std::uint32_t pe);

  const Program& prog_;
  FleetConfig cfg_;
  FaultInjector injector_;
  std::unique_ptr<net::ProcTransport> transport_;
  std::vector<Slot> slots_;
  std::vector<CircuitBreaker> breakers_;
  std::vector<pid_t> spawned_;
  FleetStats stats_;
  std::chrono::steady_clock::time_point epoch_;
  std::uint64_t hb_interval_us_ = 0;
  std::uint64_t hb_timeout_us_ = 0;
  bool started_ = false;
  bool chaos_fired_ = false;
  std::atomic<std::int32_t> kill_request_{-1};  // pe index, -1 = none
};

}  // namespace ph::serve
