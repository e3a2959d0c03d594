// net::Supervisor — fork-per-PE process supervision, shared by the two
// process drivers: EdenProcDriver (one batch run) and serve::ServeFleet
// (a daemon's worker pool). It owns the ProcTransport, whose endpoint
// n_pes carries heartbeats and control frames, and per PE the worker's
// pid, incarnation, last heartbeat, respawn backoff (5 ms doubling to
// 200 ms) and restart budget (a CircuitBreaker). It forks workers (an
// exception escaping Driver::worker_main ends the child with _Exit(3)),
// detects deaths by waitpid(WNOHANG) and by heartbeat silence (a silent
// worker is SIGKILLed for real) and reports each as one on_death,
// respawns until the breaker trips, gives a cooled-down (HalfOpen) PE one
// probe incarnation, executes the plan's crash entry (-Fc) and
// inject_kill, and ends a run with a bounded farewell and kill-all.
//
// Incarnation stamps: a PE's incarnation is its death count when it was
// forked. Every frame the supervisor sends carries the incarnation it is
// meant for in DataMsg::epoch, and the worker half drops supervisor
// frames stamped for another one: the supervisor->PE ring outlives a dead
// worker together with the frames it never read.
//
// Supervisor death: a worker exits at its next heartbeat once getppid()
// no longer names the process that forked it. PR_SET_PDEATHSIG would fire
// when the forking *thread* exits, and a daemon forks respawns on its
// event-loop thread.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <vector>

#include "net/proc.hpp"
#include "rts/fault.hpp"

namespace ph::net {

enum class BreakerState : std::uint8_t { Closed, Open, HalfOpen };

/// A PE's restart budget. Exhausting it trips the breaker to Open; after
/// a cooldown it reads HalfOpen, a probe incarnation that serves closes
/// it (budget forgiven), and a probe death re-opens it with a fresh
/// cooldown.
class CircuitBreaker {
 public:
  CircuitBreaker(std::uint32_t death_budget, std::uint64_t cooldown_us)
      : budget_(death_budget), cooldown_us_(cooldown_us) {}

  BreakerState state(std::uint64_t now) const {
    if (!open_) return BreakerState::Closed;
    return now >= opened_at_ + cooldown_us_ ? BreakerState::HalfOpen
                                            : BreakerState::Open;
  }

  /// One worker death. Returns true when this death tripped the breaker
  /// (budget exhausted, or the HalfOpen probe died).
  bool on_death(std::uint64_t now) {
    if (open_) {
      // Probe incarnation died: re-open with a fresh cooldown.
      opened_at_ = now;
      return true;
    }
    if (++deaths_ > budget_) {
      open_ = true;
      opened_at_ = now;
      return true;
    }
    return false;
  }

  /// A request served to completion proves the PE healthy: a HalfOpen
  /// probe closes the breaker and the death budget is forgiven.
  void on_served_ok(std::uint64_t now) {
    if (open_ && state(now) == BreakerState::HalfOpen) open_ = false;
    if (!open_) deaths_ = 0;
  }

  std::uint32_t deaths() const { return deaths_; }
  bool tripped() const { return open_; }
  /// When an Open breaker cools down to HalfOpen.
  std::uint64_t half_open_at() const { return opened_at_ + cooldown_us_; }

 private:
  std::uint32_t budget_;
  std::uint64_t cooldown_us_;
  std::uint32_t deaths_ = 0;
  bool open_ = false;
  std::uint64_t opened_at_ = 0;
};

struct SupervisorStats {
  std::uint64_t deaths = 0;
  std::uint64_t respawns = 0;     // forks after a death, probes included
  std::uint64_t probes = 0;       // HalfOpen probe incarnations
  std::uint64_t quarantines = 0;  // breaker trips out of Closed
  std::uint64_t kills = 0;        // -Fc / inject_kill signals delivered
  std::uint64_t detect_us = 0;    // the plan's kill → its death event
};

class Supervisor {
 public:
  class Worker;

  /// What a process driver supplies. The callbacks run on the thread
  /// that calls tick() or shutdown(); worker_main runs in the child.
  class Driver {
   public:
    /// Body of PE `w.pe()`'s worker process. Returning ends the process
    /// with _Exit(0); an escaping exception ends it with _Exit(3).
    virtual void worker_main(Worker& w) = 0;
    /// A frame a worker sent the supervisor endpoint. Heartbeats come
    /// here too, once their liveness has been booked.
    virtual void on_frame(DataMsg& m) = 0;
    /// A worker for `pe` was forked; incarnation(pe) names it.
    virtual void on_spawn(std::uint32_t pe) { (void)pe; }
    /// The plan's crash entry or inject_kill signalled `pe`'s worker.
    virtual void on_kill(std::uint32_t pe) { (void)pe; }
    /// `pe`'s worker died ("reaped" or "heartbeat silence"). `tripped`:
    /// the death tripped its breaker, so no respawn is scheduled.
    virtual void on_death(std::uint32_t pe, const char* how, bool tripped) = 0;

   protected:
    ~Driver() = default;
  };

  /// The worker's half, handed to Driver::worker_main in the child.
  class Worker {
   public:
    Worker(const Worker&) = delete;  // the backpressure hook holds `this`
    Worker& operator=(const Worker&) = delete;
    std::uint32_t pe() const { return pe_; }
    /// Sends a heartbeat when one is due, carrying the payload set by
    /// set_heartbeat_payload; first exits the process if the supervising
    /// process is gone. Also runs while a full ring blocks a send.
    void heartbeat();
    void set_heartbeat_payload(std::function<void(std::vector<Word>&)> fill) {
      payload_ = std::move(fill);
    }
    /// False for a supervisor frame stamped for another incarnation.
    bool current(const DataMsg& m) const;
    /// This PE's next frame, stale supervisor frames dropped.
    std::optional<DataMsg> poll();
    /// Sends `m` from this PE to the supervisor.
    void send(DataMsg m);
    /// The idle wait: parks on this PE's doorbell until a frame arrives,
    /// the next heartbeat is due, or `max_us` passes.
    void park(std::uint64_t max_us = UINT64_MAX);

   private:
    friend class Supervisor;
    Worker(Supervisor& sup, std::uint32_t pe, pid_t parent);

    Supervisor& sup_;
    std::uint32_t pe_;
    std::uint64_t incarnation_;
    pid_t parent_;  // the supervising process, captured before fork()
    std::uint64_t next_beat_ = 0;
    std::function<void(std::vector<Word>&)> payload_;
  };

  /// Heartbeat knobs, the restart budget (-FR) and the crash entry (-Fc)
  /// come from `injector`'s plan, which must outlive the supervisor.
  Supervisor(Driver& driver, const FaultInjector& injector, std::uint32_t n_pes,
             ProcWire wire, std::size_t ring_bytes, std::uint64_t breaker_cooldown_us);
  ~Supervisor();
  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  ProcTransport& transport() { return transport_; }
  std::uint32_t n_pes() const { return static_cast<std::uint32_t>(slots_.size()); }
  /// µs since start(): the clock of heartbeats, backoffs and the plan.
  std::uint64_t now_us() const;

  /// Starts the transport, stamps the clock epoch and forks every PE.
  void start();
  /// One non-blocking pass: drain the supervisor endpoint, deliver a due
  /// kill, reap, detect silence, respawn, probe.
  void tick();

  /// The supervisor endpoint's doorbell, rung by every frame a worker
  /// sends it (heartbeats excepted) and by inject_kill. Pollable: its fd()
  /// can join a caller's poll set.
  Parker& doorbell() { return transport_.doorbell(transport_.supervisor_endpoint()); }
  /// The next tick() has work now: a frame is waiting or a kill is queued.
  bool tick_ready();
  /// When tick() next has work with no frame arriving (supervisor µs): a
  /// due respawn or probe, the plan's crash entry, or the next silence
  /// check, one heartbeat interval away.
  std::uint64_t next_due_us() const;
  /// Bounded farewell: `farewell` to every live worker, then reap and
  /// drain frames for up to `grace_us`, stop the transport and SIGKILL
  /// whoever is left. Nothing forked remains afterwards.
  void shutdown(const DataMsg& farewell, std::uint64_t grace_us);
  /// SIGKILLs and reaps every live worker.
  void kill_all();

  /// Sends `m` to PE `pe`, stamped with its current incarnation.
  void send(std::uint32_t pe, DataMsg m);

  bool alive(std::uint32_t pe) const { return slots_.at(pe).pid > 0; }
  pid_t pid(std::uint32_t pe) const { return slots_.at(pe).pid; }
  std::uint64_t incarnation(std::uint32_t pe) const { return slots_.at(pe).incarnation; }
  /// The live incarnation is a HalfOpen probe.
  bool probing(std::uint32_t pe) const { return slots_.at(pe).probe; }
  const CircuitBreaker& breaker(std::uint32_t pe) const { return slots_.at(pe).breaker; }
  /// `pe` served a request: a probe closes its breaker.
  void served_ok(std::uint32_t pe);

  /// Queues a SIGKILL for `pe`, delivered on the next tick. Safe to call
  /// from another thread.
  void inject_kill(std::uint32_t pe);
  /// The signal the plan's crash entry delivers (default SIGKILL).
  void set_crash_signal(int sig) { crash_signal_ = sig; }
  const SupervisorStats& stats() const { return stats_; }
  /// Every pid ever forked, replaced incarnations included.
  std::vector<pid_t> spawned_pids() const;

 private:
  struct Slot {
    explicit Slot(CircuitBreaker b) : breaker(b) {}
    pid_t pid = -1;
    std::uint64_t incarnation = 0;  // deaths when the live worker was forked
    std::uint64_t deaths = 0;
    std::uint64_t last_beat = 0;   // µs; a fork pre-credits a grace
    std::uint64_t respawn_at = 0;  // 0 = no respawn scheduled
    bool probe = false;
    CircuitBreaker breaker;
  };

  void spawn(std::uint32_t pe, bool probe);
  void on_death(std::uint32_t pe, std::uint64_t now, const char* how);
  void drain_frames(std::uint64_t now);

  Driver& driver_;
  const FaultPlan& plan_;
  ProcTransport transport_;
  std::vector<Slot> slots_;
  SupervisorStats stats_;
  std::chrono::steady_clock::time_point epoch_;
  std::uint64_t hb_interval_us_;
  std::uint64_t hb_timeout_us_;
  bool started_ = false;
  int crash_signal_;
  bool crash_fired_ = false;
  std::uint64_t crash_kill_us_ = 0;
  bool detect_recorded_ = false;
  std::atomic<std::uint32_t> kill_request_{FaultPlan::kNoPe};
  mutable std::mutex spawned_mu_;
  std::vector<pid_t> spawned_;
};

}  // namespace ph::net
