#include "net/supervisor.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdlib>
#include <stdexcept>

namespace ph::net {
namespace {

constexpr std::uint64_t kMinHbIntervalUs = 2000;  // floor on worker heartbeats
constexpr std::uint64_t kMinHbTimeoutUs = 50000;  // floor on silence → death
constexpr std::uint64_t kSpawnGraceUs = 200000;   // silence credit for a fresh fork
constexpr std::uint64_t kBackoffBaseUs = 5000;    // first respawn delay
constexpr std::uint64_t kBackoffCapUs = 200000;   // respawn delay ceiling
constexpr std::uint64_t kFarewellParkUs = 200;  // reap cadence while workers exit

}  // namespace

Supervisor::Supervisor(Driver& driver, const FaultInjector& injector, std::uint32_t n_pes,
                       ProcWire wire, std::size_t ring_bytes,
                       std::uint64_t breaker_cooldown_us)
    : driver_(driver),
      plan_(injector.plan()),
      transport_(n_pes, &injector, wire, ring_bytes),
      slots_(n_pes, Slot(CircuitBreaker(plan_.restart_max, breaker_cooldown_us))),
      hb_interval_us_(std::max<std::uint64_t>(plan_.heartbeat_interval, kMinHbIntervalUs)),
      hb_timeout_us_(std::max<std::uint64_t>(
          {plan_.heartbeat_timeout, kMinHbTimeoutUs, 4 * hb_interval_us_})),
      crash_signal_(SIGKILL) {
  transport_.set_cross_process(true);
}

Supervisor::~Supervisor() { kill_all(); }

std::uint64_t Supervisor::now_us() const {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                        std::chrono::steady_clock::now() - epoch_)
                                        .count());
}

void Supervisor::start() {
  // Every socket end stays open in the supervisor, so EPIPE cannot
  // happen; a SIGPIPE would still kill it if a write raced a teardown.
  signal(SIGPIPE, SIG_IGN);
  transport_.start();
  epoch_ = std::chrono::steady_clock::now();
  started_ = true;
  for (std::uint32_t pe = 0; pe < n_pes(); ++pe) spawn(pe, false);
}

void Supervisor::spawn(std::uint32_t pe, bool probe) {
  Slot& s = slots_[pe];
  // In place before fork(): the child reads its own copy.
  s.incarnation = s.deaths;
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("Supervisor: fork failed");
  if (pid == 0) {
    try {
      Worker w(*this, pe, parent);
      driver_.worker_main(w);
      // Vanish without running any parent-owned destructor: the child
      // shares the supervisor's whole address-space layout.
      std::_Exit(0);
    } catch (...) {
      std::_Exit(3);
    }
  }
  {
    std::lock_guard<std::mutex> lk(spawned_mu_);
    spawned_.push_back(pid);
  }
  s.pid = pid;
  s.respawn_at = 0;
  s.last_beat = now_us() + kSpawnGraceUs;
  s.probe = probe;
  if (s.deaths != 0) stats_.respawns++;
  if (probe) stats_.probes++;
  driver_.on_spawn(pe);
}

void Supervisor::on_death(std::uint32_t pe, std::uint64_t now, const char* how) {
  Slot& s = slots_[pe];
  s.pid = -1;
  s.deaths++;
  stats_.deaths++;
  if (crash_fired_ && !detect_recorded_ && pe == plan_.crash_pe) {
    // A corpse reaped in the tick that fired the kill shares its `now`:
    // clamp so "detected within clock resolution" stays distinguishable
    // from "never detected" (detect_us == 0).
    stats_.detect_us += std::max<std::uint64_t>(1, now - crash_kill_us_);
    detect_recorded_ = true;
  }
  const bool was_tripped = s.breaker.tripped();
  const bool tripped = s.breaker.on_death(now);
  s.probe = false;
  s.respawn_at = 0;
  if (tripped) {
    if (!was_tripped) stats_.quarantines++;
  } else {
    s.respawn_at = now + std::min<std::uint64_t>(
                             kBackoffBaseUs << std::min<std::uint64_t>(s.deaths - 1, 10),
                             kBackoffCapUs);
  }
  driver_.on_death(pe, how, tripped);
}

void Supervisor::drain_frames(std::uint64_t now) {
  while (std::optional<DataMsg> m = transport_.poll(transport_.supervisor_endpoint())) {
    if (m->src_pe >= n_pes()) continue;
    if (m->kind == MsgKind::Heartbeat) slots_[m->src_pe].last_beat = now;
    driver_.on_frame(*m);
  }
}

void Supervisor::tick() {
  if (!started_) return;
  std::uint64_t now = now_us();
  drain_frames(now);

  // The fault plan's crash entry, executed for real at its wall-clock
  // offset (1 virtual cycle = 1 µs), and any kill queued by inject_kill.
  if (plan_.crashes() && !crash_fired_ && plan_.crash_pe < n_pes() &&
      now >= plan_.crash_at && alive(plan_.crash_pe)) {
    kill(slots_[plan_.crash_pe].pid, crash_signal_);
    crash_fired_ = true;
    crash_kill_us_ = now;
    stats_.kills++;
    driver_.on_kill(plan_.crash_pe);
  }
  const std::uint32_t kr =
      kill_request_.exchange(FaultPlan::kNoPe, std::memory_order_acq_rel);
  if (kr < n_pes() && alive(kr)) {
    kill(slots_[kr].pid, SIGKILL);
    stats_.kills++;
    driver_.on_kill(kr);
  }

  // Death detection #1: reap. A SIGKILLed worker surfaces here.
  for (std::uint32_t pe = 0; pe < n_pes(); ++pe) {
    if (alive(pe) && waitpid(slots_[pe].pid, nullptr, WNOHANG) == slots_[pe].pid)
      on_death(pe, now, "reaped");
  }

  // Death detection #2: heartbeat silence. A wedged worker (stopped,
  // livelocked) is killed for real first, then replaced like any other.
  // Judged at the drain's `now`: a heartbeat that landed after the drain
  // must not count as silence if this thread was descheduled since.
  for (std::uint32_t pe = 0; pe < n_pes(); ++pe) {
    Slot& s = slots_[pe];
    if (s.pid <= 0 || now <= s.last_beat || now - s.last_beat <= hb_timeout_us_) continue;
    kill(s.pid, SIGKILL);
    waitpid(s.pid, nullptr, 0);
    on_death(pe, now, "heartbeat silence");
  }

  // Due respawns, and one probe incarnation for each quarantined PE whose
  // breaker has cooled down to HalfOpen.
  now = now_us();
  for (std::uint32_t pe = 0; pe < n_pes(); ++pe) {
    const Slot& s = slots_[pe];
    if (s.pid > 0) continue;
    if (s.respawn_at != 0 && now >= s.respawn_at)
      spawn(pe, false);
    else if (s.respawn_at == 0 && s.breaker.state(now) == BreakerState::HalfOpen)
      spawn(pe, true);
  }
}

void Supervisor::shutdown(const DataMsg& farewell, std::uint64_t grace_us) {
  if (!started_) return;
  started_ = false;
  for (std::uint32_t pe = 0; pe < n_pes(); ++pe)
    if (alive(pe)) send(pe, farewell);
  const std::uint64_t deadline = now_us() + grace_us;
  for (;;) {
    bool any_live = false;
    for (Slot& s : slots_) {
      if (s.pid <= 0) continue;
      if (waitpid(s.pid, nullptr, WNOHANG) == s.pid)
        s.pid = -1;
      else
        any_live = true;
    }
    drain_frames(now_us());
    if (!any_live || now_us() > deadline) break;
    // A worker's last frame (its final stats) rings; it exits right after.
    const std::uint32_t ep = transport_.supervisor_endpoint();
    doorbell().park([&] { return transport_.pending(ep); },
                    std::chrono::microseconds(kFarewellParkUs));
  }
  transport_.stop();  // releases any sender still spinning on a full ring
  kill_all();
}

void Supervisor::kill_all() {
  for (Slot& s : slots_) {
    if (s.pid <= 0) continue;
    kill(s.pid, SIGKILL);
    waitpid(s.pid, nullptr, 0);
    s.pid = -1;
  }
}

void Supervisor::send(std::uint32_t pe, DataMsg m) {
  m.src_pe = transport_.supervisor_endpoint();
  m.epoch = slots_.at(pe).incarnation;
  transport_.send(pe, m);
}

void Supervisor::served_ok(std::uint32_t pe) {
  Slot& s = slots_.at(pe);
  s.breaker.on_served_ok(now_us());
  s.probe = false;
}

void Supervisor::inject_kill(std::uint32_t pe) {
  kill_request_.store(pe, std::memory_order_release);
  doorbell().ring();
}

bool Supervisor::tick_ready() {
  return kill_request_.load(std::memory_order_acquire) != FaultPlan::kNoPe ||
         transport_.pending(transport_.supervisor_endpoint());
}

std::uint64_t Supervisor::next_due_us() const {
  const std::uint64_t now = now_us();
  std::uint64_t due = now + hb_interval_us_;
  // As tick() fires it: a dead crash PE is waited for through its respawn.
  if (plan_.crashes() && !crash_fired_ && plan_.crash_pe < n_pes() && alive(plan_.crash_pe))
    due = std::min(due, plan_.crash_at);
  for (const Slot& s : slots_) {
    if (s.pid > 0) continue;
    if (s.respawn_at != 0)
      due = std::min(due, s.respawn_at);
    else if (s.breaker.tripped())
      due = std::min(due, s.breaker.half_open_at());
  }
  return due;
}

std::vector<pid_t> Supervisor::spawned_pids() const {
  std::lock_guard<std::mutex> lk(spawned_mu_);
  return spawned_;
}

// --- the worker's half --------------------------------------------------------

Supervisor::Worker::Worker(Supervisor& sup, std::uint32_t pe, pid_t parent)
    : sup_(sup), pe_(pe), incarnation_(sup.slots_[pe].incarnation), parent_(parent) {
  // A predecessor killed while parked left its mark on our doorbells.
  sup_.transport_.reset_doorbells(pe_);
  // Blocked on a full ring whose consumer is dead and awaiting respawn,
  // the worker must keep announcing its own liveness.
  sup_.transport_.set_backpressure_hook([this] { heartbeat(); });
}

void Supervisor::Worker::park(std::uint64_t max_us) {
  const std::uint64_t now = sup_.now_us();
  const std::uint64_t beat_in = next_beat_ > now ? next_beat_ - now : 0;
  ProcTransport& t = sup_.transport_;
  t.doorbell(pe_).park([&] { return t.pending(pe_); },
                       std::chrono::microseconds(std::min(max_us, beat_in)));
}

void Supervisor::Worker::heartbeat() {
  const std::uint64_t t = sup_.now_us();
  if (t < next_beat_) return;
  next_beat_ = t + sup_.hb_interval_us_;  // advance first: the send may re-enter
  // Orphaned: nobody will ever reap, replace or stop this worker.
  if (getppid() != parent_) std::_Exit(0);
  DataMsg h;
  h.kind = MsgKind::Heartbeat;
  if (payload_) payload_(h.packet.words);
  send(std::move(h));
}

bool Supervisor::Worker::current(const DataMsg& m) const {
  return m.src_pe != sup_.transport_.supervisor_endpoint() || m.epoch == incarnation_;
}

std::optional<DataMsg> Supervisor::Worker::poll() {
  while (std::optional<DataMsg> m = sup_.transport_.poll(pe_))
    if (current(*m)) return m;
  return std::nullopt;
}

void Supervisor::Worker::send(DataMsg m) {
  m.src_pe = pe_;
  sup_.transport_.send(sup_.transport_.supervisor_endpoint(), m);
}

}  // namespace ph::net
