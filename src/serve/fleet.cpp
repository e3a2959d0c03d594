#include "serve/fleet.hpp"

#include <csignal>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <thread>

namespace ph::serve {

namespace {

// The supervision cadence is PR 6's (eden_proc.cpp): the same floors keep
// the two supervisors comparable in the chaos benchmarks.
constexpr std::uint64_t kMinHbIntervalUs = 2000;
constexpr std::uint64_t kMinHbTimeoutUs = 50000;
constexpr std::uint64_t kSpawnGraceUs = 200000;
constexpr std::uint64_t kBackoffBaseUs = 5000;
constexpr std::uint64_t kBackoffCapUs = 200000;
/// µs between control-plane polls inside the worker's cancel hook: how
/// stale a client Cancel can go unnoticed while a request computes.
constexpr std::uint64_t kWorkerNetPollUs = 200;

}  // namespace

ServeFleet::ServeFleet(const Program& prog, FleetConfig cfg)
    : prog_(prog), cfg_(std::move(cfg)), injector_(cfg_.fault) {
  if (cfg_.n_pes == 0) throw std::runtime_error("ServeFleet: need >= 1 PE");
  transport_ = std::make_unique<net::ProcTransport>(cfg_.n_pes, &injector_,
                                                    cfg_.wire, cfg_.ring_bytes);
  transport_->set_cross_process(true);
  breakers_.assign(cfg_.n_pes,
                   CircuitBreaker(cfg_.fault.restart_max,
                                  cfg_.breaker_cooldown_us));
  hb_interval_us_ = std::max<std::uint64_t>(cfg_.fault.heartbeat_interval,
                                            kMinHbIntervalUs);
  hb_timeout_us_ = std::max<std::uint64_t>(
      {cfg_.fault.heartbeat_timeout, kMinHbTimeoutUs, 4 * hb_interval_us_});
}

ServeFleet::~ServeFleet() {
  for (Slot& s : slots_) {
    if (s.pid <= 0) continue;
    kill(s.pid, SIGKILL);
    int st = 0;
    waitpid(s.pid, &st, 0);
    s.pid = -1;
  }
}

std::uint64_t ServeFleet::now_us() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

void ServeFleet::start() {
  // Every socket end stays open in the supervisor, so EPIPE cannot
  // happen; a SIGPIPE would still kill the daemon if a write raced a
  // worker's death.
  signal(SIGPIPE, SIG_IGN);
  transport_->start();
  slots_.assign(cfg_.n_pes, Slot{});
  epoch_ = std::chrono::steady_clock::now();
  for (std::uint32_t pe = 0; pe < cfg_.n_pes; ++pe) spawn(pe);
  started_ = true;
}

void ServeFleet::spawn(std::uint32_t pe) {
  Slot& s = slots_.at(pe);
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("ServeFleet: fork failed");
  if (pid == 0) {
    if (cfg_.post_fork_child) cfg_.post_fork_child();
    worker_main(pe);  // never returns
  }
  s.pid = pid;
  spawned_.push_back(pid);
  s.respawn_at = 0;
  s.last_beat = now_us() + kSpawnGraceUs;
  s.beat_seen = false;
  s.inflight.reset();
  if (s.deaths != 0) stats_.respawns++;
}

void ServeFleet::on_death(std::uint32_t pe, std::uint64_t now, const char* how,
                          FleetEvents& ev) {
  (void)how;
  Slot& s = slots_.at(pe);
  s.pid = -1;
  s.deaths++;
  stats_.deaths++;
  if (s.inflight) {
    // The request died with its PE; the daemon requeues it (idempotent
    // ids make the replay safe).
    ev.lost_ids.push_back(*s.inflight);
    s.inflight.reset();
  }
  const bool was_tripped = breakers_[pe].tripped();
  const bool tripped = breakers_[pe].on_death(now);
  s.probe = false;
  if (tripped) {
    // Budget exhausted (or a HalfOpen probe died): quarantine — no
    // respawn scheduled, placement shrinks around the PE. This is the
    // daemon's replacement for PR 6's RtsInternalError throw.
    s.respawn_at = 0;
    if (!was_tripped) stats_.quarantines++;
  } else {
    const std::uint64_t backoff = std::min<std::uint64_t>(
        kBackoffBaseUs << std::min<std::uint64_t>(s.deaths - 1, 10),
        kBackoffCapUs);
    s.respawn_at = now + backoff;
  }
}

void ServeFleet::drain_frames(std::uint64_t now, FleetEvents* ev) {
  const std::uint32_t super = transport_->supervisor_endpoint();
  while (std::optional<net::DataMsg> m = transport_->poll(super)) {
    if (m->kind == net::MsgKind::Heartbeat) {
      if (m->src_pe >= slots_.size()) continue;
      Slot& s = slots_[m->src_pe];
      s.last_beat = now;
      s.beat_seen = true;
      continue;
    }
    if (m->kind != net::MsgKind::Ctrl) continue;
    if (static_cast<ServeOp>(m->channel) == ServeOp::WorkerStats) {
      const auto& w = m->packet.words;
      if (w.size() >= 2) {
        stats_.executed += static_cast<std::uint64_t>(w[0]);
        stats_.killed += static_cast<std::uint64_t>(w[1]);
      }
      continue;
    }
    std::optional<ServeReply> r = decode_reply(*m);
    if (!r) continue;
    if (r->op != ServeOp::Result && r->op != ServeOp::Error) continue;
    if (m->src_pe < slots_.size()) {
      Slot& s = slots_[m->src_pe];
      if (s.inflight && *s.inflight == r->id) s.inflight.reset();
      // Any completed reply — even an error reply — proves the worker's
      // control loop healthy: a HalfOpen probe closes its breaker here.
      breakers_[m->src_pe].on_served_ok(now);
      s.probe = false;
      r->worker_pe = m->src_pe;
    }
    if (ev != nullptr) ev->replies.push_back(*r);
  }
}

void ServeFleet::reap_and_detect(std::uint64_t now, FleetEvents& ev) {
  // Death detection #1: reap. A SIGKILLed worker surfaces here.
  for (std::uint32_t pe = 0; pe < cfg_.n_pes; ++pe) {
    Slot& s = slots_[pe];
    if (s.pid <= 0) continue;
    int st = 0;
    if (waitpid(s.pid, &st, WNOHANG) == s.pid) on_death(pe, now, "reaped", ev);
  }
  // Death detection #2: heartbeat silence (a wedged worker is killed for
  // real first, then treated like any other casualty).
  for (std::uint32_t pe = 0; pe < cfg_.n_pes; ++pe) {
    Slot& s = slots_[pe];
    if (s.pid <= 0 || now <= s.last_beat || now - s.last_beat <= hb_timeout_us_)
      continue;
    kill(s.pid, SIGKILL);
    int st = 0;
    waitpid(s.pid, &st, 0);
    on_death(pe, now, "heartbeat silence", ev);
  }
}

FleetEvents ServeFleet::tick() {
  FleetEvents ev;
  if (!started_) return ev;
  std::uint64_t now = now_us();

  // The fault plan's -Fc entry, executed for real, plus any test-injected
  // kill: one SIGKILL, delivered mid-traffic.
  const FaultPlan& plan = injector_.plan();
  if (plan.crashes() && !chaos_fired_ && plan.crash_pe < cfg_.n_pes &&
      now >= plan.crash_at && slots_[plan.crash_pe].pid > 0) {
    kill(slots_[plan.crash_pe].pid, SIGKILL);
    chaos_fired_ = true;
    stats_.chaos_kills++;
  }
  const std::int32_t kr = kill_request_.exchange(-1, std::memory_order_acq_rel);
  if (kr >= 0 && static_cast<std::uint32_t>(kr) < cfg_.n_pes &&
      slots_[static_cast<std::uint32_t>(kr)].pid > 0) {
    kill(slots_[static_cast<std::uint32_t>(kr)].pid, SIGKILL);
    stats_.chaos_kills++;
  }

  drain_frames(now, &ev);
  reap_and_detect(now, ev);

  // Due respawns (exponential backoff set by on_death).
  now = now_us();
  for (std::uint32_t pe = 0; pe < cfg_.n_pes; ++pe) {
    Slot& s = slots_[pe];
    if (s.pid > 0 || s.respawn_at == 0 || now < s.respawn_at) continue;
    spawn(pe);
  }

  // Quarantined PEs whose breaker cooled down to HalfOpen get one probe
  // incarnation; serving a request closes the breaker, dying re-opens it.
  for (std::uint32_t pe = 0; pe < cfg_.n_pes; ++pe) {
    Slot& s = slots_[pe];
    if (s.pid > 0 || s.respawn_at != 0 || !breakers_[pe].tripped()) continue;
    if (breakers_[pe].state(now) != BreakerState::HalfOpen) continue;
    spawn(pe);
    s.probe = true;
    stats_.probes++;
  }
  return ev;
}

bool ServeFleet::pe_available(std::uint32_t pe) const {
  if (!started_ || pe >= slots_.size()) return false;
  const Slot& s = slots_[pe];
  return s.pid > 0 && !s.inflight &&
         (!breakers_[pe].tripped() || s.probe);
}

std::optional<std::uint32_t> ServeFleet::pick_worker() const {
  std::optional<std::uint32_t> best;
  for (std::uint32_t pe = 0; pe < slots_.size(); ++pe) {
    if (!pe_available(pe)) continue;
    if (!best || slots_[pe].last_dispatch < slots_[*best].last_dispatch)
      best = pe;
  }
  return best;
}

std::uint32_t ServeFleet::healthy_workers() const {
  std::uint32_t n = 0;
  for (std::uint32_t pe = 0; pe < breakers_.size(); ++pe)
    if (!breakers_[pe].tripped()) n++;
  return n;
}

void ServeFleet::submit(std::uint32_t pe, const ServeRequest& req,
                        std::uint64_t abs_deadline_us) {
  Slot& s = slots_.at(pe);
  if (s.pid <= 0) throw std::runtime_error("ServeFleet::submit: dead PE");
  ServeRequest wire_req = req;
  wire_req.deadline_us = abs_deadline_us;  // worker clocks are fleet-epoch µs
  net::DataMsg m = encode_submit(wire_req);
  m.src_pe = transport_->supervisor_endpoint();
  m.epoch = s.deaths;  // the incarnation it is meant for
  transport_->send(pe, m);
  s.inflight = req.id;
  s.last_dispatch = now_us();
}

void ServeFleet::cancel(std::uint32_t pe, std::uint64_t request_id) {
  if (pe >= slots_.size() || slots_[pe].pid <= 0) return;
  net::DataMsg m = encode_cancel(request_id);
  m.src_pe = transport_->supervisor_endpoint();
  m.epoch = slots_[pe].deaths;
  transport_->send(pe, m);
}

void ServeFleet::drain(std::uint64_t grace_us) {
  if (!started_) return;
  net::DataMsg sd = encode_shutdown();
  sd.src_pe = transport_->supervisor_endpoint();
  for (std::uint32_t pe = 0; pe < cfg_.n_pes; ++pe)
    if (slots_[pe].pid > 0) transport_->send(pe, sd);
  // Bounded farewell: a busy worker finishes its in-flight request first,
  // so the grace must cover one deadline's worth of work; a wedged worker
  // must not wedge the drain.
  const std::uint64_t deadline = now_us() + grace_us;
  for (;;) {
    bool any_live = false;
    for (std::uint32_t pe = 0; pe < cfg_.n_pes; ++pe) {
      Slot& s = slots_[pe];
      if (s.pid <= 0) continue;
      int st = 0;
      if (waitpid(s.pid, &st, WNOHANG) == s.pid)
        s.pid = -1;
      else
        any_live = true;
    }
    drain_frames(now_us(), nullptr);
    if (!any_live || now_us() > deadline) break;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  for (Slot& s : slots_) {
    if (s.pid <= 0) continue;
    kill(s.pid, SIGKILL);
    int st = 0;
    waitpid(s.pid, &st, 0);
    s.pid = -1;
  }
  transport_->stop();
  started_ = false;
}

pid_t ServeFleet::pe_pid(std::uint32_t pe) const {
  return pe < slots_.size() ? slots_[pe].pid : -1;
}

void ServeFleet::inject_kill(std::uint32_t pe) {
  kill_request_.store(static_cast<std::int32_t>(pe), std::memory_order_release);
}

BreakerState ServeFleet::breaker_state(std::uint32_t pe) const {
  return breakers_.at(pe).state(now_us());
}

std::vector<pid_t> ServeFleet::spawned_pids() const { return spawned_; }

// --------------------------------------------------------------------------
// Worker process. Forked with the whole supervisor address space
// (copy-on-write); exits only via std::_Exit so no parent-owned
// destructor ever runs twice.
// --------------------------------------------------------------------------

void ServeFleet::worker_main(std::uint32_t pe) {
  try {
    net::ProcTransport& tp = *transport_;
    const std::uint32_t super = tp.supervisor_endpoint();
    // This incarnation: Submit and Cancel frames are stamped with the one
    // they were sent to, and the supervisor->PE ring outlives a dead
    // predecessor, so frames stamped for another incarnation are dropped.
    const std::uint64_t incarnation = slots_.at(pe).deaths;
    std::uint64_t progress = 0, executed = 0, killed = 0;
    bool idle_now = true;
    bool shutdown = false;
    bool cancel_current = false;
    std::uint64_t current_id = 0;  // 0 = idle (client ids start at 1)
    std::uint64_t next_hb = 0;
    std::optional<ServeRequest> pending;

    auto send_hb = [&] {
      net::DataMsg h;
      h.kind = net::MsgKind::Heartbeat;
      h.src_pe = pe;
      h.packet.words = {static_cast<Word>(progress),
                        static_cast<Word>(idle_now ? 1 : 0),
                        static_cast<Word>(current_id),
                        static_cast<Word>(executed)};
      tp.send(super, h);
    };
    auto maybe_hb = [&] {
      const std::uint64_t t = now_us();
      if (t >= next_hb) {
        next_hb = t + hb_interval_us_;  // advance first: send may re-enter
        send_hb();
      }
    };
    // Blocked on a full ring whose consumer is slow, the worker must keep
    // announcing its own liveness.
    tp.set_backpressure_hook([&] { maybe_hb(); });

    auto reply_error = [&](std::uint64_t id, ServeError e,
                           const std::string& text) {
      ServeReply r;
      r.op = ServeOp::Error;
      r.id = id;
      r.error = e;
      r.error_text = text;
      r.worker_pe = pe;
      net::DataMsg m = encode_reply(r);
      m.src_pe = pe;
      tp.send(super, m);
    };

    // Drains this worker's control frames. Runs from the idle loop AND
    // from inside Machine::step via the cancel hook — which is exactly
    // how a client Cancel or a drain Shutdown reaches a computation that
    // would otherwise run to completion first.
    auto pump_ctl = [&] {
      while (std::optional<net::DataMsg> m = tp.poll(pe)) {
        if (m->kind != net::MsgKind::Ctrl) continue;
        const auto op = static_cast<ServeOp>(m->channel);
        if ((op == ServeOp::Submit || op == ServeOp::Cancel) &&
            m->epoch != incarnation)
          continue;
        switch (op) {
          case ServeOp::Submit: {
            std::optional<ServeRequest> r = decode_submit(*m);
            if (!r) {
              reply_error(m->cseq, ServeError::BadRequest,
                          "malformed submit frame");
            } else if (pending || current_id != 0) {
              // The dispatcher keeps one request per worker; a second
              // submit means supervisor state desynced — refuse loudly.
              reply_error(r->id, ServeError::Internal, "worker busy");
            } else {
              pending = std::move(r);
            }
            break;
          }
          case ServeOp::Cancel:
            if (current_id != 0 && m->cseq == current_id)
              cancel_current = true;
            break;
          case ServeOp::Shutdown:
            shutdown = true;  // finish the in-flight request, then exit
            break;
          default:
            break;
        }
      }
    };

    auto execute = [&](const ServeRequest& req) {
      const std::uint64_t t_start = now_us();
      current_id = req.id;
      cancel_current = false;
      // Request isolation: a fresh Machine per request — a heap blown or
      // a graph corrupted by one evaluation cannot poison the next.
      Machine m(prog_, cfg_.worker_rts);
      Tso* root = nullptr;
      try {
        root = catalog_spawn(m, prog_, req.program, req.params);
      } catch (const CatalogError& e) {
        current_id = 0;
        reply_error(req.id,
                    catalog_find(req.program) != nullptr
                        ? ServeError::BadRequest
                        : ServeError::UnknownProgram,
                    e.what());
        return;
      }
      // The cooperative cancellation poll: deadline and control plane
      // checked alongside the heartbeat tick, from inside step().
      std::uint64_t next_net = 0;
      m.set_cancel_hook([&](const Tso&) -> const char* {
        const std::uint64_t t = now_us();
        if (t >= next_net) {
          next_net = t + kWorkerNetPollUs;
          maybe_hb();
          pump_ctl();
        }
        if (cancel_current) return "cancelled by client";
        if (req.deadline_us != 0 && t >= req.deadline_us)
          return "deadline exceeded";
        return nullptr;
      });

      Capability& c = m.cap(0);
      Quantum q;
      const char* wedged = nullptr;
      for (bool done = false; !done;) {
        maybe_hb();
        if (m.heap().gc_requested()) m.collect(false);
        if (q.active == nullptr) {
          q.active = m.schedule_next(c);
          if (q.active == nullptr) {
            if (root->state == ThreadState::Finished) break;
            if (!m.work_anywhere()) {
              wedged = "request wedged: no runnable work";
              break;
            }
            continue;
          }
          q.active->state = ThreadState::Running;
        }
        Tso* const t = q.active;
        switch (m.run_quantum(c, q, root, m.config().quantum_steps, QuantumHook{})) {
          case QuantumEnd::NeedGc:
            m.collect(q.force_major());
            continue;  // the failed step is retried
          case QuantumEnd::Killed:
            killed++;
            // A helper OOMing means the request as a whole cannot fit:
            // the root retrying the restored thunk would just OOM too.
            if (t != root) m.kill_thread(c, *root, "heap overflow");
            done = true;
            break;
          case QuantumEnd::RootDone:
            done = true;
            break;
          case QuantumEnd::Released:
            if (t->error != nullptr) {
              // A killed helper (deadline/cancel landed on a spark thread):
              // propagate to the root so the request dies promptly instead
              // of re-evaluating the restored thunks.
              m.kill_thread(c, *root, t->error);
              killed++;
              done = true;
            }
            break;
          case QuantumEnd::Slice:
          case QuantumEnd::Expired:
            break;
        }
        progress++;
      }
      m.set_cancel_hook({});
      current_id = 0;
      const std::uint64_t exec_us = now_us() - t_start;
      if (wedged != nullptr) {
        reply_error(req.id, ServeError::Internal, wedged);
        return;
      }
      if (root->error != nullptr) {
        ServeError e = ServeError::Internal;
        if (std::strcmp(root->error, "deadline exceeded") == 0)
          e = ServeError::DeadlineExceeded;
        else if (std::strcmp(root->error, "cancelled by client") == 0)
          e = ServeError::Cancelled;
        killed++;
        reply_error(req.id, e, root->error);
        return;
      }
      std::int64_t value = 0;
      try {
        value = catalog_read_result(req.program, root->result);
      } catch (const std::exception& e) {
        reply_error(req.id, ServeError::Internal, e.what());
        return;
      }
      executed++;
      ServeReply r;
      r.op = ServeOp::Result;
      r.id = req.id;
      r.value = value;
      r.exec_us = exec_us;
      r.worker_pe = pe;
      net::DataMsg dm = encode_reply(r);
      dm.src_pe = pe;
      tp.send(super, dm);
    };

    // A worker never exits on its own: even idle it keeps heartbeating
    // until the supervisor says Shutdown — a self-exiting worker would be
    // indistinguishable from a crash.
    while (!shutdown) {
      maybe_hb();
      pump_ctl();
      if (shutdown && !pending) break;
      if (pending) {
        ServeRequest req = std::move(*pending);
        pending.reset();
        idle_now = false;
        execute(req);
        idle_now = true;
        progress++;
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }

    // Final counters home, then vanish without running any parent-owned
    // destructor (we share its whole address-space layout).
    net::DataMsg st = encode_worker_stats(executed, killed);
    st.src_pe = pe;
    tp.send(super, st);
    std::_Exit(0);
  } catch (...) {
    // Any escape (internal error, heap corruption after a torn state) is
    // a crash as far as supervision is concerned.
    std::_Exit(3);
  }
}

}  // namespace ph::serve
