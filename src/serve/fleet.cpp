#include "serve/fleet.hpp"

#include <cstring>

namespace ph::serve {

namespace {

/// µs between control-plane polls inside the worker's cancel hook: how
/// stale a client Cancel can go unnoticed while a request computes.
constexpr std::uint64_t kWorkerNetPollUs = 200;

}  // namespace

ServeFleet::ServeFleet(const Program& prog, FleetConfig cfg)
    : prog_(prog),
      cfg_(std::move(cfg)),
      injector_(cfg_.fault),
      sup_(*this, injector_, cfg_.n_pes, cfg_.wire, cfg_.ring_bytes,
           cfg_.breaker_cooldown_us),
      slots_(cfg_.n_pes) {
  if (cfg_.n_pes == 0) throw std::runtime_error("ServeFleet: need >= 1 PE");
}

std::uint64_t ServeFleet::now_us() const { return sup_.now_us(); }

void ServeFleet::start() { sup_.start(); }

// Quarantine is the breaker's state (see pe_available), not a death event.
void ServeFleet::on_death(std::uint32_t pe, const char*, bool) {
  Slot& s = slots_[pe];
  if (s.inflight && events_ != nullptr) {
    // The request died with its PE; the daemon requeues it (idempotent
    // ids make the replay safe).
    events_->lost_ids.push_back(*s.inflight);
  }
  s.inflight.reset();
}

void ServeFleet::on_frame(net::DataMsg& m) {
  if (m.kind != net::MsgKind::Ctrl) return;
  if (static_cast<ServeOp>(m.channel) == ServeOp::WorkerStats) {
    const auto& w = m.packet.words;
    if (w.size() >= 2) {
      executed_ += static_cast<std::uint64_t>(w[0]);
      killed_ += static_cast<std::uint64_t>(w[1]);
    }
    return;
  }
  std::optional<ServeReply> r = decode_reply(m);
  if (!r) return;
  if (r->op != ServeOp::Result && r->op != ServeOp::Error) return;
  Slot& s = slots_[m.src_pe];
  if (s.inflight && *s.inflight == r->id) s.inflight.reset();
  // Any completed reply — even an error reply — proves the worker's
  // control loop healthy: a HalfOpen probe closes its breaker here.
  sup_.served_ok(m.src_pe);
  r->worker_pe = m.src_pe;
  if (events_ != nullptr) events_->replies.push_back(std::move(*r));
}

FleetEvents ServeFleet::tick() {
  FleetEvents ev;
  events_ = &ev;
  sup_.tick();
  events_ = nullptr;
  return ev;
}

bool ServeFleet::pe_available(std::uint32_t pe) const {
  if (pe >= slots_.size()) return false;
  return sup_.alive(pe) && !slots_[pe].inflight &&
         (!sup_.breaker(pe).tripped() || sup_.probing(pe));
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
  for (std::uint32_t pe = 0; pe < cfg_.n_pes; ++pe)
    if (!sup_.breaker(pe).tripped()) n++;
  return n;
}

void ServeFleet::submit(std::uint32_t pe, const ServeRequest& req,
                        std::uint64_t abs_deadline_us) {
  if (!sup_.alive(pe)) throw std::runtime_error("ServeFleet::submit: dead PE");
  ServeRequest wire_req = req;
  wire_req.deadline_us = abs_deadline_us;  // worker clocks are fleet-epoch µs
  sup_.send(pe, encode_submit(wire_req));
  slots_[pe].inflight = req.id;
  slots_[pe].last_dispatch = now_us();
}

void ServeFleet::cancel(std::uint32_t pe, std::uint64_t request_id) {
  if (pe >= slots_.size() || !sup_.alive(pe)) return;
  sup_.send(pe, encode_cancel(request_id));
}

void ServeFleet::drain(std::uint64_t grace_us) {
  // A busy worker finishes its in-flight request first, so the grace must
  // cover one deadline's worth of work.
  sup_.shutdown(encode_shutdown(), grace_us);
}

pid_t ServeFleet::pe_pid(std::uint32_t pe) const {
  return pe < slots_.size() ? sup_.pid(pe) : -1;
}

void ServeFleet::inject_kill(std::uint32_t pe) { sup_.inject_kill(pe); }

net::BreakerState ServeFleet::breaker_state(std::uint32_t pe) const {
  return sup_.breaker(pe).state(now_us());
}

FleetStats ServeFleet::stats() const {
  FleetStats s;
  static_cast<net::SupervisorStats&>(s) = sup_.stats();
  s.executed = executed_;
  s.killed = killed_;
  return s;
}

// --------------------------------------------------------------------------
// Worker process. Forked with the whole supervisor address space
// (copy-on-write); the supervisor's fork wrapper ends it with std::_Exit
// so no parent-owned destructor ever runs twice.
// --------------------------------------------------------------------------

void ServeFleet::worker_main(net::Supervisor::Worker& w) {
  if (cfg_.post_fork_child) cfg_.post_fork_child();
  const std::uint32_t pe = w.pe();
  std::uint64_t executed = 0, killed = 0;
  bool shutdown = false;
  bool cancel_current = false;
  std::uint64_t current_id = 0;  // 0 = idle (client ids start at 1)
  std::optional<ServeRequest> pending;

  auto reply_error = [&](std::uint64_t id, ServeError e, const std::string& text) {
    ServeReply r;
    r.op = ServeOp::Error;
    r.id = id;
    r.error = e;
    r.error_text = text;
    r.worker_pe = pe;
    w.send(encode_reply(r));
  };

  // Drains this worker's control frames. Runs from the idle loop AND
  // from inside Machine::step via the cancel hook — which is exactly
  // how a client Cancel or a drain Shutdown reaches a computation that
  // would otherwise run to completion first.
  auto pump_ctl = [&] {
    while (std::optional<net::DataMsg> m = w.poll()) {
      if (m->kind != net::MsgKind::Ctrl) continue;
      switch (static_cast<ServeOp>(m->channel)) {
        case ServeOp::Submit: {
          std::optional<ServeRequest> r = decode_submit(*m);
          if (!r) {
            reply_error(m->cseq, ServeError::BadRequest, "malformed submit frame");
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
          if (current_id != 0 && m->cseq == current_id) {
            cancel_current = true;
          } else if (pending && pending->id == m->cseq) {
            // Read in the same pass as its Submit: never started.
            killed++;
            reply_error(pending->id, ServeError::Cancelled, "cancelled by client");
            pending.reset();
          }
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
                  catalog_find(req.program) != nullptr ? ServeError::BadRequest
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
        w.heartbeat();
        pump_ctl();
      }
      if (cancel_current) return "cancelled by client";
      if (req.deadline_us != 0 && t >= req.deadline_us) return "deadline exceeded";
      return nullptr;
    });

    Capability& c = m.cap(0);
    Quantum q;
    const char* wedged = nullptr;
    for (bool done = false; !done;) {
      w.heartbeat();
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
    w.send(encode_reply(r));
  };

  // A worker never finishes on its own: even idle it keeps heartbeating
  // until the supervisor says Shutdown (or is gone) — a self-exiting
  // worker would be indistinguishable from a crash.
  while (!shutdown) {
    w.heartbeat();
    pump_ctl();
    if (shutdown && !pending) break;
    if (pending) {
      ServeRequest req = std::move(*pending);
      pending.reset();
      execute(req);
    } else {
      // Until a control frame rings this PE's doorbell or the next
      // heartbeat is due.
      w.park();
    }
  }

  // Final counters home; the supervisor's fork wrapper exits.
  w.send(encode_worker_stats(executed, killed));
}

}  // namespace ph::serve
