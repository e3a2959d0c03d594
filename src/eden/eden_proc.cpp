#include "eden/eden_proc.hpp"

#include <algorithm>
#include <chrono>

namespace ph {
namespace {

constexpr std::uint64_t kTickUs = 500;             // supervisor park timeout
constexpr std::uint64_t kIdleParkCapUs = 1000;     // a child's longest idle park
constexpr std::uint64_t kQuietWindowUs = 1000000;  // all-idle window → deadlock
constexpr std::uint64_t kShutdownGraceUs = 1000000;

EdenSystem& proc_system(EdenSystem& sys) {
  if (sys.config().transport != EdenTransportKind::Proc)
    throw ProgramError("EdenProcDriver needs --eden-transport=proc; "
                       "thread-per-PE systems are driven by EdenThreadedDriver");
  return sys;
}

net::DataMsg ctrl(ProcCtrl op) {
  net::DataMsg c;
  c.kind = net::MsgKind::Ctrl;
  c.channel = static_cast<std::uint64_t>(op);
  return c;
}

}  // namespace

// A run unwinds on its first breaker trip, so the cooldown never matters.
EdenProcDriver::EdenProcDriver(EdenSystem& sys, TraceLog* trace, net::ProcWire wire,
                               std::size_t ring_bytes)
    : sys_(proc_system(sys)),
      trace_(trace),
      sup_(*this, sys.injector(), sys.n_pes(), wire, ring_bytes, 0) {}

void EdenProcDriver::note(std::uint32_t pe, const std::string& text) {
  if (trace_ != nullptr && pe < trace_->n_rows()) trace_->note(pe, sup_.now_us(), text);
}

void EdenProcDriver::on_spawn(std::uint32_t pe) {
  beats_[pe] = Beat{};
  if (sup_.incarnation(pe) == 0) return;
  // A respawn: every live worker learns the new incarnation vector and
  // replays its send log into the recomputing replacement, which aligned
  // its own channel epochs at fork.
  net::DataMsg c = ctrl(ProcCtrl::RestartNotify);
  c.packet.words.push_back(pe);
  for (std::uint32_t q = 0; q < sys_.n_pes(); ++q)
    c.packet.words.push_back(sup_.incarnation(q));
  for (std::uint32_t w = 0; w < sys_.n_pes(); ++w)
    if (w != pe && sup_.alive(w)) sup_.send(w, c);
  note(pe, "pe " + std::to_string(pe) + " respawned (incarnation " +
               std::to_string(sup_.incarnation(pe)) + ", pid " +
               std::to_string(sup_.pid(pe)) + ")");
}

void EdenProcDriver::on_kill(std::uint32_t pe) {
  note(pe, "pe " + std::to_string(pe) + " killed (fault plan)");
}

void EdenProcDriver::on_death(std::uint32_t pe, const char* how, bool tripped) {
  // The dead incarnation can no longer report final counters; its last
  // heartbeat snapshot is the best record of what it did.
  Beat& b = beats_[pe];
  result_.gc_count += b.gc;
  result_.heap_overflows += b.ovf;
  result_.faults.replayed += b.replayed;
  result_.faults.replay_us += b.replay_us;
  b = Beat{};
  if (tripped) {
    // Graceful degradation, not a hang: name the lost PE and unwind.
    const std::uint32_t budget = sys_.injector().plan().restart_max;
    throw RtsInternalError("pe " + std::to_string(pe) +
                               " lost: restart budget exhausted (" +
                               std::to_string(budget) + " respawns spent; last death: " +
                               how + ")",
                           kNoThread, "pe", static_cast<int>(pe), HeapCensus{});
  }
  note(pe, "pe " + std::to_string(pe) + " died (" + how + ")");
}

void EdenProcDriver::merge_stats(const Packet& p) {
  const auto& w = p.words;
  if (w.size() < 13) return;
  result_.messages += w[0];
  result_.bytes_sent += w[1];
  result_.crc_errors += w[2];
  result_.gc_count += w[3];
  result_.heap_overflows += w[4];
  result_.faults.retries += w[5];
  result_.faults.acks += w[6];
  result_.faults.dedup_dropped += w[7];
  result_.faults.replayed += w[8];
  result_.faults.replay_us += w[9];
  result_.faults.dropped += w[10];
  result_.faults.duplicated += w[11];
  result_.faults.delayed += w[12];
}

void EdenProcDriver::on_frame(net::DataMsg& m) {
  if (m.kind == net::MsgKind::Heartbeat) {
    const auto& w = m.packet.words;
    Beat& b = beats_[m.src_pe];
    b.seen = true;
    if (w.size() >= 7) {
      b.progress = w[0];
      b.idle = w[1] != 0;
      b.unacked = w[2];
      b.gc = w[3];
      b.ovf = w[4];
      b.replayed = w[5];
      b.replay_us = w[6];
    }
    return;
  }
  if (m.kind != net::MsgKind::Ctrl) return;
  switch (static_cast<ProcCtrl>(m.channel)) {
    case ProcCtrl::Done:
    case ProcCtrl::DoneNoValue:
      if (!finished_ && static_cast<ProcCtrl>(m.channel) == ProcCtrl::Done)
        result_packet_ = std::move(m.packet);
      finished_ = true;
      break;
    case ProcCtrl::Stats:
      merge_stats(m.packet);
      break;
    default:
      break;
  }
}

EdenRtResult EdenProcDriver::run(Tso* root) {
  root_ = root;
  sys_.attach_rt(&sup_.transport());
  beats_.assign(sys_.n_pes(), Beat{});
  finished_ = false;
  shutdown_requested_.store(false, std::memory_order_release);
  const auto t0 = std::chrono::steady_clock::now();

  try {
    sup_.start();
    while (!finished_) {
      // Graceful external stop (another thread, or a signal handler):
      // fall through to the farewell with the workers mid-computation —
      // they get Shutdown, ship Stats and _Exit(0).
      auto stop = [this] { return shutdown_requested_.load(std::memory_order_acquire); };
      if (stop()) break;
      // Woken by any worker frame but a heartbeat (Done ends the run at
      // once) and by request_shutdown(); otherwise one tick per kTickUs,
      // or sooner when a respawn or the plan's kill is due.
      const std::uint64_t t = sup_.now_us();
      const std::uint64_t due = sup_.next_due_us();
      sup_.doorbell().park([&] { return sup_.tick_ready() || stop(); },
                           std::chrono::microseconds(std::min(kTickUs, due > t ? due - t : 0)));
      sup_.tick();
      if (finished_) break;

      // Distributed-deadlock heuristic over the heartbeat payloads: every
      // worker alive, reporting idle with nothing unacked, and the total
      // progress count frozen for a full window. Coarser than the
      // threaded driver's freeze-and-verify (no supervisor can walk TSO
      // stacks in another address space), but it cannot false-positive on
      // a working system: any delivery or step moves a progress counter.
      const std::uint64_t now = sup_.now_us();
      bool quiet = true;
      std::uint64_t total_progress = 0;
      for (std::uint32_t pe = 0; pe < sys_.n_pes(); ++pe) {
        const Beat& b = beats_[pe];
        if (!sup_.alive(pe) || !b.seen || !b.idle || b.unacked != 0) quiet = false;
        total_progress += b.progress;
      }
      if (total_progress != last_total_progress_) {
        last_total_progress_ = total_progress;
        quiet = false;
      }
      if (!quiet) {
        quiet_since_ = now;
      } else if (now - quiet_since_ > kQuietWindowUs) {
        result_.deadlocked = true;
        result_.diagnosis.kind = DeadlockKind::Starvation;
        finished_ = true;
      }
    }
    sup_.shutdown(ctrl(ProcCtrl::Shutdown), kShutdownGraceUs);
  } catch (...) {
    sup_.kill_all();
    throw;
  }
  const auto t1 = std::chrono::steady_clock::now();

  result_.seconds = std::chrono::duration<double>(t1 - t0).count();
  const net::SupervisorStats& ss = sup_.stats();
  result_.faults.crashes += ss.kills;
  result_.faults.restarts += ss.respawns;
  result_.faults.detect_us += ss.detect_us;
  // The supervisor's own wire share (ctrl frames) on top of the workers'
  // Stats reports and the dead incarnations' heartbeat snapshots.
  const net::TransportStats& ts = sup_.transport().stats();
  result_.messages += ts.frames_sent.load(std::memory_order_relaxed);
  result_.bytes_sent += ts.bytes_sent.load(std::memory_order_relaxed);
  result_.crc_errors += ts.crc_errors.load(std::memory_order_relaxed);
  result_.faults.heap_overflows = result_.heap_overflows;
  if (result_packet_.has_value())
    result_.value = unpack_graph(sys_.pe(0), 0, *result_packet_);
  if (result_.deadlocked) note(0, result_.diagnosis.describe());
  return result_;
}

void EdenProcDriver::worker_main(net::Supervisor::Worker& w) {
  const std::uint32_t pi = w.pe();
  Tso* const root = root_;
  sys_.set_trace(nullptr);  // the timeline belongs to the supervisor
  Machine& m = sys_.pe(pi);
  Capability& c = m.cap(0);
  EdenSystem::RtPe& rp = *sys_.rt_.at(pi);

  std::uint64_t progress = 0, gc_count = 0, heap_overflows = 0;
  bool idle_now = false, shutdown = false, done_sent = false;

  w.set_heartbeat_payload([&](std::vector<Word>& p) {
    p = {progress,
         idle_now ? std::uint64_t{1} : std::uint64_t{0},
         rp.unacked.load(std::memory_order_relaxed),
         gc_count,
         heap_overflows,
         rp.fs.replayed,
         rp.fs.replay_us};
  });
  sys_.rt_ctrl_ = [&](const net::DataMsg& msg) {
    if (msg.kind != net::MsgKind::Ctrl || !w.current(msg)) return;
    switch (static_cast<ProcCtrl>(msg.channel)) {
      case ProcCtrl::Shutdown:
        shutdown = true;
        break;
      case ProcCtrl::RestartNotify: {
        const auto& words = msg.packet.words;
        if (words.size() < 1 + sys_.n_pes()) break;
        sys_.rt_restart_notify(pi, static_cast<std::uint32_t>(words[0]),
                               std::vector<std::uint64_t>(words.begin() + 1, words.end()));
        break;
      }
      default:
        break;
    }
  };
  // A fresh incarnation aligns its channel epochs before touching the
  // wire (no replay: restarted == self).
  std::vector<std::uint64_t> incarnations(sys_.n_pes());
  for (std::uint32_t q = 0; q < sys_.n_pes(); ++q) incarnations[q] = sup_.incarnation(q);
  sys_.rt_restart_notify(pi, pi, incarnations);

  auto send_done = [&] {
    net::DataMsg d = ctrl(ProcCtrl::Done);
    if (root->result == nullptr) {
      d.channel = static_cast<std::uint64_t>(ProcCtrl::DoneNoValue);
    } else {
      try {
        d.packet = pack_graph(root->result);
      } catch (const PackError&) {
        d.channel = static_cast<std::uint64_t>(ProcCtrl::DoneNoValue);
        d.packet = Packet{};
      }
    }
    w.send(std::move(d));
    done_sent = true;
  };

  // The scheduling loop is EdenThreadedDriver::pe_worker minus the
  // freeze machinery, plus heartbeats. One crucial difference: a worker
  // never finishes on its own — even with the root's result shipped it
  // keeps draining, acking and retransmitting for the survivors until
  // the supervisor says Shutdown (or is gone). A self-exiting worker
  // would be indistinguishable from a crash.
  Quantum q;
  auto collect = [&](bool major) {
    m.collect(major);
    gc_count++;
  };

  while (!shutdown) {
    w.heartbeat();
    if (sys_.rt_drain(pi)) progress++;
    if (shutdown) break;
    if (m.heap().gc_requested()) collect(false);

    if (q.active == nullptr) {
      Tso* t = m.schedule_next(c);  // start_time: EdenSimDriver's alone
      if (t == nullptr) {
        sys_.rt_service_retries(pi);
        idle_now = true;
        w.park(sys_.rt_idle_park_us(pi, kIdleParkCapUs));
        continue;
      }
      idle_now = false;
      t->state = ThreadState::Running;
      q.active = t;
    }

    Tso* const t = q.active;
    QuantumEnd end;
    for (;;) {
      end = m.run_quantum(c, q, root, kWallSliceSteps, QuantumHook{});
      if (end == QuantumEnd::NeedGc) {
        collect(q.force_major());
        continue;  // the failed step is retried
      }
      progress++;
      if (end != QuantumEnd::Slice) break;
      w.heartbeat();
      if (sys_.rt_drain(pi)) progress++;
    }
    if (end == QuantumEnd::Killed) heap_overflows++;
    // Root gone for good: report its value, or DoneNoValue when it was
    // killed (result stays null), so the run ends instead of wedging.
    if ((end == QuantumEnd::RootDone || (end == QuantumEnd::Killed && t == root)) &&
        !done_sent)
      send_done();
  }

  // Shutdown: final counters home; the supervisor's fork wrapper exits.
  const net::TransportStats& ts = sup_.transport().stats();
  net::DataMsg st = ctrl(ProcCtrl::Stats);
  st.packet.words = {ts.frames_sent.load(std::memory_order_relaxed),
                     ts.bytes_sent.load(std::memory_order_relaxed),
                     ts.crc_errors.load(std::memory_order_relaxed),
                     gc_count,
                     heap_overflows,
                     rp.fs.retries,
                     rp.fs.acks,
                     rp.fs.dedup_dropped,
                     rp.fs.replayed,
                     rp.fs.replay_us,
                     ts.dropped.load(std::memory_order_relaxed),
                     ts.duplicated.load(std::memory_order_relaxed),
                     ts.delayed.load(std::memory_order_relaxed)};
  w.send(std::move(st));
}

}  // namespace ph
