#include "eden/eden_proc.hpp"

#include <csignal>
#include <cstdlib>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>

namespace ph {
namespace {

constexpr std::uint64_t kTickUs = 500;             // supervisor loop period
constexpr std::uint64_t kMinHbIntervalUs = 2000;   // floor on worker heartbeats
constexpr std::uint64_t kMinHbTimeoutUs = 50000;   // floor on silence → death
constexpr std::uint64_t kSpawnGraceUs = 200000;    // silence credit for a fresh fork
constexpr std::uint64_t kBackoffBaseUs = 5000;     // first respawn delay
constexpr std::uint64_t kBackoffCapUs = 200000;    // respawn delay ceiling
constexpr std::uint64_t kQuietWindowUs = 1000000;  // all-idle window → deadlock
constexpr std::uint64_t kShutdownGraceUs = 1000000;

}  // namespace

EdenProcDriver::EdenProcDriver(EdenSystem& sys, TraceLog* trace, net::ProcWire wire,
                               std::size_t ring_bytes)
    : sys_(sys), trace_(trace) {
  if (sys_.config().transport != EdenTransportKind::Proc)
    throw ProgramError("EdenProcDriver needs --eden-transport=proc; "
                       "thread-per-PE systems are driven by EdenThreadedDriver");
  transport_ = std::make_unique<net::ProcTransport>(sys_.n_pes(), &sys_.injector(),
                                                    wire, ring_bytes);
  transport_->set_cross_process(true);
}

EdenProcDriver::~EdenProcDriver() { kill_all(); }

void EdenProcDriver::note(std::uint32_t pe, std::uint64_t t, const std::string& text) {
  if (trace_ != nullptr && pe < trace_->n_rows()) trace_->note(pe, t, text);
}

void EdenProcDriver::kill_all() {
  for (PeSlot& s : slots_) {
    if (s.pid <= 0) continue;
    kill(s.pid, SIGKILL);
    int st = 0;
    waitpid(s.pid, &st, 0);
    s.pid = -1;
  }
}

void EdenProcDriver::spawn(std::uint32_t pe, Tso* root, std::uint64_t now) {
  PeSlot& s = slots_.at(pe);
  // The incarnation count must be in place before fork(): the child reads
  // it (copy-on-write) to align its channel epochs on startup.
  incarn_.at(pe) = s.deaths;
  const pid_t pid = fork();
  if (pid < 0) {
    kill_all();
    throw std::runtime_error("EdenProcDriver: fork failed");
  }
  if (pid == 0) child_main(pe, root);  // never returns
  {
    std::lock_guard<std::mutex> lk(spawned_mu_);
    spawned_.push_back(pid);
  }
  s.pid = pid;
  s.respawn_at = 0;
  s.last_beat = now + kSpawnGraceUs;
  s.beat_seen = false;
  s.idle = false;
  s.unacked = 0;
  s.progress = 0;
  s.hb_gc = s.hb_ovf = s.hb_replayed = s.hb_replay_us = 0;
  if (s.deaths != 0) {
    // A respawn: every worker learns the new incarnation vector. The
    // fresh worker's own notify is a no-op (it aligned at fork);
    // survivors bump the dead PE's channel epochs and replay their send
    // logs into the recomputing replacement.
    net::DataMsg c;
    c.kind = net::MsgKind::Ctrl;
    c.channel = static_cast<std::uint64_t>(ProcCtrl::RestartNotify);
    c.src_pe = transport_->supervisor_endpoint();
    c.packet.words.push_back(pe);
    for (std::uint64_t e : incarn_) c.packet.words.push_back(e);
    for (std::uint32_t w = 0; w < sys_.n_pes(); ++w) transport_->send(w, c);
    result_.faults.restarts++;
    note(pe, now, "pe " + std::to_string(pe) + " respawned (incarnation " +
                      std::to_string(s.deaths) + ", pid " + std::to_string(pid) + ")");
  }
}

void EdenProcDriver::on_death(std::uint32_t pe, std::uint64_t now, const char* how) {
  PeSlot& s = slots_.at(pe);
  s.pid = -1;
  s.deaths++;
  s.idle = false;
  s.unacked = 0;
  // The dead incarnation can no longer report final counters; its last
  // heartbeat snapshot is the best record of what it did.
  result_.gc_count += s.hb_gc;
  result_.heap_overflows += s.hb_ovf;
  result_.faults.replayed += s.hb_replayed;
  result_.faults.replay_us += s.hb_replay_us;
  s.hb_gc = s.hb_ovf = s.hb_replayed = s.hb_replay_us = 0;
  if (crash_fired_ && !detect_recorded_ &&
      pe == sys_.injector().plan().crash_pe) {
    // A corpse reaped in the tick that fired the kill shares its `now`
    // timestamp: clamp so "detected within clock resolution" is still
    // distinguishable from "never detected" (detect_us == 0).
    result_.faults.detect_us += std::max<std::uint64_t>(1, now - crash_kill_us_);
    detect_recorded_ = true;
  }
  const std::uint32_t budget = sys_.injector().plan().restart_max;
  if (s.deaths > budget) {
    // Graceful degradation, not a hang: name the lost PE and unwind.
    kill_all();
    throw RtsInternalError("pe " + std::to_string(pe) +
                               " lost: restart budget exhausted (" +
                               std::to_string(budget) + " respawns spent; last death: " +
                               how + ")",
                           kNoThread, "pe", static_cast<int>(pe), HeapCensus{});
  }
  const std::uint64_t backoff = std::min<std::uint64_t>(
      kBackoffBaseUs << std::min<std::uint32_t>(s.deaths - 1, 10), kBackoffCapUs);
  s.respawn_at = now + backoff;
  note(pe, now, "pe " + std::to_string(pe) + " died (" + how + "); respawn in " +
                    std::to_string(backoff) + "us");
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

void EdenProcDriver::drain_supervisor(std::uint64_t now) {
  const std::uint32_t super = transport_->supervisor_endpoint();
  while (std::optional<net::DataMsg> m = transport_->poll(super)) {
    if (m->kind == net::MsgKind::Heartbeat) {
      if (m->src_pe >= slots_.size()) continue;
      PeSlot& s = slots_[m->src_pe];
      s.last_beat = now;
      s.beat_seen = true;
      const auto& w = m->packet.words;
      if (w.size() >= 7) {
        s.progress = w[0];
        s.idle = w[1] != 0;
        s.unacked = w[2];
        s.hb_gc = w[3];
        s.hb_ovf = w[4];
        s.hb_replayed = w[5];
        s.hb_replay_us = w[6];
      }
      continue;
    }
    if (m->kind != net::MsgKind::Ctrl) continue;
    switch (static_cast<ProcCtrl>(m->channel)) {
      case ProcCtrl::Done:
        if (!finished_) {
          result_packet_ = m->packet;
          finished_ = true;
        }
        break;
      case ProcCtrl::DoneNoValue:
        if (!finished_) {
          result_packet_.reset();
          finished_ = true;
        }
        break;
      case ProcCtrl::Stats:
        merge_stats(m->packet);
        break;
      default:
        break;
    }
  }
}

void EdenProcDriver::shutdown_children() {
  const std::uint32_t super = transport_->supervisor_endpoint();
  net::DataMsg c;
  c.kind = net::MsgKind::Ctrl;
  c.channel = static_cast<std::uint64_t>(ProcCtrl::Shutdown);
  c.src_pe = super;
  for (std::uint32_t pe = 0; pe < sys_.n_pes(); ++pe)
    if (slots_[pe].pid > 0) transport_->send(pe, c);
  // Bounded farewell: collect Stats frames and exits, but a worker wedged
  // in teardown must not wedge a run that already has its answer.
  const std::uint64_t deadline = sys_.rt_now() + kShutdownGraceUs;
  for (;;) {
    bool any_live = false;
    for (std::uint32_t pe = 0; pe < sys_.n_pes(); ++pe) {
      PeSlot& s = slots_[pe];
      if (s.pid <= 0) continue;
      int st = 0;
      if (waitpid(s.pid, &st, WNOHANG) == s.pid)
        s.pid = -1;
      else
        any_live = true;
    }
    drain_supervisor(sys_.rt_now());
    if (!any_live || sys_.rt_now() > deadline) break;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  transport_->stop();  // releases any sender still spinning on a full ring
  kill_all();
}

EdenRtResult EdenProcDriver::run(Tso* root) {
  const std::uint32_t n = sys_.n_pes();
  const FaultPlan& plan = sys_.injector().plan();
  // All socket ends stay open in the parent, so EPIPE cannot happen; a
  // SIGPIPE would still kill the supervisor if a write raced a teardown.
  signal(SIGPIPE, SIG_IGN);
  transport_->start();
  sys_.attach_rt(transport_.get());
  slots_.assign(n, PeSlot{});
  incarn_.assign(n, 0);
  finished_ = false;
  shutdown_requested_.store(false, std::memory_order_release);
  const std::uint64_t hb_ivl = std::max<std::uint64_t>(plan.heartbeat_interval,
                                                       kMinHbIntervalUs);
  const std::uint64_t hb_timeout = std::max<std::uint64_t>(
      {plan.heartbeat_timeout, kMinHbTimeoutUs, 4 * hb_ivl});
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint32_t pe = 0; pe < n; ++pe) spawn(pe, root, sys_.rt_now());

  try {
    while (!finished_) {
      // Graceful external stop (another thread, or a signal handler):
      // fall through to shutdown_children() with the workers mid-
      // computation — they get Shutdown, ship Stats and _Exit(0).
      if (shutdown_requested_.load(std::memory_order_acquire)) break;
      std::this_thread::sleep_for(std::chrono::microseconds(kTickUs));
      std::uint64_t now = sys_.rt_now();
      drain_supervisor(now);
      if (finished_) break;

      // The fault plan's crash entry, executed for real: one SIGKILL at
      // its wall-clock offset (1 virtual cycle = 1µs, as everywhere).
      if (plan.crashes() && !crash_fired_ && plan.crash_pe < n &&
          now >= plan.crash_at && slots_[plan.crash_pe].pid > 0) {
        kill(slots_[plan.crash_pe].pid, crash_signal_);
        crash_fired_ = true;
        crash_kill_us_ = now;
        result_.faults.crashes++;
        note(plan.crash_pe, now,
             "pe " + std::to_string(plan.crash_pe) + " killed (SIGKILL, fault plan)");
      }

      // Death detection #1: reap. A SIGKILLed worker surfaces here.
      for (std::uint32_t pe = 0; pe < n; ++pe) {
        PeSlot& s = slots_[pe];
        if (s.pid <= 0) continue;
        int st = 0;
        if (waitpid(s.pid, &st, WNOHANG) == s.pid) on_death(pe, now, "reaped");
      }

      // Death detection #2: heartbeat silence. A wedged worker (stopped,
      // livelocked, spinning in a corrupted state) is killed for real
      // first, then replaced like any other casualty.
      now = sys_.rt_now();
      for (std::uint32_t pe = 0; pe < n; ++pe) {
        PeSlot& s = slots_[pe];
        if (s.pid <= 0 || now <= s.last_beat || now - s.last_beat <= hb_timeout)
          continue;
        kill(s.pid, SIGKILL);
        int st = 0;
        waitpid(s.pid, &st, 0);
        on_death(pe, now, "heartbeat silence");
      }

      // Due respawns (exponential backoff set by on_death).
      now = sys_.rt_now();
      for (std::uint32_t pe = 0; pe < n; ++pe) {
        PeSlot& s = slots_[pe];
        if (s.pid > 0 || s.respawn_at == 0 || now < s.respawn_at) continue;
        spawn(pe, root, now);
      }

      // Distributed-deadlock heuristic over the heartbeat payloads: every
      // worker alive, reporting idle with nothing unacked, and the total
      // progress count frozen for a full window. Coarser than the
      // threaded driver's freeze-and-verify (no supervisor can walk TSO
      // stacks in another address space), but it cannot false-positive on
      // a working system: any delivery or step moves a progress counter.
      now = sys_.rt_now();
      bool quiet = true;
      std::uint64_t total_progress = 0;
      for (const PeSlot& s : slots_) {
        if (s.pid <= 0 || !s.beat_seen || !s.idle || s.unacked != 0) quiet = false;
        total_progress += s.progress;
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
    shutdown_children();
  } catch (...) {
    kill_all();
    throw;
  }
  const auto t1 = std::chrono::steady_clock::now();

  result_.seconds = std::chrono::duration<double>(t1 - t0).count();
  // The supervisor's own wire share (ctrl frames) on top of the workers'
  // Stats reports and the dead incarnations' heartbeat snapshots.
  const net::TransportStats& ts = transport_->stats();
  result_.messages += ts.frames_sent.load(std::memory_order_relaxed);
  result_.bytes_sent += ts.bytes_sent.load(std::memory_order_relaxed);
  result_.crc_errors += ts.crc_errors.load(std::memory_order_relaxed);
  result_.faults.heap_overflows = result_.heap_overflows;
  if (result_packet_.has_value())
    result_.value = unpack_graph(sys_.pe(0), 0, *result_packet_);
  if (result_.deadlocked)
    note(0, sys_.rt_now(), result_.diagnosis.describe());
  return result_;
}

void EdenProcDriver::child_main(std::uint32_t pi, Tso* root) {
  try {
    net::ProcTransport& tp = *transport_;
    const std::uint32_t super = tp.supervisor_endpoint();
    sys_.set_trace(nullptr);  // the timeline belongs to the supervisor
    Machine& m = sys_.pe(pi);
    Capability& c = m.cap(0);
    const FaultPlan& plan = sys_.injector().plan();
    EdenSystem::RtPe& rp = *sys_.rt_.at(pi);
    const std::uint64_t hb_ivl = std::max<std::uint64_t>(plan.heartbeat_interval,
                                                         kMinHbIntervalUs);

    std::uint64_t progress = 0, gc_count = 0, heap_overflows = 0;
    bool idle_now = false, shutdown = false, done_sent = false;
    std::uint64_t next_hb = 0;

    auto now_us = [this] { return sys_.rt_now(); };
    auto send_hb = [&] {
      net::DataMsg h;
      h.kind = net::MsgKind::Heartbeat;
      h.src_pe = pi;
      h.packet.words = {progress,
                        idle_now ? std::uint64_t{1} : std::uint64_t{0},
                        rp.unacked.load(std::memory_order_relaxed),
                        gc_count,
                        heap_overflows,
                        rp.fs.replayed,
                        rp.fs.replay_us};
      tp.send(super, h);
    };
    auto maybe_hb = [&] {
      const std::uint64_t t = now_us();
      if (t >= next_hb) {
        next_hb = t + hb_ivl;  // advance first: send may re-enter via the hook
        send_hb();
      }
    };
    // Blocked on a full ring whose consumer is dead and awaiting respawn,
    // this worker must keep announcing its own liveness.
    tp.set_backpressure_hook([&] { maybe_hb(); });
    sys_.rt_ctrl_ = [&](const net::DataMsg& msg) {
      if (msg.kind != net::MsgKind::Ctrl) return;
      switch (static_cast<ProcCtrl>(msg.channel)) {
        case ProcCtrl::Shutdown:
          shutdown = true;
          break;
        case ProcCtrl::RestartNotify: {
          const auto& w = msg.packet.words;
          if (w.size() < 1 + sys_.n_pes()) break;
          sys_.rt_restart_notify(pi, static_cast<std::uint32_t>(w[0]),
                                 std::vector<std::uint64_t>(w.begin() + 1, w.end()));
          break;
        }
        default:
          break;
      }
    };
    // A fresh incarnation aligns its channel epochs before touching the
    // wire (no replay: restarted == self).
    sys_.rt_restart_notify(pi, pi, incarn_);

    auto send_done = [&] {
      net::DataMsg d;
      d.kind = net::MsgKind::Ctrl;
      d.src_pe = pi;
      d.channel = static_cast<std::uint64_t>(ProcCtrl::Done);
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
      tp.send(super, d);
      done_sent = true;
    };

    // The scheduling loop is EdenThreadedDriver::pe_worker minus the
    // freeze machinery, plus heartbeats. One crucial difference: a worker
    // NEVER exits on its own — even with the root's result shipped it
    // keeps draining, acking and retransmitting for the survivors until
    // the supervisor says Shutdown. A self-exiting worker would be
    // indistinguishable from a crash.
    Quantum q;
    std::uint32_t idle_spins = 0;
    auto collect = [&](bool major) {
      m.collect(major);
      gc_count++;
    };

    while (!shutdown) {
      maybe_hb();
      if (sys_.rt_drain(pi)) progress++;
      if (shutdown) break;
      if (m.heap().gc_requested()) collect(false);

      if (q.active == nullptr) {
        Tso* t = m.schedule_next(c);
        if (t != nullptr && t->start_time > now_us()) {
          c.push_thread(t);
          idle_now = true;
          std::this_thread::sleep_for(std::chrono::microseconds(50));
          continue;
        }
        if (t == nullptr) {
          sys_.rt_service_retries(pi);
          idle_now = true;
          if (++idle_spins < 64)
            std::this_thread::yield();
          else
            std::this_thread::sleep_for(std::chrono::microseconds(200));
          continue;
        }
        idle_now = false;
        idle_spins = 0;
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
        maybe_hb();
        if (sys_.rt_drain(pi)) progress++;
      }
      if (end == QuantumEnd::Killed) heap_overflows++;
      // Root gone for good: report its value, or DoneNoValue when it was
      // killed (result stays null), so the run ends instead of wedging.
      if ((end == QuantumEnd::RootDone || (end == QuantumEnd::Killed && t == root)) &&
          !done_sent)
        send_done();
    }

    // Shutdown: final counters home, then vanish without running any
    // parent-owned destructor (we share its whole address-space layout).
    const net::TransportStats& ts = tp.stats();
    net::DataMsg st;
    st.kind = net::MsgKind::Ctrl;
    st.src_pe = pi;
    st.channel = static_cast<std::uint64_t>(ProcCtrl::Stats);
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
    tp.send(super, st);
    std::_Exit(0);
  } catch (...) {
    // Any escape (internal error, heap corruption after a torn state) is
    // a crash as far as supervision is concerned.
    std::_Exit(3);
  }
}

}  // namespace ph
