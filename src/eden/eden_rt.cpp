#include "eden/eden_rt.hpp"

#include <chrono>
#include <thread>
#include <vector>

namespace ph {

namespace {
/// Quiescence: five consecutive timed-out supervisor parks of 1 ms, each
/// finding the system quiet, arm the freeze.
constexpr std::uint32_t kDeadlockStrikes = 5;
constexpr std::chrono::milliseconds kQuietPark{1};
/// How long the supervisor waits for every PE to park for a freeze.
constexpr std::chrono::milliseconds kFreezeWait{200};
/// The longest an idle or frozen PE parks without a ring: a safety net,
/// since arrivals, freeze releases and the end of the run all ring.
constexpr std::uint64_t kIdleParkCapUs = 1000;
}  // namespace

EdenThreadedDriver::EdenThreadedDriver(EdenSystem& sys, TraceLog* trace)
    : sys_(sys), trace_(trace) {
  if (!sys_.realtime())
    throw ProgramError("EdenThreadedDriver needs a real transport "
                       "(--eden-rt / --eden-transport=shm|tcp); "
                       "sim-configured systems are driven by EdenSimDriver");
  transport_ = net::make_transport(sys_.config().transport, sys_.n_pes(),
                                   sys_.reliable_ ? &sys_.injector() : nullptr);
}

EdenThreadedDriver::EdenThreadedDriver(EdenSystem& sys,
                                       std::unique_ptr<net::Transport> transport,
                                       TraceLog* trace)
    : sys_(sys), transport_(std::move(transport)), trace_(trace) {
  if (!sys_.realtime())
    throw ProgramError("EdenThreadedDriver needs a real transport "
                       "(--eden-rt / --eden-transport=shm|tcp); "
                       "sim-configured systems are driven by EdenSimDriver");
  if (transport_ == nullptr)
    throw ProgramError("EdenThreadedDriver given a null transport");
}

EdenThreadedDriver::~EdenThreadedDriver() = default;

void EdenThreadedDriver::ring_pes() {
  for (std::uint32_t i = 0; i < sys_.n_pes(); ++i) transport_->doorbell(i).ring();
}

bool EdenThreadedDriver::quiescent() const {
  // Every check can only err toward "busy" (the worker threads keep
  // mutating underneath us): a false "quiet" from any single read is
  // caught by the others, and the final verdict is only ever reached
  // after re-verifying under the freeze, when the workers are parked.
  const std::uint32_t n = sys_.n_pes();
  for (std::uint32_t i = 0; i < n; ++i)
    if (!idle_[i].load(std::memory_order_acquire)) return false;
  if (!transport_->idle()) return false;
  for (std::uint32_t i = 0; i < n; ++i) {
    Machine& m = sys_.pe(i);
    if (m.work_anywhere()) return false;
    if (m.heap().gc_requested()) return false;
  }
  if (sys_.reliable_)
    for (const auto& rp : sys_.rt_)
      if (rp->unacked.load(std::memory_order_acquire) != 0) return false;
  return true;
}

EdenRtResult EdenThreadedDriver::run(Tso* root) {
  const std::uint32_t n = sys_.n_pes();
  idle_ = std::make_unique<std::atomic<bool>[]>(n);
  for (std::uint32_t i = 0; i < n; ++i) idle_[i].store(false, std::memory_order_relaxed);
  done_.store(false);
  freeze_.store(false);
  frozen_.store(0);
  deadlocked_ = false;

  transport_->start();
  sys_.attach_rt(transport_.get());
  const auto t0 = std::chrono::steady_clock::now();
  {
    std::vector<std::jthread> workers;
    workers.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i)
      workers.emplace_back([this, i, root] { pe_worker(i, root); });

    // Quiescence supervisor. Five quiet timed-out parks arm the freeze;
    // the verdict is only delivered after every PE thread has parked and
    // the conditions re-verify against the now-immobile system. The root
    // finishing rings, so run() returns at once.
    std::uint32_t strikes = 0;
    std::uint64_t last_progress = progress_.load(std::memory_order_relaxed);
    auto finished = [this] { return done_.load(std::memory_order_acquire); };
    while (!finished()) {
      if (sup_bell_.park(finished, kQuietPark) != Park::TimedOut) continue;
      const std::uint64_t p = progress_.load(std::memory_order_relaxed);
      if (p != last_progress || !quiescent()) {
        last_progress = p;
        strikes = 0;
        continue;
      }
      if (++strikes < kDeadlockStrikes) continue;
      strikes = 0;
      freeze_.store(true, std::memory_order_release);
      ring_pes();
      // Workers park at their loop top, each ringing as it arrives; one
      // stuck mid-quantum (e.g. in a backpressured send whose consumer
      // just froze) aborts the freeze.
      auto all_frozen = [&] { return frozen_.load(std::memory_order_acquire) == n; };
      const auto give_up = std::chrono::steady_clock::now() + kFreezeWait;
      while (!all_frozen() && !finished()) {
        const auto left = std::chrono::duration_cast<std::chrono::microseconds>(
            give_up - std::chrono::steady_clock::now());
        if (left <= std::chrono::microseconds::zero()) break;
        sup_bell_.park([&] { return all_frozen() || finished(); }, left);
      }
      const bool all_parked = all_frozen() && !finished();
      if (all_parked && !done_.load(std::memory_order_acquire) &&
          progress_.load(std::memory_order_relaxed) == p && quiescent()) {
        // Genuine distributed deadlock: nothing can ever wake a blocked
        // thread again. The TSO stacks are immobile — run the blocked-
        // thread analysis on every PE for the precise report.
        deadlocked_ = true;
        for (std::uint32_t pi = 0; pi < n; ++pi) {
          DeadlockDiagnosis d = sys_.pe(pi).diagnose_deadlock();
          if (d.kind != DeadlockKind::None) {
            d.pe = pi;
            diagnosis_ = d;
            break;
          }
        }
        done_.store(true, std::memory_order_release);
      }
      freeze_.store(false, std::memory_order_release);
      ring_pes();
    }
    // Unblock any sender parked on transport backpressure so every worker
    // can reach its loop top and observe done_.
    transport_->stop();
  }  // joins the PE threads
  const auto t1 = std::chrono::steady_clock::now();

  EdenRtResult r;
  r.value = root->result;
  r.deadlocked = deadlocked_;
  r.diagnosis = diagnosis_;
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  r.gc_count = gc_count_.load(std::memory_order_relaxed);
  r.heap_overflows = heap_overflows_.load(std::memory_order_relaxed);
  const net::TransportStats& ts = transport_->stats();
  r.messages = ts.frames_sent.load(std::memory_order_relaxed);
  r.bytes_sent = ts.bytes_sent.load(std::memory_order_relaxed);
  r.crc_errors = ts.crc_errors.load(std::memory_order_relaxed);
  r.faults.dropped = ts.dropped.load(std::memory_order_relaxed);
  r.faults.duplicated = ts.duplicated.load(std::memory_order_relaxed);
  r.faults.delayed = ts.delayed.load(std::memory_order_relaxed);
  if (sys_.reliable_) {
    for (const auto& rp : sys_.rt_) {
      r.faults.retries += rp->fs.retries;
      r.faults.acks += rp->fs.acks;
      r.faults.dedup_dropped += rp->fs.dedup_dropped;
    }
  }
  r.faults.heap_overflows = r.heap_overflows;
  if (r.deadlocked && trace_ != nullptr)
    trace_->note(0, sys_.rt_now(), r.diagnosis.describe());
  return r;
}

void EdenThreadedDriver::pe_worker(std::uint32_t pi, Tso* root) {
  Machine& m = sys_.pe(pi);
  Capability& c = m.cap(0);
  Quantum q;
  // This PE's doorbell: every arrival for it, freeze releases and the end
  // of the run ring it.
  Parker& bell = transport_->doorbell(pi);

  auto now_us = [this] { return sys_.rt_now(); };
  auto collect = [&](bool major) {
    // Distributed heap: collect immediately and locally — no barrier, no
    // other PE is disturbed (§VI.A). Wall-clock pause goes to the trace.
    const std::uint64_t g0 = now_us();
    m.collect(major);
    gc_count_.fetch_add(1, std::memory_order_relaxed);
    if (trace_ != nullptr) trace_->record(pi, g0, now_us(), CapState::Gc);
  };

  while (!done_.load(std::memory_order_acquire)) {
    if (freeze_.load(std::memory_order_acquire)) {
      // Park with the machine untouched: the supervisor is re-verifying
      // quiescence and may walk this PE's TSO stacks for the diagnosis.
      frozen_.fetch_add(1, std::memory_order_acq_rel);
      sup_bell_.ring();
      auto released = [this] {
        return !freeze_.load(std::memory_order_acquire) ||
               done_.load(std::memory_order_acquire);
      };
      while (!released()) bell.park(released, std::chrono::microseconds(kIdleParkCapUs));
      frozen_.fetch_sub(1, std::memory_order_acq_rel);
      continue;
    }

    // Placeholder fills run here, on the owning PE's thread: each heap
    // keeps exactly one mutator.
    if (sys_.rt_drain(pi)) progress_.fetch_add(1, std::memory_order_relaxed);
    if (m.heap().gc_requested()) collect(false);

    if (q.active == nullptr) {
      // A process's start_time (the simulator's instantiation delay) is
      // not waited out here: only EdenSimDriver charges it.
      Tso* t = m.schedule_next(c);
      if (t == nullptr) {
        // Idle: retransmit overdue sends, then park until something
        // arrives or the next retransmission or held-back delivery is due.
        sys_.rt_service_retries(pi);
        idle_[pi].store(true, std::memory_order_release);
        const std::uint64_t i0 = now_us();
        const Park p = bell.park(
            [&] {
              return transport_->pending(pi) || freeze_.load(std::memory_order_acquire) ||
                     done_.load(std::memory_order_acquire);
            },
            std::chrono::microseconds(sys_.rt_idle_park_us(pi, kIdleParkCapUs)));
        if (trace_ != nullptr && p != Park::Ready)
          trace_->record(pi, i0, now_us(),
                         c.n_blocked.load(std::memory_order_relaxed) > 0 ? CapState::Blocked
                                                                         : CapState::Idle);
        continue;
      }
      idle_[pi].store(false, std::memory_order_release);
      t->state = ThreadState::Running;
      q.active = t;
    }

    // One quantum in slices, draining the transport between slices so
    // stream elements keep flowing while we compute.
    Tso* const t = q.active;
    std::uint64_t seg0 = now_us();
    auto end_run_segment = [&] {
      if (trace_ != nullptr) trace_->record(pi, seg0, now_us(), CapState::Run);
    };
    QuantumEnd end;
    for (;;) {
      end = m.run_quantum(c, q, root, kWallSliceSteps, QuantumHook{});
      if (end == QuantumEnd::NeedGc) {
        end_run_segment();
        collect(q.force_major());
        seg0 = now_us();
        continue;  // the failed step is retried
      }
      progress_.fetch_add(1, std::memory_order_relaxed);
      if (end != QuantumEnd::Slice) break;
      if (sys_.rt_drain(pi)) progress_.fetch_add(1, std::memory_order_relaxed);
    }
    end_run_segment();
    if (end == QuantumEnd::Killed) heap_overflows_.fetch_add(1, std::memory_order_relaxed);
    if (end == QuantumEnd::RootDone || (end == QuantumEnd::Killed && t == root)) {
      done_.store(true, std::memory_order_release);
      sup_bell_.ring();
      ring_pes();
      return;
    }
  }
}

}  // namespace ph
