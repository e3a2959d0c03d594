#include "eden/eden_rt.hpp"

#include <chrono>
#include <thread>
#include <vector>

namespace ph {

namespace {
constexpr std::uint32_t kDeadlockStrikes = 5;
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

    // Quiescence supervisor. Five quiet 1ms checks arm the freeze; the
    // verdict is only delivered after every PE thread has parked and the
    // conditions re-verify against the now-immobile system.
    std::uint32_t strikes = 0;
    std::uint64_t last_progress = progress_.load(std::memory_order_relaxed);
    while (!done_.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      const std::uint64_t p = progress_.load(std::memory_order_relaxed);
      if (p != last_progress || !quiescent()) {
        last_progress = p;
        strikes = 0;
        continue;
      }
      if (++strikes < kDeadlockStrikes) continue;
      strikes = 0;
      freeze_.store(true, std::memory_order_release);
      // Workers park at their loop top; one stuck mid-quantum (e.g. in a
      // backpressured send whose consumer just froze) aborts the freeze.
      bool all_parked = true;
      for (std::uint32_t spins = 0;
           frozen_.load(std::memory_order_acquire) != n; ++spins) {
        if (done_.load(std::memory_order_acquire) || spins > 2000) {
          all_parked = false;
          break;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
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
  std::uint32_t idle_spins = 0;

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
      while (freeze_.load(std::memory_order_acquire) &&
             !done_.load(std::memory_order_acquire))
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      frozen_.fetch_sub(1, std::memory_order_acq_rel);
      continue;
    }

    // Placeholder fills run here, on the owning PE's thread: each heap
    // keeps exactly one mutator.
    if (sys_.rt_drain(pi)) progress_.fetch_add(1, std::memory_order_relaxed);
    if (m.heap().gc_requested()) collect(false);

    if (q.active == nullptr) {
      Tso* t = m.schedule_next(c);
      if (t != nullptr && t->start_time > now_us()) {
        // Process-instantiation latency (1 virtual cycle = 1µs): the
        // thread exists but has not been born yet. Requeue and wait.
        c.push_thread(t);
        idle_[pi].store(true, std::memory_order_release);
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        continue;
      }
      if (t == nullptr) {
        // Idle: retransmit overdue sends, then back off — yields first,
        // real sleeps once the inbox has stayed empty a while.
        sys_.rt_service_retries(pi);
        idle_[pi].store(true, std::memory_order_release);
        if (++idle_spins < 64) {
          std::this_thread::yield();
        } else {
          const std::uint64_t i0 = now_us();
          std::this_thread::sleep_for(std::chrono::microseconds(200));
          if (trace_ != nullptr)
            trace_->record(pi, i0, now_us(),
                           c.n_blocked.load(std::memory_order_relaxed) > 0
                               ? CapState::Blocked
                               : CapState::Idle);
        }
        continue;
      }
      idle_[pi].store(false, std::memory_order_release);
      idle_spins = 0;
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
      return;
    }
  }
}

}  // namespace ph
