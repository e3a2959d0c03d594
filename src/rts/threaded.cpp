#include "rts/threaded.hpp"

#include <chrono>
#include <thread>
#include <vector>

#include "rts/schedtest.hpp"

namespace ph {

namespace {
/// An idle capability's park timeout. Five consecutive timed-out parks,
/// with every capability idle and no progress, declare deadlock.
constexpr std::chrono::milliseconds kIdlePark{1};
constexpr std::uint32_t kDeadlockStrikes = 5;
}  // namespace

ThreadedResult ThreadedDriver::run(Tso* main_tso) {
  const auto t0 = std::chrono::steady_clock::now();
  // While concurrent, Machine::collect runs the parallel collector, and
  // the capabilities parked at the barrier below are its team (GHC 6.10
  // style).
  m_.set_concurrent(true);
  done_.store(false);
  deadlocked_.store(false);
  {
    std::vector<std::jthread> workers;
    workers.reserve(m_.n_caps());
    for (std::uint32_t i = 0; i < m_.n_caps(); ++i)
      workers.emplace_back([this, i, main_tso] { worker(i, main_tso); });
  }
  m_.set_concurrent(false);
  if (m_.config().sanity) m_.sanity_check("threaded shutdown");
  const auto t1 = std::chrono::steady_clock::now();
  ThreadedResult r;
  r.value = main_tso->result;
  r.deadlocked = deadlocked_.load();
  r.diagnosis = diagnosis_;
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  r.heap_overflows = heap_overflows_.load();
  return r;
}

void ThreadedDriver::barrier() {
  // Capabilities parked idle come to the barrier at once.
  m_.parker().ring();
  std::unique_lock<std::mutex> lk(gc_mutex_);
  const std::uint64_t epoch = gc_epoch_;
  if (gc_arrived_++ == 0) gc_sync_start_ = std::chrono::steady_clock::now();
  if (gc_arrived_ == m_.n_caps()) {
    // Last to park: lead the stop-the-world collection. The mutex is
    // released while collecting so the parked capabilities can donate
    // themselves to the heap's GC worker team (poll loop below).
    if (!done_.load()) {
      m_.stats().gc_sync_ns += static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - gc_sync_start_)
              .count());
      gc_collecting_ = true;
      gc_cv_.notify_all();
      lk.unlock();
      m_.collect(force_major_.exchange(false));
      lk.lock();
      gc_collecting_ = false;
    }
    gc_arrived_ = 0;
    gc_epoch_++;
    gc_cv_.notify_all();
    return;
  }
  gc_cv_.wait(lk, [&] { return gc_collecting_ || gc_epoch_ != epoch || done_.load(); });
  if (m_.heap().gc_threads() > 1) {
    // Donate this stopped capability as a GC worker. try_help_collect()
    // never blocks waiting for a session: if the leader's collection
    // already finished (or has not opened yet from this poll's point of
    // view) it returns false immediately and the loop re-checks the epoch
    // — so a session that opens and closes between polls is simply missed.
    while (gc_collecting_ && gc_epoch_ == epoch && !done_.load()) {
      lk.unlock();
      m_.heap().try_help_collect();
      std::this_thread::yield();
      lk.lock();
    }
  }
  gc_cv_.wait(lk, [&] { return gc_epoch_ != epoch || done_.load(); });
  if (done_.load()) return;
  // Note: gc_arrived_ was already reset by the collector thread.
}

void ThreadedDriver::worker(std::uint32_t ci, Tso* main_tso) {
  Capability& c = m_.cap(ci);
  Quantum q;
  std::uint32_t deadlock_strikes = 0;

  auto finish = [&] {
    {
      std::lock_guard<std::mutex> lk(gc_mutex_);
      done_.store(true);
      gc_cv_.notify_all();
    }
    m_.parker().ring();
  };
  // What ends an idle park early: work this capability can take (its own
  // queue or pool, or a spark to steal), a collection to join, the end.
  const bool steals = m_.config().work == WorkPolicy::Steal;
  auto ready = [&] {
    return done_.load(std::memory_order_acquire) || m_.heap().gc_requested() ||
           c.has_runnable() || c.spark_pool_size() > 0 ||
           (steals && m_.sparks_anywhere());
  };

  while (!done_.load(std::memory_order_acquire)) {
    // Safe point: a requested collection is joined even when idle. A
    // worker holding an unfinished thread parks with it and resumes after.
    if (m_.heap().gc_requested()) {
      sched_hook::point(SchedPoint::GcRendezvous, ci);
      barrier();
      continue;
    }

    if (q.active == nullptr) {
      Tso* t = m_.schedule_next(c);
      if (t == nullptr) t = m_.try_steal(c);
      if (t == nullptr) {
        c.idle.store(true, std::memory_order_relaxed);
        const std::uint64_t before = progress_.load();
        if (m_.parker().park(ready, kIdlePark) != Park::TimedOut) {
          deadlock_strikes = 0;
          continue;
        }
        // A peer holding a runnable thread counts as progress even when
        // the OS has descheduled it mid-run (its thread is in no queue,
        // so work_anywhere() can't see it): deadlock needs *every*
        // worker idle, not just a flat progress counter — otherwise a
        // loaded box turns a preempted mutator into a false deadlock.
        bool all_idle = true;
        for (std::uint32_t w = 0; w < m_.n_caps() && all_idle; ++w)
          all_idle = m_.cap(w).idle.load(std::memory_order_relaxed);
        if (all_idle && progress_.load() == before && !m_.work_anywhere() &&
            !m_.heap().gc_requested() && !done_.load()) {
          if (++deadlock_strikes >= kDeadlockStrikes) {
            // Five quiet timed-out parks: every worker is idle and no
            // wakeup source remains. Analyse the wait-for graph (all TSO
            // stacks are quiescent now) so the report names the cycle.
            {
              std::lock_guard<std::mutex> lk(gc_mutex_);
              if (!done_.load()) diagnosis_ = m_.diagnose_deadlock();
            }
            deadlocked_.store(true);
            finish();
            return;
          }
        } else {
          deadlock_strikes = 0;
        }
        continue;
      }
      c.idle.store(false, std::memory_order_relaxed);
      deadlock_strikes = 0;
      t->state = ThreadState::Running;
      q.active = t;
    }

    // The quantum runs in slices, so progress_ ticks regularly and a
    // requested collection is joined (at the loop top) between slices.
    Tso* const t = q.active;
    const QuantumEnd end = m_.run_quantum(c, q, main_tso, kWallSliceSteps, QuantumHook{});
    progress_.fetch_add(1, std::memory_order_relaxed);
    switch (end) {
      case QuantumEnd::Slice:
        continue;
      case QuantumEnd::NeedGc:
        // Park at the loop top's barrier; the step is retried after it.
        if (q.force_major()) force_major_.store(true);
        continue;
      case QuantumEnd::Killed:
        heap_overflows_.fetch_add(1, std::memory_order_relaxed);
        if (t != main_tso) break;
        finish();
        return;
      case QuantumEnd::RootDone:
        finish();
        return;
      case QuantumEnd::Expired:
      case QuantumEnd::Released:
        break;
    }
    m_.push_work(c);
  }
}

}  // namespace ph
