#include "sim/sim_driver.hpp"

#include <algorithm>
#include <limits>

namespace ph {

SimDriver::SimDriver(Machine& m, CostModel cost, TraceLog* trace)
    : m_(m), cost_(cost), trace_(trace), caps_(m.n_caps()) {}

void SimDriver::charge(std::uint32_t ci, std::uint64_t cost, CapState state) {
  CapSim& cs = caps_[ci];
  if (trace_ != nullptr) trace_->record(ci, cs.time, cs.time + cost, state);
  cs.time += cost;
}

SimResult SimDriver::run(Tso* main_tso) {
  main_done_ = false;
  deadlocked_ = false;
  result_ = SimResult{};
  while (!main_done_ && !deadlocked_) {
    // Pick the capability with the smallest clock that is not parked at
    // the GC barrier.
    std::uint32_t best = m_.n_caps();
    std::uint64_t best_time = std::numeric_limits<std::uint64_t>::max();
    for (std::uint32_t i = 0; i < m_.n_caps(); ++i) {
      if (caps_[i].arrived) continue;
      if (caps_[i].time < best_time) {
        best_time = caps_[i].time;
        best = i;
      }
    }
    if (best == m_.n_caps()) {
      // Everyone is at the barrier: run the collection.
      finish_gc();
      continue;
    }
    slice(best, main_tso);
  }
  result_.makespan = 0;
  for (const CapSim& cs : caps_) result_.makespan = std::max(result_.makespan, cs.time);
  // On a clean finish the makespan is the main thread's finish time, which
  // is the clock of the capability that ran it; other caps may have idled
  // beyond it, so prefer the finisher's clock when available.
  result_.value = main_tso->result;
  result_.deadlocked = deadlocked_;
  for (std::size_t i = 0; i < m_.tso_count(); ++i)
    result_.mutator_steps += m_.tso(static_cast<ThreadId>(i))->steps;
  return result_;
}

void SimDriver::slice(std::uint32_t ci, Tso* main_tso) {
  CapSim& cs = caps_[ci];
  Capability& c = m_.cap(ci);

  if (hook_) hook_(ci, cs.time);

  if (cs.q.active == nullptr) {
    Tso* t = m_.schedule_next(c);
    if (t == nullptr && m_.config().work == WorkPolicy::Steal) {
      t = m_.try_steal(c);
      charge(ci, t != nullptr ? cost_.steal_hit : cost_.steal_miss, CapState::Sync);
    }
    if (t != nullptr) {
      c.idle.store(false, std::memory_order_relaxed);
      cs.q.active = t;
      t->state = ThreadState::Running;
      // A brand-new thread (spark conversion / fresh spawn) pays creation
      // cost on top of the dispatch switch.
      charge(ci, cost_.context_switch + (t->steps == 0 ? cost_.thread_create : 0),
             CapState::Sync);
      return;
    }
    idle_tick(ci);
    return;
  }
  run_mutator(ci, main_tso);
}

void SimDriver::idle_tick(std::uint32_t ci) {
  CapSim& cs = caps_[ci];
  Capability& c = m_.cap(ci);
  c.idle.store(true, std::memory_order_relaxed);
  // An idle capability reaches the GC barrier immediately.
  if (gc_pending()) {
    arrive_at_barrier(ci);
    return;
  }
  const bool has_blocked = c.n_blocked.load(std::memory_order_relaxed) > 0;
  charge(ci, cost_.idle_poll, has_blocked ? CapState::Blocked : CapState::Idle);

  // Quiescence check. In virtual time this is exact, not a heuristic: a
  // blocked thread can only be woken by a running thread or an external
  // event, so when no capability is active, no work exists anywhere and no
  // external event is pending, the blocked threads are stuck for good.
  // Walk the wait-for graph to say *why* (cycle vs starvation).
  bool any_active = false;
  for (const CapSim& k : caps_)
    if (k.q.active != nullptr) any_active = true;
  if (!any_active && !m_.work_anywhere() && !gc_pending()) {
    if (pending_) {
      if (auto next = pending_()) {
        // External events still in flight: fast-forward to them.
        cs.time = std::max(cs.time, *next);
        return;
      }
    }
    deadlocked_ = true;
    result_.diagnosis = m_.diagnose_deadlock();
    if (trace_ != nullptr) trace_->note(ci, cs.time, result_.diagnosis.describe());
  }
}

void SimDriver::run_mutator(std::uint32_t ci, Tso* main_tso) {
  CapSim& cs = caps_[ci];
  Capability& c = m_.cap(ci);
  Tso* const t = cs.q.active;
  const std::uint64_t start = cs.time;

  // Execute at most sim_slice_steps per slice so that heap effects become
  // visible to the other capabilities at fine virtual-time granularity; a
  // context switch still only happens when the full quantum is spent.
  SimStepCharge hook(m_, c, cost_, /*barrier=*/true);
  const QuantumEnd end = m_.run_quantum(c, cs.q, main_tso, cost_.sim_slice_steps, hook);
  if (trace_ != nullptr) trace_->record(ci, start, start + hook.elapsed, CapState::Run);
  cs.time = start + hook.elapsed;

  switch (end) {
    case QuantumEnd::Slice:
      if (!hook.stopped) return;  // slice boundary only
      if (m_.config().barrier == BarrierPolicy::Improved)
        charge(ci, cost_.barrier_signal, CapState::Sync);
      arrive_at_barrier(ci);
      return;
    case QuantumEnd::NeedGc:
      if (cs.q.force_major()) force_major_ = true;
      arrive_at_barrier(ci);
      return;
    case QuantumEnd::Killed:
      result_.heap_overflows++;
      if (m_.fault() != nullptr) m_.fault()->stats().heap_overflows++;
      if (trace_ != nullptr)
        trace_->note(ci, cs.time, "heap overflow: unwound tso " + std::to_string(t->id));
      if (t == main_tso) main_done_ = true;
      else charge(ci, cost_.context_switch, CapState::Sync);
      return;
    case QuantumEnd::RootDone:
      main_done_ = true;
      return;
    case QuantumEnd::Released:
      charge(ci, cost_.context_switch, CapState::Sync);
      return;
    case QuantumEnd::Expired:
      // Under PushOnPoll the context switch is the only moment surplus
      // work gets offloaded (§IV.A.2).
      charge(ci, cost_.context_switch, CapState::Sync);
      m_.push_work(c);
      return;
  }
}

void SimDriver::arrive_at_barrier(std::uint32_t ci) {
  CapSim& cs = caps_[ci];
  cs.arrived = true;
  cs.arrive_time = cs.time;
}

void SimDriver::finish_gc() {
  std::uint64_t gc_start = 0;
  for (const CapSim& cs : caps_) gc_start = std::max(gc_start, cs.arrive_time);
  // Everybody waits (yellow) until the last capability arrives...
  if (trace_ != nullptr)
    for (std::uint32_t i = 0; i < m_.n_caps(); ++i)
      trace_->record(i, caps_[i].arrive_time, gc_start, CapState::Sync);
  // ...then the sequential collector runs while all mutators are stopped.
  const std::uint64_t copied = m_.collect(force_major_);
  force_major_ = false;
  const std::uint64_t pause = cost_.gc_fixed + copied * cost_.gc_per_word;
  result_.gc_count++;
  result_.gc_pause_total += pause;
  for (std::uint32_t i = 0; i < m_.n_caps(); ++i) {
    if (trace_ != nullptr) trace_->record(i, gc_start, gc_start + pause, CapState::Gc);
    caps_[i].time = gc_start + pause;
    caps_[i].arrived = false;
  }
}

}  // namespace ph
