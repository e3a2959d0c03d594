// Deterministic virtual-time driver for a shared-heap (GpH) machine.
//
// This stands in for the paper's 8-core Intel / 16-core AMD testbeds
// (which we do not have — see DESIGN.md §2): every capability is advanced
// under a global virtual clock, and reduction steps, allocation, context
// switches, steal attempts, the stop-the-world GC barrier and the
// collection pause itself are charged costs from a CostModel. Scheduling
// is deterministic, so every figure regenerated from this driver is
// exactly reproducible.
//
// The barrier protocol mirrors §IV.A.1: when any nursery fills, all
// capabilities must reach a safe point before the (sequential) collector
// runs. Under BarrierPolicy::Naive a mutator only notices at its next
// allocation check (every alloc_check_words); under Improved it is
// interrupted at the next evaluation step.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "rts/config.hpp"
#include "rts/machine.hpp"
#include "trace/trace.hpp"

namespace ph {

struct SimResult {
  std::uint64_t makespan = 0;      // virtual time at which `main` finished
  Obj* value = nullptr;            // main thread's result (WHNF)
  bool deadlocked = false;
  DeadlockDiagnosis diagnosis;     // why, when deadlocked (cycle vs starvation)
  std::uint64_t gc_count = 0;
  std::uint64_t gc_pause_total = 0;  // summed virtual GC pause time
  std::uint64_t mutator_steps = 0;   // total reduction steps over all TSOs
  std::uint64_t heap_overflows = 0;  // TSOs killed by the overflow escalation
};

/// The virtual-time drivers' run_quantum hook: charges each step its
/// CostModel cost and runs the allocation check (GHC: every 4kB block).
/// With `barrier` set (a shared heap) it also plays the GC barrier's safe
/// points: under BarrierPolicy::Improved a pending collection interrupts
/// the next step, which still spends a quantum step; under Naive it is
/// noticed only at the allocation check, before that step's outcome is
/// handled. Either way `stopped` is set and the call ends with Slice.
class SimStepCharge : public QuantumHook {
 public:
  SimStepCharge(Machine& m, Capability& c, const CostModel& cost, bool barrier)
      : m_(m), c_(c), cost_(cost), barrier_(barrier) {}

  bool before_step() {
    if (barrier_ && m_.config().barrier == BarrierPolicy::Improved &&
        m_.heap().gc_requested())
      return stopped = true;
    debt_before_ = c_.alloc_debt;
    return false;
  }
  bool after_step(StepOutcome) {
    elapsed += cost_.step;
    if (c_.alloc_debt > debt_before_)
      elapsed += ((c_.alloc_debt - debt_before_) * cost_.alloc_per_4words) / 4;
    // Lazy black-holing does NOT happen at the allocation check: in GHC
    // 6.x thunks were marked only at genuine context switches, which is
    // exactly why duplicate evaluation was so visible in the paper's Fig. 5.
    if (c_.alloc_debt < m_.config().alloc_check_words) return false;
    c_.alloc_debt = 0;
    if (barrier_ && m_.config().barrier == BarrierPolicy::Naive &&
        m_.heap().gc_requested())
      return stopped = true;
    return false;
  }
  void spark_switch() { elapsed += cost_.context_switch; }  // cheap spark-to-spark switch

  std::uint64_t elapsed = 0;  // virtual time the steps took
  bool stopped = false;       // parked at a GC-barrier safe point

 private:
  Machine& m_;
  Capability& c_;
  const CostModel& cost_;
  bool barrier_;
  std::uint64_t debt_before_ = 0;
};

class SimDriver {
 public:
  explicit SimDriver(Machine& m, CostModel cost = {}, TraceLog* trace = nullptr);

  /// Drives all capabilities until `main` finishes (or deadlock).
  SimResult run(Tso* main_tso);

  /// Extra work performed each slice before scheduling — used by the Eden
  /// layer to deliver messages at the right virtual time. Returns true if
  /// it produced new work.
  using Hook = std::function<bool(std::uint32_t cap, std::uint64_t now)>;
  void set_slice_hook(Hook h) { hook_ = std::move(h); }

  /// A hook can keep the driver alive while external events (messages from
  /// other PEs) are still in flight; see EdenSim.
  using PendingFn = std::function<std::optional<std::uint64_t>()>;
  void set_pending_fn(PendingFn f) { pending_ = std::move(f); }

  std::uint64_t cap_time(std::uint32_t i) const { return caps_[i].time; }

 private:
  struct CapSim {
    Quantum q;
    std::uint64_t time = 0;
    bool arrived = false;          // parked at the GC barrier
    std::uint64_t arrive_time = 0;
  };

  void slice(std::uint32_t ci, Tso* main_tso);
  void run_mutator(std::uint32_t ci, Tso* main_tso);
  void idle_tick(std::uint32_t ci);
  void arrive_at_barrier(std::uint32_t ci);
  void finish_gc();
  bool gc_pending() const { return m_.heap().gc_requested(); }
  void charge(std::uint32_t ci, std::uint64_t cost, CapState state);

  Machine& m_;
  CostModel cost_;
  TraceLog* trace_;
  std::vector<CapSim> caps_;
  Hook hook_;
  PendingFn pending_;
  bool force_major_ = false;  // next barrier collection must be major
  bool main_done_ = false;
  bool deadlocked_ = false;
  SimResult result_;
};

}  // namespace ph
