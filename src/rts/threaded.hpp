// ThreadedDriver: runs a Machine with one OS thread per capability — the
// "real parallelism" configuration of the paper's §III.A (lightweight
// Haskell threads multiplexed onto heavyweight OS threads).
//
// The runtime's data structures (Chase–Lev spark deques, striped
// thunk-transition locks in per-capability banks, the stop-the-world GC
// barrier) are truly concurrent here, so this driver is both the test
// suite's check of true parallel mutation and the source of the
// real-core GpH wall-clock and speedup numbers (perfbench's
// gph_sumeuler). The paper-shape figures still come from the
// deterministic virtual-time driver in src/sim (see DESIGN.md §2).
//
// GC protocol: when any capability fails to allocate it requests a
// collection; every worker parks at its next safe point; the last to park
// leads the stop-the-world collection — exactly the GHC 6.x structure the
// paper optimises. With --gc-threads > 1 the parked capabilities do not
// just wait: they poll Heap::try_help_collect() and join the leader's
// worker team (GHC 6.10's parallel GC recruited the stopped capabilities
// the same way), then resume mutating when the epoch advances. This is the
// only place a GC team forms; every other driver collects sequentially.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>

#include "rts/machine.hpp"

namespace ph {

struct ThreadedResult {
  Obj* value = nullptr;
  bool deadlocked = false;
  DeadlockDiagnosis diagnosis;       // why, when deadlocked
  double seconds = 0.0;
  std::uint64_t heap_overflows = 0;  // TSOs killed by the overflow escalation
};

class ThreadedDriver {
 public:
  explicit ThreadedDriver(Machine& m) : m_(m) {}

  /// Runs until `main_tso` finishes. Blocks the calling thread.
  ThreadedResult run(Tso* main_tso);

 private:
  void worker(std::uint32_t ci, Tso* main_tso);
  /// Parks at the GC barrier; the last arrival collects. Returns when the
  /// collection (if any) is over.
  void barrier();

  Machine& m_;
  std::mutex gc_mutex_;
  std::condition_variable gc_cv_;
  std::uint32_t gc_arrived_ = 0;
  std::uint64_t gc_epoch_ = 0;
  bool gc_collecting_ = false;  // leader is inside m_.collect(); helpers poll
  std::chrono::steady_clock::time_point gc_sync_start_;  // first arrival this epoch
  std::atomic<bool> done_{false};
  std::atomic<bool> deadlocked_{false};
  std::atomic<std::uint64_t> progress_{0};
  std::atomic<bool> force_major_{false};  // next barrier collection majors
  std::atomic<std::uint64_t> heap_overflows_{0};
  DeadlockDiagnosis diagnosis_;  // written under gc_mutex_ before done_
};

}  // namespace ph
