// EdenThreadedDriver: the real-time Eden driver. Where EdenSimDriver
// multiplexes PEs onto virtual-time cores, this driver gives every PE's
// Machine a real std::jthread and replaces the simulated message hops
// with real sends of the pack.cpp graph encodings over a src/net
// Transport (shm mailboxes or framed TCP) — the paper's "GHC runtime per
// PE over PVM/MPI-on-shared-memory" deployment (§III.B), measured
// instead of modeled.
//
// Per-PE loop: drain arriving messages (placeholder fills run on the
// owning PE's thread, so each heap stays single-mutator), collect the
// PE's own heap when asked (no cross-PE barrier — the distributed-heap
// advantage of §VI.A), then run the scheduler quantum every driver
// shares (Machine::run_quantum, which owns the heap-overflow escalation:
// GC → forced major → kill the thread) in slices, draining the transport
// between slices. When the fault plan is enabled the reliable-
// channel protocol (net::ChannelEndpoint, shared with the sim) runs over
// the real wire: idle PEs retransmit overdue sends, receivers ack and
// dedup, and the plan's probabilities are drawn at the transport's
// delivery boundary from the same counter-based hashes the simulator
// uses.
//
// Idle PEs park on their transport endpoint's doorbell (DESIGN.md §18):
// an arrival, a freeze release or the end of the run rings it, and the
// park times out when the PE's next retransmission or held-back delivery
// is due. A process's start_time is not waited out here (only the
// simulator charges instantiation latency).
//
// Quiescence: a supervisor (the caller's thread) watches a progress
// counter, the per-PE idle flags, the transport's in-flight accounting
// and the unacked-send counts. Five quiet timed-out 1ms parks freeze the
// PE threads, the conditions are re-verified under the freeze, and only
// then is the blocked-thread analysis run — so a genuine distributed
// deadlock gets the same precise diagnosis the sim produces. The root
// finishing rings the supervisor, so run() returns at once.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "eden/eden.hpp"
#include "net/transport.hpp"
#include "rts/parker.hpp"

namespace ph {

struct EdenRtResult {
  Obj* value = nullptr;
  bool deadlocked = false;
  DeadlockDiagnosis diagnosis;
  double seconds = 0.0;              // wall-clock makespan
  std::uint64_t gc_count = 0;        // summed over PEs (all independent)
  std::uint64_t messages = 0;        // frames sent (incl. acks, retries)
  std::uint64_t bytes_sent = 0;      // framed bytes shipped
  std::uint64_t crc_errors = 0;      // frames rejected by the codec
  FaultStats faults;                 // injector activity + protocol work
  std::uint64_t heap_overflows = 0;  // TSOs killed by the overflow escalation
};

class EdenThreadedDriver {
 public:
  /// Builds the transport the system's config selects (shm or tcp). The
  /// system must have been configured with a real transport (realtime()).
  /// Pass a TraceLog (rows = PEs) for a wall-clock timeline in
  /// microseconds since the driver epoch.
  explicit EdenThreadedDriver(EdenSystem& sys, TraceLog* trace = nullptr);
  /// As above with a caller-supplied transport (tests inject doubles).
  EdenThreadedDriver(EdenSystem& sys, std::unique_ptr<net::Transport> transport,
                     TraceLog* trace);
  ~EdenThreadedDriver();

  /// Runs until `root` (a TSO on some PE, usually 0) finishes or the
  /// system deadlocks. The topology (channels, processes) must be fully
  /// set up before this call: the channel table freezes here.
  EdenRtResult run(Tso* root);

 private:
  void pe_worker(std::uint32_t pi, Tso* root);
  bool quiescent() const;
  /// Rings every PE's doorbell (freeze, freeze release, end of run).
  void ring_pes();

  EdenSystem& sys_;
  std::unique_ptr<net::Transport> transport_;
  TraceLog* trace_;

  std::atomic<bool> done_{false};
  std::atomic<bool> freeze_{false};
  std::atomic<std::uint32_t> frozen_{0};
  std::atomic<std::uint64_t> progress_{0};
  std::atomic<std::uint64_t> gc_count_{0};
  std::atomic<std::uint64_t> heap_overflows_{0};
  std::unique_ptr<std::atomic<bool>[]> idle_;
  DeadlockDiagnosis diagnosis_;  // written under the freeze only
  bool deadlocked_ = false;
  Parker sup_bell_;  // the supervisor's: rung by done_ and by each freezing PE
};

}  // namespace ph
