// Runtime-system configuration: every policy knob the paper compares.
//
// The five named presets at the bottom correspond to the five rows of the
// paper's Fig. 1 table (the Eden row is configured on EdenSystem instead).
#pragma once

#include <cstdint>
#include <string>

#include "heap/heap.hpp"

namespace ph {

/// §IV.A.1 — how promptly capabilities reach the stop-the-world GC barrier.
enum class BarrierPolicy : std::uint8_t {
  /// GHC 6.8.x behaviour: a capability only notices a pending GC at its
  /// next allocation check (every `alloc_check_words` of allocation), so
  /// slowly-allocating threads delay everyone.
  Naive,
  /// Optimised synchronisation: capabilities are interrupted at the next
  /// safe point (every evaluation step).
  Improved
};

/// §IV.A.2 — how surplus sparks reach idle capabilities.
enum class WorkPolicy : std::uint8_t {
  /// GHC 6.8.x scheme: busy capabilities *push* surplus work to idle ones,
  /// but only when their scheduler runs (i.e. at context switches).
  PushOnPoll,
  /// The paper's optimisation: idle capabilities *steal* sparks from a
  /// lock-free Chase–Lev deque owned by each capability.
  Steal
};

/// §IV.A.3 — when a thunk under evaluation is marked as a black hole.
enum class BlackholePolicy : std::uint8_t {
  /// GHC default: thunks are black-holed lazily, at context-switch time,
  /// leaving a window in which other threads duplicate the evaluation.
  Lazy,
  /// Mark each thunk the moment it is entered; a second thread blocks.
  Eager
};

/// §IV.A.4 — how sparks are turned into running evaluations.
enum class SparkRunPolicy : std::uint8_t {
  /// Create (and destroy) a fresh Haskell thread per activated spark.
  ThreadPerSpark,
  /// A single "spark thread" per capability repeatedly runs sparks until
  /// none remain anywhere, then exits; it also yields to real threads.
  SparkThread
};

/// Which message-passing layer carries an Eden system's traffic
/// (--eden-transport). Sim is the virtual-time middleware inside
/// EdenSystem; Shm and Tcp are real transports in src/net driven by
/// EdenThreadedDriver against wall-clock time. Proc runs each PE as a
/// forked worker *process* over shared-memory frame rings (net/proc),
/// driven by EdenProcDriver with wall-clock crash supervision.
enum class EdenTransportKind : std::uint8_t { Sim, Shm, Tcp, Proc };

const char* eden_transport_name(EdenTransportKind k);

struct RtsConfig {
  std::uint32_t n_caps = 1;

  HeapConfig heap;  // heap.n_nurseries is overwritten with n_caps

  BarrierPolicy barrier = BarrierPolicy::Naive;
  WorkPolicy work = WorkPolicy::PushOnPoll;
  BlackholePolicy blackhole = BlackholePolicy::Lazy;
  SparkRunPolicy sparkrun = SparkRunPolicy::ThreadPerSpark;

  /// Allocation-check granularity in words. GHC threads poll for context
  /// switches / pending GCs only after exhausting a 4kB allocation block,
  /// i.e. every 512 machine words; lazy black-holing also happens there.
  std::uint32_t alloc_check_words = 512;
  /// Evaluation steps per scheduler quantum (context-switch timer).
  std::uint32_t quantum_steps = 2000;
  /// Spark-pool capacity per capability.
  std::uint32_t spark_pool_capacity = 8192;
  /// Prune fizzled sparks (already-evaluated targets) from the pools at
  /// every collection, as GHC's pruneSparkQueue does.
  bool gc_prune_sparks = true;
  /// Maximum run-queue imbalance tolerated before PushOnPoll offloads.
  std::uint32_t push_batch = 4;
  /// GHC's +RTS -DS: run the sanity auditor (full heap walk + scheduler
  /// invariant checks) after every collection and at driver shutdown.
  bool sanity = false;
  /// GC team size under ThreadedDriver (--gc-threads=N): the leader plus
  /// the capabilities parked at its GC barrier, so at most n_caps. 0 =
  /// match n_caps, the GHC 6.10 parallel-GC default; 1 = the sequential
  /// collector. Every other driver collects sequentially whatever this
  /// says. Machine copies the resolved value into HeapConfig::gc_threads
  /// before building the heap.
  std::uint32_t gc_threads = 0;
  /// Eden middleware selection (--eden-transport=sim|shm|tcp) and driver
  /// (--eden-rt: run PEs on OS threads against wall-clock time instead of
  /// the virtual-time simulation). Read by the Eden layer, not by Machine.
  EdenTransportKind eden_transport = EdenTransportKind::Sim;
  bool eden_rt = false;
  /// GHC's +RTS -DL (also --lint): run Core Lint over the program at load
  /// time; Machine aborts with structured LintError diagnostics if the IR
  /// is malformed. See src/core/lint and DESIGN.md §12.
  bool lint = false;
  /// --spark-elide: rewrite provably-useless `par` sites (spark-usefulness
  /// analysis, DESIGN.md §12.6) before running. Requires --lint/-DL so the
  /// analyses run against a verified program; parse_rts_flags rejects the
  /// combination --spark-elide without lint.
  bool spark_elide = false;
  /// --bytecode: lower the (linted) program to linear bytecode and run
  /// activations through the block dispatch loop in src/eval/bceval.cpp
  /// instead of the tree-walking interpreter. Implies a load-time lint.
  /// See DESIGN.md §15.
  bool bytecode = false;
  /// --code-cache=PATH: persist the compiled unit across runs in a
  /// CRC-framed cache file keyed on the Program content hash + bytecode
  /// format version. Only meaningful (and only accepted) with --bytecode;
  /// empty = in-process registry only.
  std::string code_cache;

  std::string name = "custom";
};

/// Virtual-time cost model for the deterministic simulation driver. Units
/// are abstract "cycles"; only ratios matter for reproducing the paper's
/// result shapes. See DESIGN.md §3.
struct CostModel {
  std::uint64_t step = 1;              // one evaluation-machine step
  std::uint64_t alloc_per_4words = 1;  // allocation throughput tax
  std::uint64_t thread_create = 80;   // first dispatch of a fresh TSO
  std::uint64_t context_switch = 40;
  std::uint64_t steal_hit = 12;
  std::uint64_t steal_miss = 6;
  std::uint64_t gc_fixed = 120;        // per-collection pause floor
  std::uint64_t gc_per_word = 1;       // sequential copy cost per live word
  std::uint64_t barrier_signal = 30;   // improved-barrier interrupt cost
  std::uint64_t idle_poll = 50;        // idle capability re-poll interval
  /// Simulation fidelity: max mutator steps executed atomically per slice.
  /// Bounds the virtual-time causality error between capabilities (heap
  /// effects inside one slice appear to others at slice granularity).
  std::uint32_t sim_slice_steps = 128;
  // Eden / message-passing (PVM-on-shared-memory class):
  std::uint64_t msg_latency = 400;
  std::uint64_t msg_per_8words = 1;
  std::uint64_t spawn_process = 1200;
};

// --- the paper's Fig. 1 ladder of configurations ---------------------------

/// Row 1: "GpH in plain GHC-6.9".
RtsConfig config_plain(std::uint32_t n_caps);
/// Row 2: plain + big allocation area.
RtsConfig config_bigalloc(std::uint32_t n_caps);
/// Row 3: row 2 + improved GC synchronisation.
RtsConfig config_gcsync(std::uint32_t n_caps);
/// Row 4: row 3 + work stealing for sparks (incl. spark threads).
RtsConfig config_worksteal(std::uint32_t n_caps);
/// Row 4 variant used by Fig. 5: work stealing with eager black-holing.
RtsConfig config_worksteal_eagerbh(std::uint32_t n_caps);

}  // namespace ph
