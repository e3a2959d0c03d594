// Machine: one parallel Haskell runtime instance — a shared heap, a fixed
// set of capabilities (the paper's §III.A: "a capability represents the
// resources for running a Haskell computation"), the TSO table, spark
// pools, black-hole wait queues, CAF cells and the GC orchestration.
//
// A GpH shared-heap system is one Machine with N capabilities. An Eden
// distributed-heap system is N Machines with one capability each, linked
// by the message-passing layer in src/eden (exactly the paper's setup of
// one GHC runtime per PE).
//
// Machines are *driven* externally, by six drivers: the virtual-time
// SimDriver (src/sim) and EdenSimDriver, and the wall-clock ThreadedDriver
// (src/rts/threaded.hpp), EdenThreadedDriver, the EdenProcDriver child and
// the ServeFleet worker. Every one of them runs threads through the one
// scheduler quantum, Machine::run_quantum, so all policy logic lives here
// and is identical under every driver (DESIGN.md §16).
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "core/program.hpp"
#include "heap/heap.hpp"
#include "rts/config.hpp"
#include "rts/fault.hpp"
#include "rts/parker.hpp"
#include "rts/tso.hpp"
#include "rts/wsdeque.hpp"

namespace ph {

namespace bc {
struct CodeBlob;
}

/// Raised when evaluation goes wrong (type mismatch at a primop, the
/// `error#` primitive, division by zero, ...).
struct EvalError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Why a call to Machine::step returned.
enum class StepOutcome : std::uint8_t {
  Ok,        // made progress; keep going
  NeedGc,    // allocation failed; run a collection and retry the thread
  Blocked,   // thread blocked on a black hole / placeholder; pick another
  Finished   // thread completed; result is in Tso::result
};

/// How a call to Machine::run_quantum ended. Only Slice and NeedGc leave
/// Quantum::active set.
enum class QuantumEnd : std::uint8_t {
  Slice,     // step budget spent, or the hook stopped the call
  Expired,   // quantum used up: the thread was black-holed and requeued
  Released,  // the thread blocked, or finished with no next spark
  NeedGc,    // allocation failed: collect (major if force_major()), call again
  Killed,    // third NeedGc in a row: the thread was unwound ("heap overflow")
  RootDone   // the root thread finished (result, or `error`, is set)
};

/// A capability's running thread and the state of its quantum, kept by
/// the driver between run_quantum calls.
struct Quantum {
  Tso* active = nullptr;   // thread holding the capability, if any
  std::uint32_t used = 0;  // steps of active's quantum spent
  // Heap-overflow escalation: consecutive NeedGc outcomes of one thread
  // (1 -> collect, 2 -> forced major collection, 3 -> kill the thread).
  Tso* oom_tso = nullptr;
  std::uint32_t oom_streak = 0;

  bool force_major() const { return oom_streak >= 2; }
  void release() {
    active = nullptr;
    used = 0;
  }
};

/// Steps a wall-clock driver runs per run_quantum call; between calls it
/// joins a pending collection, drains its transport or sends heartbeats.
constexpr std::uint32_t kWallSliceSteps = 256;

/// Per-step callbacks of run_quantum. A driver that charges per step (the
/// virtual-time drivers) derives from this and hides what it needs; the
/// calls are resolved at compile time, so the others pay nothing.
struct QuantumHook {
  /// Runs once a step is counted against the quantum, before it runs;
  /// true stops the call there (QuantumEnd::Slice).
  bool before_step() { return false; }
  /// Runs after each step, before its outcome is handled; true stops the
  /// call there (QuantumEnd::Slice) with the outcome unhandled.
  bool after_step(StepOutcome) { return false; }
  /// Runs when a finished spark thread has taken its next spark.
  void spark_switch() {}
};

struct SparkStats {
  std::uint64_t created = 0;
  std::uint64_t dud = 0;        // spark target already evaluated at `par`
  std::uint64_t overflowed = 0; // pool full
  std::uint64_t converted = 0;  // turned into (or run by) a thread locally
  std::uint64_t stolen = 0;     // taken by another capability
  std::uint64_t fizzled = 0;    // evaluated by someone else before running
  std::uint64_t pruned = 0;     // discarded by the collector (already WHNF)
};

class Machine;

/// A bank of striped object-transition locks (Machine::lock_obj). Each
/// capability owns one for the objects in its nursery; the Machine owns a
/// shared one for old-generation and static objects.
using LockBank = std::array<std::mutex, 64>;

class Capability {
 public:
  Capability(Machine& m, std::uint32_t id, std::uint32_t spark_capacity)
      : id_(id), m_(m), sparks_(spark_capacity) {}

  std::uint32_t id() const { return id_; }

  // --- run queue (lock-protected: other capabilities push wakeups) -------
  void push_thread(Tso* t);
  void push_thread_front(Tso* t);
  Tso* pop_thread();
  std::size_t run_queue_len() const;
  bool has_runnable() const { return run_queue_len() > 0; }

  // --- spark pool ----------------------------------------------------------
  void spark(Obj* p);                    // owner only (the `par` primitive)
  /// PushOnPoll hand-over: another capability's thread moves an existing
  /// spark into this (idle) pool. Counter writes go to `pusher_stats` so
  /// every SparkStats keeps a single writing thread. Returns false when
  /// the pool is full (the spark is dropped and counted overflowed).
  bool accept_pushed_spark(Obj* p, SparkStats& pusher_stats);
  std::optional<Obj*> pop_spark();       // owner only
  std::optional<Obj*> steal_spark();     // any capability
  std::size_t spark_pool_size() const { return sparks_.size(); }
  /// Applies `f` to every spark slot in place. Owner only, and only while
  /// all thieves are stopped (GC root walking, sanity audits, tests).
  template <typename F>
  void for_each_spark_slot(F&& f) { sparks_.for_each_slot(std::forward<F>(f)); }

  SparkStats& spark_stats() { return spark_stats_; }
  const SparkStats& spark_stats() const { return spark_stats_; }

  /// Words allocated since the last allocation check (GC-barrier polling).
  std::uint64_t alloc_debt = 0;
  /// True while the capability advertises itself as idle (PushOnPoll
  /// scheme uses this to decide where to push surplus work). Written by
  /// the owner, read by busy capabilities deciding where to push —
  /// relaxed is enough, it is a heuristic hint: a stale read only delays
  /// or skips one push, both of which the scheduler already tolerates.
  std::atomic<bool> idle{false};
  /// The spark thread currently owned by this capability, if any.
  Tso* spark_thread = nullptr;
  /// Number of this capability's threads currently blocked (black holes /
  /// placeholders) — used to render the paper's "red" trace state.
  std::atomic<std::uint32_t> n_blocked{0};

 private:
  friend class Machine;
  std::uint32_t id_;
  Machine& m_;
  std::deque<Tso*> run_queue_;
  mutable std::mutex rq_mutex_;
  WsDeque<Obj*> sparks_;
  SparkStats spark_stats_;
  // The lock bank sits between two line-sized pads, so the other
  // capabilities' writes (steals, wakeups, their own banks) never share
  // a cache line with it.
  [[maybe_unused]] char pad_before_[64];
  LockBank locks_;
  [[maybe_unused]] char pad_after_[64];
};

struct MachineStats {
  std::uint64_t threads_created = 0;
  std::atomic<std::uint64_t> duplicate_updates{0};  // wasted work seen at update
  std::uint64_t blocked_on_blackhole = 0;
  std::uint64_t blocked_on_placeholder = 0;
  std::uint64_t threads_killed = 0;  // unwound by kill_thread (HeapOverflow, ...)
  // ThreadedDriver's GC barrier wait, summed over collections: the wall
  // time from the first capability reaching the barrier to the leader
  // starting collect().
  std::uint64_t gc_sync_ns = 0;
};

class Machine {
 public:
  Machine(const Program& prog, RtsConfig cfg);
  ~Machine();
  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  const Program& program() const { return prog_; }
  const RtsConfig& config() const { return cfg_; }

  /// Identity of this machine within a distributed (Eden) system, and a
  /// backpointer to that system for native communication frames.
  std::uint32_t pe_id = 0;
  void* user_data = nullptr;
  Heap& heap() { return *heap_; }
  std::uint32_t n_caps() const { return static_cast<std::uint32_t>(caps_.size()); }
  Capability& cap(std::uint32_t i) { return *caps_.at(i); }

  // --- evaluation ---------------------------------------------------------
  /// Runs one abstract-machine step of `t` on capability `c`. The step is
  /// transactional w.r.t. allocation: on NeedGc nothing was mutated and
  /// the step can be retried after a collection.
  StepOutcome step(Capability& c, Tso& t);

  /// Block-at-a-time dispatch loop for compiled activations (bceval.cpp).
  /// Entered from step() when --bytecode compiled the current activation;
  /// shares Enter/Ret (locking, black holes, updates, hooks) with the
  /// interpreter. Same transactional contract as step().
  StepOutcome step_bytecode(Capability& c, Tso& t);

  /// Compiled code for the program (nullptr unless cfg.bytecode).
  const bc::CodeBlob* bytecode() const { return bytecode_.get(); }

  /// Lazy black-holing (§IV.A.3): called when a thread is suspended; marks
  /// the thunks under evaluation by this thread as black holes. No-op
  /// under the Eager policy (they already are).
  void blackhole_pending_updates(Capability& c, Tso& t);

  // --- thread management ----------------------------------------------------
  /// Creates a runnable TSO that forces heap object `p` to WHNF.
  Tso* spawn_enter(Obj* p, std::uint32_t cap, bool enqueue = true);
  /// Creates a runnable TSO computing `f a1 .. an` for already-marshalled
  /// argument objects.
  Tso* spawn_apply(GlobalId f, const std::vector<Obj*>& args, std::uint32_t cap,
                   bool enqueue = true);
  /// Creates a runnable TSO that forces `p` to full normal form (deep).
  Tso* spawn_deep_force(Obj* p, std::uint32_t cap, bool enqueue = true);
  /// Thread lookup by id. Holds tso_mutex_ for the vector access: a
  /// concurrent spawn's push_back may reallocate the backing array, but
  /// the unique_ptr targets themselves are stable once created, so the
  /// returned pointer stays valid after the lock is dropped.
  Tso* tso(ThreadId id) {
    std::lock_guard<std::mutex> lock(tso_mutex_);
    return tsos_.at(id).get();
  }
  std::size_t tso_count() const {
    std::lock_guard<std::mutex> lock(tso_mutex_);
    return tsos_.size();
  }

  /// Unwinds thread `t` without running it: every black hole it owns is
  /// restored to a re-evaluable thunk (the Update frame recorded the body
  /// expression when the thunk was black-holed) and its waiters are woken
  /// to retry. The thread finishes with result == nullptr and `error` set.
  /// Used by the drivers to make HeapOverflow kill only its victim.
  void kill_thread(Capability& c, Tso& t, const char* why);

  /// Blocked-thread analysis (replaces the idle-spin deadlock heuristic):
  /// follows each blocked thread to the owner of the black hole it waits
  /// on and reports genuine cycles (NonTermination) separately from
  /// starvation (no local producer — e.g. an unfed Eden placeholder).
  /// Mutators must be quiescent.
  DeadlockDiagnosis diagnose_deadlock();

  /// Attaches a fault injector (forced allocation failures); non-owning,
  /// nullptr detaches.
  void set_fault(FaultInjector* f) { fault_ = f; }
  FaultInjector* fault() const { return fault_; }

  // --- cooperative cancellation ---------------------------------------------
  /// Polled inside step() every kCancelPollSteps transitions — the same
  /// cadence class as the allocation check, and in the serve workers the
  /// hook doubles as the heartbeat tick. A non-null return is a kill
  /// reason: the running thread is unwound via kill_thread (it finishes
  /// with result == nullptr and `error` set to the reason), so a deadline
  /// or a client cancel reaches a long evaluation mid-quantum instead of
  /// waiting for it to complete. The hook must not re-enter the Machine.
  using CancelFn = std::function<const char*(const Tso&)>;
  void set_cancel_hook(CancelFn f) { cancel_ = std::move(f); }
  static constexpr std::uint32_t kCancelPollSteps = 128;

  // --- scheduling primitives (shared by every driver) -----------------------
  /// The scheduler quantum: steps q.active on `c` for at most `budget`
  /// steps of its quantum (cfg.quantum_steps). It owns everything that
  /// happens to the thread: the heap-overflow escalation (see Quantum),
  /// black-holing and release on Blocked, root detection and spark-thread
  /// continuation on Finished (a thread finished with `error` set is
  /// released, not continued), and black-holing plus requeue on expiry.
  /// The driver picks q.active, collects on NeedGc and keeps the clock.
  template <typename Hook>
  QuantumEnd run_quantum(Capability& c, Quantum& q, const Tso* root,
                         std::uint32_t budget, Hook&& hook);
  /// Picks the next thread for `c`: run queue first, then local sparks
  /// (per SparkRunPolicy). Returns nullptr if the capability has no local
  /// work. Does not steal — the driver decides when to pay for stealing.
  Tso* schedule_next(Capability& c);
  /// One steal attempt (WorkPolicy::Steal): round-robin over victims.
  /// Returns a TSO running the stolen spark, or nullptr.
  Tso* try_steal(Capability& thief);
  /// PushOnPoll: offload surplus sparks/threads from `c` to idle
  /// capabilities. Called only when c's scheduler runs (context switch) —
  /// reproducing the delayed load balancing of GHC 6.8.x.
  void push_work(Capability& c);
  /// Called when a spark thread finishes one spark: feeds it the next
  /// spark (local, else steal) or retires it. Returns false if retired.
  bool spark_thread_continue(Capability& c, Tso& t);
  /// Any spark anywhere? (spark threads exit when this is false).
  bool sparks_anywhere() const;
  /// Any runnable work anywhere (threads or sparks)?
  bool work_anywhere() const;

  // --- statics & CAFs --------------------------------------------------------
  Obj* small_int(std::int64_t v);            // static cache for |v| <= 1024
  Obj* static_fun(GlobalId g);               // arity>0 globals as values
  Obj* static_con(std::uint16_t tag);        // shared nullary constructors
  Obj* caf_cell(GlobalId g);                 // updatable 0-arity global cell

  // --- black-hole / placeholder wait queues -----------------------------------
  // A black hole's or placeholder's queue slot is read and written only
  // under the object's lock_obj stripe, which every caller holds.
  void block_on(Obj* bh_or_ph, Tso& t);
  void wake_queue_of(Obj* obj);  // wakes + frees the queue of obj (if any)
  /// Performs a thunk update: target becomes an indirection to value,
  /// waiters are woken, duplicate updates are counted and discarded.
  void update(Capability& c, Obj* target, Obj* value);

  // --- Eden hooks ---------------------------------------------------------------
  /// Allocates a placeholder standing for data arriving on `inport`.
  /// Mutators must be stopped or the call made from the owning capability.
  Obj* new_placeholder(std::uint32_t cap, std::uint64_t inport);
  /// Fills a placeholder with a value (message arrival) and wakes waiters.
  void fill_placeholder(Capability& c, Obj* ph, Obj* value);

  // --- GC ------------------------------------------------------------------------
  /// Runs a collection. ALL mutators must be stopped (the drivers enforce
  /// the barrier). While concurrent (ThreadedDriver) and gc_threads > 1,
  /// it leads a parallel collection whose team is the parked
  /// capabilities; otherwise it runs the sequential collector. Returns
  /// words copied (the pause-cost proxy).
  std::uint64_t collect(bool force_major = false);
  /// Registers an extra root-walking callback (Eden inport tables, host
  /// marshalling guards).
  using RootWalkFn = std::function<void(Gc&)>;
  std::size_t add_root_walker(RootWalkFn fn);
  void remove_root_walker(std::size_t idx);
  /// Allocation helper for host code running while mutators are stopped:
  /// retries through a GC, then a forced major GC (which grows the old
  /// generation), before raising HeapOverflow (protect live temporaries
  /// with root walkers).
  Obj* alloc_with_gc(std::uint32_t cap, ObjKind kind, std::uint16_t tag,
                     std::uint32_t payload_words);

  /// Verifies every root points into a live space (enable after each GC
  /// with the PARHASK_GC_VALIDATE environment variable; used to chase
  /// missed roots). A failure raises RtsInternalError carrying the
  /// offending TSO/slot/object header and a heap census. `when` labels
  /// the report.
  void validate_roots(const char* when);

  /// The -DS sanity auditor (src/rts/sanity.cpp): a full heap walk plus
  /// scheduler-state checks — object headers/sizes, no stale forwarding
  /// pointers outside GC, pointer fields landing in live regions,
  /// black-hole/update-frame consistency, spark slots holding valid
  /// objects, run-queue/wait-queue coherence. Mutators must be stopped.
  /// A violation raises RtsInternalError with the offending slot and a
  /// heap census; `when` labels the report.
  void sanity_check(const char* when);

  MachineStats& stats() { return stats_; }
  const MachineStats& stats() const { return stats_; }

  /// The doorbell idle capabilities park on (ThreadedDriver). Rung by
  /// every push that can make a parked capability runnable: a spark, a new
  /// thread, a black-hole or placeholder wake, push_work.
  Parker& parker() { return parker_; }

  /// Enables the striped object locks serialising thunk entry / update /
  /// black-holing, and the parallel collector in collect(). Engaged by the
  /// threaded driver; the (single-OS-thread) simulation drivers leave it
  /// off and pay nothing.
  void set_concurrent(bool on) { concurrent_ = on; }
  bool concurrent() const { return concurrent_; }
  /// Locks the transition stripe for `o` (no-op lock when not concurrent).
  /// An object in a capability's nursery takes its stripe from that
  /// capability's bank, so a capability entering and updating the thunks
  /// it allocated touches only its own lock lines; old-generation and
  /// static objects use the shared bank. The choice is a pure function of
  /// the address, which only a stop-the-world collection changes.
  std::unique_lock<std::mutex> lock_obj(Obj* o) {
    if (!concurrent_) return std::unique_lock<std::mutex>();
    const std::uint32_t nid = heap_->nursery_of(o);
    LockBank& bank = nid == Heap::kNoNursery ? shared_locks_ : caps_[nid]->locks_;
    const std::size_t h = (reinterpret_cast<std::uintptr_t>(o) >> 4) % bank.size();
    return std::unique_lock<std::mutex>(bank[h]);
  }

  /// Aggregated spark stats over all capabilities.
  SparkStats total_spark_stats() const;

 private:
  friend class Capability;
  Tso* new_tso(std::uint32_t cap);
  /// Queues a new thread on `cap` and rings the doorbell.
  void push_new(std::uint32_t cap, Tso* t);
  void walk_roots(Gc& gc);
  void walk_tso(Gc& gc, Tso& t);
  void walk_cap_sparks(Gc& gc, Capability& c);
  std::vector<Heap::RootWalker> root_shards();
  Tso* run_spark(Capability& c, Obj* spark_obj, bool as_spark_thread);

  struct WaitQueue {
    std::vector<ThreadId> waiters;
    bool in_use = false;
  };

  const Program& prog_;
  RtsConfig cfg_;
  std::shared_ptr<const bc::CodeBlob> bytecode_;
  std::unique_ptr<Heap> heap_;
  std::vector<std::unique_ptr<Capability>> caps_;
  std::vector<std::unique_ptr<Tso>> tsos_;
  mutable std::mutex tso_mutex_;  // guards tsos_ growth vs concurrent lookup

  std::vector<WaitQueue> wait_queues_;
  std::vector<std::size_t> wait_queue_free_;
  std::mutex wait_mutex_;

  // Statics (immortal, unscanned): small ints, function values, nullary
  // constructors; plus updatable CAF cells (old-gen objects, GC roots).
  std::vector<Obj*> small_ints_;
  std::vector<Obj*> static_funs_;
  std::vector<Obj*> static_cons_;
  std::vector<Obj*> caf_cells_;

  std::vector<RootWalkFn> root_walkers_;
  std::mutex steal_mutex_;
  std::uint32_t steal_rr_ = 0;

  LockBank shared_locks_;  // lock_obj stripes for old-generation and static objects
  bool concurrent_ = false;
  FaultInjector* fault_ = nullptr;
  CancelFn cancel_;
  std::uint32_t cancel_tick_ = 0;

  MachineStats stats_;
  // Last, and 64-byte aligned: the doorbell's words get a cache line of
  // their own, away from the members the mutators touch.
  Parker parker_;
};

template <typename Hook>
QuantumEnd Machine::run_quantum(Capability& c, Quantum& q, const Tso* root,
                                std::uint32_t budget, Hook&& hook) {
  Tso& t = *q.active;
  const std::uint32_t quantum = cfg_.quantum_steps;
  for (std::uint32_t n = 0; n < budget && q.used < quantum; ++n) {
    q.used++;
    if (hook.before_step()) return QuantumEnd::Slice;
    const StepOutcome out = step(c, t);
    if (hook.after_step(out)) return QuantumEnd::Slice;
    switch (out) {
      case StepOutcome::Ok:
        q.oom_tso = nullptr;  // progress: the allocation went through
        q.oom_streak = 0;
        continue;
      case StepOutcome::NeedGc:
        if (q.oom_tso == &t) {
          q.oom_streak++;
        } else {
          q.oom_tso = &t;
          q.oom_streak = 1;
        }
        if (q.oom_streak < 3) return QuantumEnd::NeedGc;
        kill_thread(c, t, "heap overflow");
        q = Quantum{};
        return QuantumEnd::Killed;
      case StepOutcome::Blocked:
        blackhole_pending_updates(c, t);
        q.release();
        return QuantumEnd::Released;
      case StepOutcome::Finished:
        if (&t != root && t.error == nullptr && t.is_spark_thread &&
            spark_thread_continue(c, t)) {
          hook.spark_switch();
          continue;
        }
        q.release();
        return &t == root ? QuantumEnd::RootDone : QuantumEnd::Released;
    }
  }
  if (q.used < quantum) return QuantumEnd::Slice;
  // Quantum expired: context switch. The scheduler runs, so lazy
  // black-holing happens here (§IV.A.3).
  blackhole_pending_updates(c, t);
  t.state = ThreadState::Runnable;
  c.push_thread(&t);
  q.release();
  return QuantumEnd::Expired;
}

/// RAII guard keeping host-held heap pointers alive across collections
/// triggered by Machine::alloc_with_gc.
class RootGuard {
 public:
  RootGuard(Machine& m, std::vector<Obj*>& slots)
      : m_(m), idx_(m.add_root_walker([&slots](Gc& gc) {
          for (Obj*& s : slots)
            if (s != nullptr) gc.evacuate(s);
        })) {}
  ~RootGuard() { m_.remove_root_walker(idx_); }
  RootGuard(const RootGuard&) = delete;
  RootGuard& operator=(const RootGuard&) = delete;

 private:
  Machine& m_;
  std::size_t idx_;
};

}  // namespace ph
