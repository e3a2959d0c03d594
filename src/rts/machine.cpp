#include "rts/machine.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <unordered_map>

#include "core/lint/lint.hpp"
#include "eval/bytecode.hpp"
#include "rts/schedtest.hpp"

namespace ph {

// ---------------------------------------------------------------------------
// Capability
// ---------------------------------------------------------------------------

void Capability::push_thread(Tso* t) {
  std::lock_guard<std::mutex> lock(rq_mutex_);
  run_queue_.push_back(t);
}

void Capability::push_thread_front(Tso* t) {
  std::lock_guard<std::mutex> lock(rq_mutex_);
  run_queue_.push_front(t);
}

Tso* Capability::pop_thread() {
  std::lock_guard<std::mutex> lock(rq_mutex_);
  if (run_queue_.empty()) return nullptr;
  Tso* t = run_queue_.front();
  run_queue_.pop_front();
  return t;
}

std::size_t Capability::run_queue_len() const {
  std::lock_guard<std::mutex> lock(rq_mutex_);
  return run_queue_.size();
}

void Capability::spark(Obj* p) {
  Obj* v = follow(p);
  if (is_whnf_acquire(v)) {
    spark_stats_.dud++;
    return;
  }
  if (sparks_.size() >= m_.config().spark_pool_capacity) {
    spark_stats_.overflowed++;
    return;
  }
  // Under PushOnPoll other capabilities push into this pool (the old GHC
  // 6.8.x scheme), so the deque degenerates to a lock-protected queue; the
  // lock-free owner/thief discipline only holds under WorkPolicy::Steal.
  if (m_.config().work == WorkPolicy::PushOnPoll) {
    std::lock_guard<std::mutex> lock(rq_mutex_);
    sparks_.push(p);
  } else {
    sparks_.push(p);
  }
  spark_stats_.created++;
}

bool Capability::accept_pushed_spark(Obj* p, SparkStats& pusher_stats) {
  Obj* v = follow(p);
  if (is_whnf_acquire(v)) {
    pusher_stats.fizzled++;
    return true;
  }
  // The pool lock also covers the capacity probe: several busy
  // capabilities may be pushing into the same idle pool at once.
  std::lock_guard<std::mutex> lock(rq_mutex_);
  if (sparks_.size() >= m_.config().spark_pool_capacity) {
    pusher_stats.overflowed++;
    return false;
  }
  sparks_.push(p);
  // No created++: the spark was counted when the pusher created it.
  return true;
}

std::optional<Obj*> Capability::pop_spark() {
  if (m_.config().work == WorkPolicy::PushOnPoll) {
    std::lock_guard<std::mutex> lock(rq_mutex_);
    return sparks_.pop();
  }
  return sparks_.pop();
}

std::optional<Obj*> Capability::steal_spark() { return sparks_.steal(); }

// ---------------------------------------------------------------------------
// Machine: construction & statics
// ---------------------------------------------------------------------------

namespace {
constexpr std::int64_t kSmallIntMin = -1024;
constexpr std::int64_t kSmallIntMax = 1024;
constexpr std::uint16_t kStaticConTags = 16;
}  // namespace

Machine::Machine(const Program& prog, RtsConfig cfg) : prog_(prog), cfg_(std::move(cfg)) {
  if (!prog_.validated()) throw ProgramError("program must be validated before running");
  // +RTS -DL: Core Lint at load time. Every driver (sim, threaded, Eden
  // sim, Eden rt) funnels its program through this constructor, so one
  // hook covers all four.
  if (cfg_.lint) lint_or_throw(prog_, {}, "load");
  if (cfg_.bytecode) {
    // Only linted programs are compiled (ISSUE: "lower linted
    // supercombinator Programs"); --bytecode without --lint still lints.
    if (!cfg_.lint) lint_or_throw(prog_, {}, "bytecode");
    bytecode_ = bc::shared_cache().get_or_compile(prog_, cfg_.code_cache);
  }
  if (cfg_.n_caps == 0) throw ProgramError("machine needs at least one capability");
  cfg_.heap.n_nurseries = cfg_.n_caps;
  cfg_.heap.gc_threads = cfg_.gc_threads == 0 ? cfg_.n_caps : cfg_.gc_threads;
  heap_ = std::make_unique<Heap>(cfg_.heap);
  caps_.reserve(cfg_.n_caps);
  for (std::uint32_t i = 0; i < cfg_.n_caps; ++i)
    caps_.push_back(std::make_unique<Capability>(*this, i, cfg_.spark_pool_capacity));

  small_ints_.resize(static_cast<std::size_t>(kSmallIntMax - kSmallIntMin + 1));
  for (std::int64_t v = kSmallIntMin; v <= kSmallIntMax; ++v) {
    Obj* o = heap_->alloc_static(ObjKind::Int, 0, 1);
    o->payload()[0] = static_cast<Word>(v);
    small_ints_[static_cast<std::size_t>(v - kSmallIntMin)] = o;
  }
  static_cons_.resize(kStaticConTags);
  for (std::uint16_t t = 0; t < kStaticConTags; ++t)
    static_cons_[t] = heap_->alloc_static(ObjKind::Con, t, 0);

  static_funs_.resize(prog_.global_count(), nullptr);
  caf_cells_.resize(prog_.global_count(), nullptr);
  for (std::size_t g = 0; g < prog_.global_count(); ++g) {
    const Global& gl = prog_.global(static_cast<GlobalId>(g));
    if (gl.arity > 0) {
      Obj* o = heap_->alloc_static(ObjKind::Pap, 0, 1);
      o->payload()[0] = static_cast<Word>(g);
      static_funs_[g] = o;
    } else {
      // CAF: an updatable thunk in the old generation, rooted forever.
      Obj* o = heap_->alloc_old(ObjKind::Thunk, 0, 1);
      o->payload()[0] = static_cast<Word>(gl.body);
      caf_cells_[g] = o;
    }
  }
}

Machine::~Machine() = default;

Obj* Machine::small_int(std::int64_t v) {
  if (v < kSmallIntMin || v > kSmallIntMax) return nullptr;
  return small_ints_[static_cast<std::size_t>(v - kSmallIntMin)];
}

Obj* Machine::static_fun(GlobalId g) {
  Obj* o = static_funs_.at(static_cast<std::size_t>(g));
  if (o == nullptr) throw EvalError("global is a CAF, not a function: " + prog_.global(g).name);
  return o;
}

Obj* Machine::static_con(std::uint16_t tag) {
  if (tag >= kStaticConTags) return nullptr;
  return static_cons_[tag];
}

Obj* Machine::caf_cell(GlobalId g) {
  Obj* o = caf_cells_.at(static_cast<std::size_t>(g));
  if (o == nullptr) throw EvalError("global is a function, not a CAF: " + prog_.global(g).name);
  return o;
}

// ---------------------------------------------------------------------------
// Thread management
// ---------------------------------------------------------------------------

Tso* Machine::new_tso(std::uint32_t cap) {
  std::lock_guard<std::mutex> lock(tso_mutex_);
  auto t = std::make_unique<Tso>();
  t->id = static_cast<ThreadId>(tsos_.size());
  t->home_cap = cap;
  stats_.threads_created++;
  tsos_.push_back(std::move(t));
  return tsos_.back().get();
}

Tso* Machine::spawn_enter(Obj* p, std::uint32_t cap, bool enqueue) {
  Tso* t = new_tso(cap);
  t->code.mode = CodeMode::Enter;
  t->code.ptr = p;
  if (enqueue) this->cap(cap).push_thread(t);
  return t;
}

Tso* Machine::spawn_apply(GlobalId f, const std::vector<Obj*>& args, std::uint32_t cap,
                          bool enqueue) {
  const Global& g = prog_.global(f);
  Tso* t = new_tso(cap);
  if (!args.empty()) {
    Frame fr;
    fr.kind = FrameKind::Apply;
    fr.ptrs = args;
    t->stack.push_back(std::move(fr));
  }
  t->code.mode = CodeMode::Enter;
  t->code.ptr = g.arity > 0 ? static_fun(f) : caf_cell(f);
  if (enqueue) this->cap(cap).push_thread(t);
  return t;
}

Tso* Machine::spawn_deep_force(Obj* p, std::uint32_t cap, bool enqueue) {
  Tso* t = new_tso(cap);
  Frame fr;
  fr.kind = FrameKind::ForceDeep;
  fr.obj = nullptr;
  t->stack.push_back(std::move(fr));
  t->code.mode = CodeMode::Enter;
  t->code.ptr = p;
  if (enqueue) this->cap(cap).push_thread(t);
  return t;
}

// ---------------------------------------------------------------------------
// Scheduling
// ---------------------------------------------------------------------------

namespace {
/// Pops local sparks until one that still needs evaluating is found.
Obj* next_useful_spark(Capability& c) {
  while (auto s = c.pop_spark()) {
    Obj* v = follow(*s);
    if (kind_acquire(v) == ObjKind::Thunk) return *s;
    c.spark_stats().fizzled++;
  }
  return nullptr;
}
}  // namespace

Tso* Machine::run_spark(Capability& c, Obj* spark_obj, bool as_spark_thread) {
  sched_hook::point(SchedPoint::SparkActivate, c.id());
  Tso* t = spawn_enter(spark_obj, c.id(), /*enqueue=*/false);
  t->is_spark_thread = as_spark_thread;
  c.spark_stats().converted++;
  if (as_spark_thread) c.spark_thread = t;
  return t;
}

Tso* Machine::schedule_next(Capability& c) {
  if (Tso* t = c.pop_thread()) return t;
  Obj* s = next_useful_spark(c);
  if (s == nullptr) return nullptr;
  return run_spark(c, s, cfg_.sparkrun == SparkRunPolicy::SparkThread);
}

Tso* Machine::try_steal(Capability& thief) {
  if (cfg_.work != WorkPolicy::Steal) return nullptr;
  const std::uint32_t n = n_caps();
  for (std::uint32_t k = 1; k < n; ++k) {
    Capability& victim = cap((thief.id() + k) % n);
    while (auto s = victim.steal_spark()) {
      Obj* v = follow(*s);
      // Counters stay single-writer per capability: the thief records the
      // steal/fizzle it observed, never the victim (two thieves on one
      // victim would race); total_spark_stats sums are unchanged.
      if (kind_acquire(v) != ObjKind::Thunk) {
        thief.spark_stats().fizzled++;
        continue;
      }
      thief.spark_stats().stolen++;
      return run_spark(thief, *s, cfg_.sparkrun == SparkRunPolicy::SparkThread);
    }
  }
  return nullptr;
}

void Machine::push_work(Capability& c) {
  // Surplus *threads* are pushed under both policies (§IV.A.2: "surplus
  // threads are still pushed actively to other capabilities").
  for (std::uint32_t i = 0; i < n_caps(); ++i) {
    if (i == c.id()) continue;
    Capability& v = cap(i);
    if (!v.idle.load(std::memory_order_relaxed)) continue;
    while (c.run_queue_len() > 1 && v.run_queue_len() == 0) {
      Tso* t = nullptr;
      {
        std::lock_guard<std::mutex> lock(c.rq_mutex_);
        if (c.run_queue_.size() <= 1) break;
        t = c.run_queue_.back();
        c.run_queue_.pop_back();
      }
      t->home_cap = i;
      v.push_thread(t);
    }
    if (cfg_.work == WorkPolicy::PushOnPoll) {
      // Old GHC 6.8.x scheme: push surplus sparks, but only now, while the
      // scheduler happens to be running on the busy capability.
      std::uint32_t moved = 0;
      while (moved < cfg_.push_batch && v.spark_pool_size() == 0) {
        Obj* s = next_useful_spark(c);
        if (s == nullptr) break;
        // Hand-over accounts against *our* stats: the victim's counters
        // stay single-writer even with several capabilities pushing.
        if (!v.accept_pushed_spark(s, c.spark_stats())) break;
        moved++;
      }
    }
  }
}

bool Machine::spark_thread_continue(Capability& c, Tso& t) {
  assert(t.is_spark_thread);
  // Spark threads yield to real threads at spark boundaries.
  if (c.run_queue_len() > 0) {
    c.spark_thread = nullptr;
    return false;
  }
  Obj* s = next_useful_spark(c);
  if (s == nullptr && cfg_.work == WorkPolicy::Steal) {
    const std::uint32_t n = n_caps();
    for (std::uint32_t k = 1; k < n && s == nullptr; ++k) {
      Capability& victim = cap((c.id() + k) % n);
      while (auto st = victim.steal_spark()) {
        Obj* v = follow(*st);
        // Single-writer: the stealing capability records the counts (see
        // try_steal).
        if (kind_acquire(v) != ObjKind::Thunk) {
          c.spark_stats().fizzled++;
          continue;
        }
        c.spark_stats().stolen++;
        s = *st;
        break;
      }
    }
  }
  if (s == nullptr) {
    c.spark_thread = nullptr;
    return false;
  }
  // Reuse the TSO for the next spark (the cheap loop of §IV.A.4).
  t.state = ThreadState::Runnable;
  t.result = nullptr;
  t.stack.clear();
  t.code = Code{};
  t.code.mode = CodeMode::Enter;
  t.code.ptr = s;
  c.spark_stats().converted++;
  return true;
}

bool Machine::sparks_anywhere() const {
  for (const auto& c : caps_)
    if (c->spark_pool_size() > 0) return true;
  return false;
}

bool Machine::work_anywhere() const {
  if (sparks_anywhere()) return true;
  for (const auto& c : caps_)
    if (c->run_queue_len() > 0) return true;
  return false;
}

SparkStats Machine::total_spark_stats() const {
  SparkStats s;
  for (const auto& c : caps_) {
    const SparkStats& cs = c->spark_stats();
    s.created += cs.created;
    s.dud += cs.dud;
    s.overflowed += cs.overflowed;
    s.converted += cs.converted;
    s.stolen += cs.stolen;
    s.fizzled += cs.fizzled;
    s.pruned += cs.pruned;
  }
  return s;
}

// ---------------------------------------------------------------------------
// Blocking, updates, placeholders
// ---------------------------------------------------------------------------

namespace {
inline std::uint32_t queue_slot(const Obj* o) {
  return o->kind == ObjKind::Placeholder ? 1u : 0u;
}
}  // namespace

void Machine::block_on(Obj* obj, Tso& t) {
  std::lock_guard<std::mutex> lock(wait_mutex_);
  const std::uint32_t slot = queue_slot(obj);
  Word qi = obj->payload()[slot];
  if (qi == kNoQueue) {
    if (!wait_queue_free_.empty()) {
      qi = wait_queue_free_.back();
      wait_queue_free_.pop_back();
    } else {
      qi = wait_queues_.size();
      wait_queues_.emplace_back();
    }
    wait_queues_[static_cast<std::size_t>(qi)].in_use = true;
    obj->payload()[slot] = qi;
  }
  wait_queues_[static_cast<std::size_t>(qi)].waiters.push_back(t.id);
  cap(t.home_cap).n_blocked.fetch_add(1, std::memory_order_relaxed);
  if (obj->kind == ObjKind::Placeholder) {
    t.state = ThreadState::BlockedOnPlaceholder;
    stats_.blocked_on_placeholder++;
  } else {
    t.state = ThreadState::BlockedOnBlackHole;
    stats_.blocked_on_blackhole++;
  }
}

void Machine::wake_queue_of(Obj* obj) {
  // The caller holds obj's transition lock, under which block_on also
  // writes the slot, so the slot cannot change under us: an update with
  // no waiter (nearly all of them) never touches wait_mutex_.
  const std::uint32_t slot = queue_slot(obj);
  const Word qi = obj->payload()[slot];
  if (qi == kNoQueue) return;
  std::vector<ThreadId> waiters;
  {
    std::lock_guard<std::mutex> lock(wait_mutex_);
    WaitQueue& q = wait_queues_.at(static_cast<std::size_t>(qi));
    waiters.swap(q.waiters);
    q.in_use = false;
    wait_queue_free_.push_back(static_cast<std::size_t>(qi));
    obj->payload()[slot] = kNoQueue;
  }
  for (ThreadId tid : waiters) {
    Tso* t = tso(tid);
    t->state = ThreadState::Runnable;
    cap(t->home_cap).n_blocked.fetch_sub(1, std::memory_order_relaxed);
    cap(t->home_cap).push_thread(t);
  }
}

void Machine::update(Capability& c, Obj* target, Obj* value) {
  auto lk = lock_obj(target);
  switch (target->kind) {
    case ObjKind::Thunk:
      break;
    case ObjKind::BlackHole:
      wake_queue_of(target);
      break;
    case ObjKind::Ind:
    case ObjKind::Int:
    case ObjKind::Con:
    case ObjKind::Pap:
      // Someone updated first: this thread duplicated the evaluation
      // (possible under lazy black-holing) — count the waste, drop ours.
      // A WHNF target arises when the winner's indirection was
      // short-circuited by a collection before we got here.
      stats_.duplicate_updates++;
      return;
    default:
      throw EvalError("update of a non-updatable object");
  }
  target->ptr_payload()[0] = value;
  set_kind_release(target, ObjKind::Ind);
  heap_->remember(c.id(), target);
}

Obj* Machine::new_placeholder(std::uint32_t capid, std::uint64_t inport) {
  Obj* o = alloc_with_gc(capid, ObjKind::Placeholder, 0, 2);
  o->payload()[0] = inport;
  o->payload()[1] = kNoQueue;
  return o;
}

void Machine::fill_placeholder(Capability& c, Obj* ph, Obj* value) {
  auto lk = lock_obj(ph);
  if (ph->kind != ObjKind::Placeholder) throw EvalError("fill of a non-placeholder");
  wake_queue_of(ph);
  ph->ptr_payload()[0] = value;
  set_kind_release(ph, ObjKind::Ind);
  heap_->remember(c.id(), ph);
}

// ---------------------------------------------------------------------------
// Lazy black-holing (§IV.A.3)
// ---------------------------------------------------------------------------

void Machine::blackhole_pending_updates(Capability& c, Tso& t) {
  (void)c;
  if (cfg_.blackhole == BlackholePolicy::Eager) return;  // already marked
  for (Frame& f : t.stack) {
    if (f.kind != FrameKind::Update) continue;
    Obj* target = f.obj;
    auto lk = lock_obj(target);
    if (target->kind == ObjKind::Thunk) {
      // Stash the body so kill_thread can restore the thunk if this
      // thread is unwound before completing the update.
      f.expr = static_cast<ExprId>(target->payload()[0]);
      target->payload()[0] = kNoQueue;
      set_kind_release(target, ObjKind::BlackHole);
    }
  }
}

// ---------------------------------------------------------------------------
// Thread unwinding & deadlock diagnosis
// ---------------------------------------------------------------------------

void Machine::kill_thread(Capability& c, Tso& t, const char* why) {
  (void)c;
  // If the victim is itself blocked it sits in some wait queue; pull it out
  // so a later wake cannot resurrect a finished thread.
  if (t.state == ThreadState::BlockedOnBlackHole ||
      t.state == ThreadState::BlockedOnPlaceholder) {
    std::lock_guard<std::mutex> lock(wait_mutex_);
    for (WaitQueue& q : wait_queues_) {
      if (!q.in_use) continue;
      auto it = std::find(q.waiters.begin(), q.waiters.end(), t.id);
      if (it != q.waiters.end()) {
        q.waiters.erase(it);
        cap(t.home_cap).n_blocked.fetch_sub(1, std::memory_order_relaxed);
        break;
      }
    }
  }
  // Undo the thread's claims: every black hole it owns becomes a thunk
  // again (the Update frame carries the body expression; the environment
  // pointers in the object were never touched), so waiters — woken below —
  // can redo the evaluation instead of hanging forever.
  for (auto it = t.stack.rbegin(); it != t.stack.rend(); ++it) {
    Frame& f = *it;
    if (f.kind != FrameKind::Update || f.obj == nullptr) continue;
    Obj* o = f.obj;
    auto lk = lock_obj(o);
    if (o->kind != ObjKind::BlackHole) continue;  // already updated / never holed
    if (f.expr != kNoExpr) {
      wake_queue_of(o);  // waiters re-enter and find a thunk
      o->payload()[0] = static_cast<Word>(f.expr);
      set_kind_release(o, ObjKind::Thunk);
    } else {
      // No recorded body (shouldn't happen): at least unblock the waiters.
      wake_queue_of(o);
    }
  }
  if (c.spark_thread == &t) c.spark_thread = nullptr;
  t.stack.clear();
  t.code = Code{};
  t.result = nullptr;
  t.state = ThreadState::Finished;
  t.error = why;
  stats_.threads_killed++;
}

DeadlockDiagnosis Machine::diagnose_deadlock() {
  DeadlockDiagnosis d;
  // Owner map: a black hole belongs to the thread holding its Update frame.
  std::unordered_map<const Obj*, ThreadId> owner;
  for (auto& tp : tsos_)
    for (const Frame& f : tp->stack)
      if (f.kind == FrameKind::Update && f.obj != nullptr &&
          f.obj->kind == ObjKind::BlackHole)
        owner[f.obj] = tp->id;

  auto is_blocked = [](const Tso& t) {
    return t.state == ThreadState::BlockedOnBlackHole ||
           t.state == ThreadState::BlockedOnPlaceholder;
  };
  // Successor edge: the owner of the object the thread is blocked on.
  // (Blocking leaves code as Enter(obj) — see Machine::block_on.)
  auto succ = [&](const Tso& t) -> ThreadId {
    if (!is_blocked(t) || t.code.ptr == nullptr) return kNoThread;
    Obj* o = follow(t.code.ptr);
    if (o->kind == ObjKind::BlackHole) {
      auto it = owner.find(o);
      if (it != owner.end()) return it->second;
    }
    return kNoThread;  // placeholder or ownerless black hole: no local producer
  };

  // Each node has at most one successor, so a colour-marked walk finds
  // every cycle in O(threads): 0 = unseen, 1 = on the current path, 2 = done.
  std::vector<std::uint8_t> colour(tsos_.size(), 0);
  for (auto& tp : tsos_) {
    if (!is_blocked(*tp) || colour[tp->id] != 0) continue;
    std::vector<ThreadId> path;
    ThreadId cur = tp->id;
    while (cur != kNoThread && colour[cur] == 0) {
      colour[cur] = 1;
      path.push_back(cur);
      cur = succ(*tsos_[cur]);
    }
    if (cur != kNoThread && colour[cur] == 1 && d.cycle.empty()) {
      auto start = std::find(path.begin(), path.end(), cur);
      d.cycle.assign(start, path.end());
    }
    for (ThreadId id : path) colour[id] = 2;
  }
  for (auto& tp : tsos_) {
    if (!is_blocked(*tp)) continue;
    const bool in_cycle =
        std::find(d.cycle.begin(), d.cycle.end(), tp->id) != d.cycle.end();
    if (!in_cycle && succ(*tp) == kNoThread) d.starved.push_back(tp->id);
  }
  if (!d.cycle.empty())
    d.kind = DeadlockKind::NonTermination;
  else if (!d.starved.empty())
    d.kind = DeadlockKind::Starvation;
  return d;
}

// ---------------------------------------------------------------------------
// GC
// ---------------------------------------------------------------------------

void Machine::walk_tso(Gc& gc, Tso& t) {
  if (t.code.ptr != nullptr) gc.evacuate(t.code.ptr);
  for (Obj*& p : t.code.env) gc.evacuate(p);
  for (Obj*& p : t.code.scratch) gc.evacuate(p);
  for (Frame& f : t.stack) {
    for (Obj*& p : f.env) gc.evacuate(p);
    if (f.obj != nullptr) gc.evacuate(f.obj);
    for (Obj*& p : f.ptrs) gc.evacuate(p);
  }
  if (t.result != nullptr) gc.evacuate(t.result);
}

namespace {
/// Is the spark target `p` already a value? Another GC worker may be
/// CASing the same header or rewriting an Ind's target word (see
/// Gc::evacuate_par), so both are read the way evacuate_par reads them:
/// the whole header word with acquire, the Ind target through atomic_ref.
bool spark_target_whnf(Obj* p) {
  for (;;) {
    const Obj hd = unpack_header(header_word(p).load(std::memory_order_acquire));
    if (hd.kind != ObjKind::Ind) return hd.is_whnf();
    p = std::atomic_ref<Obj*>(p->ptr_payload()[0]).load(std::memory_order_acquire);
  }
}
}  // namespace

void Machine::walk_cap_sparks(Gc& gc, Capability& c) {
  if (cfg_.gc_prune_sparks) {
    // GHC's pruneSparkQueue: drop sparks whose target is already in
    // WHNF (they would only fizzle later) and keep the rest, evacuated.
    std::vector<Obj*> keep;
    while (auto s = c.sparks_.pop()) {
      if (spark_target_whnf(*s)) {
        c.spark_stats().pruned++;
        continue;
      }
      keep.push_back(*s);
    }
    for (auto it = keep.rbegin(); it != keep.rend(); ++it) {
      gc.evacuate(*it);
      c.sparks_.push(*it);
    }
  } else {
    c.sparks_.for_each_slot([&gc](Obj*& s) { gc.evacuate(s); });
  }
}

void Machine::walk_roots(Gc& gc) {
  for (auto& t : tsos_) walk_tso(gc, *t);
  for (Obj*& c : caf_cells_)
    if (c != nullptr) gc.evacuate(c);
  for (auto& c : caps_) walk_cap_sparks(gc, *c);
  for (auto& fn : root_walkers_)
    if (fn) fn(gc);
}

/// Root partition for the parallel collector: one shard per capability
/// (that capability's spark pool plus a stride of the TSO table, so a run
/// with few capabilities but many threads still balances) and one extra
/// shard for the global roots (CAF cells, registered walkers). Slots are
/// disjoint across shards; slot *values* may alias — the collector's
/// header CAS arbitrates those.
std::vector<Heap::RootWalker> Machine::root_shards() {
  std::vector<Heap::RootWalker> shards;
  const std::size_t k = caps_.size();
  shards.reserve(k + 1);
  for (std::size_t i = 0; i < k; ++i) {
    shards.push_back([this, i, k](Gc& gc) {
      for (std::size_t t = i; t < tsos_.size(); t += k) walk_tso(gc, *tsos_[t]);
      walk_cap_sparks(gc, *caps_[i]);
    });
  }
  shards.push_back([this](Gc& gc) {
    for (Obj*& c : caf_cells_)
      if (c != nullptr) gc.evacuate(c);
    for (auto& fn : root_walkers_)
      if (fn) fn(gc);
  });
  return shards;
}

namespace {
bool valid_after_gc(const Heap& h, const Obj* p) {
  if (p == nullptr) return true;
  return p->is_static() || h.in_old(p);
}
}  // namespace

void Machine::validate_roots(const char* when) {
  auto check = [&](const Obj* p, const char* what, ThreadId tid) {
    if (!valid_after_gc(*heap_, p)) {
      const int kind = p ? static_cast<int>(p->kind) : -1;
      std::string msg = std::string("GC root consistency failure (") + when +
                        "): " + what + " of tso " + std::to_string(tid) +
                        " points outside the live heap (object kind " +
                        std::to_string(kind) + ")";
      HeapCensus census = heap_->census();
      msg += "; heap: " + census.summary();
      throw RtsInternalError(msg, tid, what, kind, std::move(census));
    }
  };
  for (auto& tp : tsos_) {
    Tso& t = *tp;
    check(t.code.ptr, "code.ptr", t.id);
    for (Obj* p : t.code.env) check(p, "code.env", t.id);
    for (Obj* p : t.code.scratch) check(p, "code.scratch", t.id);
    for (Frame& f : t.stack) {
      for (Obj* p : f.env) check(p, "frame.env", t.id);
      check(f.obj, "frame.obj", t.id);
      for (Obj* p : f.ptrs) check(p, "frame.ptrs", t.id);
    }
    check(t.result, "result", t.id);
  }
  for (Obj* c : caf_cells_)
    if (c) check(c, "caf", 0);
  for (auto& c : caps_)
    c->sparks_.for_each_slot([&](Obj*& s) { check(s, "spark", 0); });
}

std::uint64_t Machine::collect(bool force_major) {
  std::uint64_t r = heap_->gc_threads() > 1
                        ? heap_->collect(root_shards(), force_major)
                        : heap_->collect([this](Gc& gc) { walk_roots(gc); }, force_major);
  if (std::getenv("PARHASK_GC_VALIDATE") != nullptr) validate_roots("post-collect");
  if (cfg_.sanity || std::getenv("PARHASK_SANITY") != nullptr)
    sanity_check("post-collect");
  return r;
}

std::size_t Machine::add_root_walker(RootWalkFn fn) {
  for (std::size_t i = 0; i < root_walkers_.size(); ++i) {
    if (!root_walkers_[i]) {
      root_walkers_[i] = std::move(fn);
      return i;
    }
  }
  root_walkers_.push_back(std::move(fn));
  return root_walkers_.size() - 1;
}

void Machine::remove_root_walker(std::size_t idx) { root_walkers_.at(idx) = nullptr; }

Obj* Machine::alloc_with_gc(std::uint32_t capid, ObjKind kind, std::uint16_t tag,
                            std::uint32_t payload_words) {
  auto try_alloc = [&]() -> Obj* {
    if (fault_ != nullptr && fault_->fail_alloc(kNoThread)) return nullptr;
    return heap_->alloc(capid, kind, tag, payload_words);
  };
  Obj* o = try_alloc();
  if (o != nullptr) return o;
  collect();
  o = try_alloc();
  if (o != nullptr) return o;
  // Escalate: a forced major collection compacts and grows the old
  // generation, so this only fails when the request itself is hopeless.
  collect(/*force_major=*/true);
  o = try_alloc();
  if (o != nullptr) return o;
  throw HeapOverflow(kNoThread,
                     "allocation of " + std::to_string(payload_words) +
                         " payload words failed even after a forced major GC");
}

}  // namespace ph
