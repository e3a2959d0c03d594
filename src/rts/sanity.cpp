// The -DS sanity auditor (GHC's +RTS -DS): paranoid whole-heap and
// scheduler-state checking at safe points.
//
// Runs after every collection (Machine::collect) and at driver shutdown
// when RtsConfig::sanity is set (or the PARHASK_SANITY environment
// variable is present). All mutators must be stopped — the walk takes no
// object locks and trusts quiescence, exactly like the collector.
//
// Invariants checked (violations raise RtsInternalError with the bad
// slot's identity and a heap census):
//   H1  every heap object has a valid header: kind within the ObjKind
//       range and a footprint that stays inside its region's allocation
//       frontier (a corrupt size would derail any subsequent walk);
//   H2  no object carries the static flag inside a movable region, and no
//       object still carries the parallel collector's GC-busy claim flag
//       (a busy header outside a collection is a torn forwarding: a worker
//       claimed the object but its Fwd publish never happened);
//   H3  no stale Fwd headers outside a collection;
//   H4  every pointer field designated by the scan rules is non-null and
//       lands in a live region — a closed to-space segment or the open
//       allocation tail of the old gen (block-allocator holes between
//       segments do NOT count), a live nursery prefix, or the statics;
//   H5  black-hole / placeholder wait-queue indices are either kNoQueue or
//       refer to an in-use wait queue;
//   W1  every waiter recorded in an in-use wait queue is a valid TSO in
//       the matching Blocked state;
//   Q1  every TSO in a run queue is Runnable and queued exactly once;
//   Q2  a blocked TSO is never queued as runnable;
//   B1  every black hole with blocked waiters has an owner: some live
//       TSO holds an Update frame for it (lazy black-holing can create
//       several owners — duplicated evaluation — but never zero, because
//       kill_thread restores the thunk and wakes waiters when an owner
//       dies);
//   U1  Update frames point at updatable (or already-updated) objects,
//       never at a Fwd or a Placeholder;
//   V1  the value counts a live TSO's frames record sum exactly to the
//       size of its value stack, and a Finished TSO's value stack is
//       empty; every value-stack, code.env and code.scratch slot holds a
//       live, non-Fwd object;
//   S1  spark-pool slots and CAF cells hold valid, live, non-Fwd objects.
#include <algorithm>
#include <cstdlib>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "rts/machine.hpp"

namespace ph {

namespace {

const char* kind_name(int k) {
  static const char* names[8] = {"Int",       "Con", "Thunk",       "Ind",
                                 "BlackHole", "Pap", "Placeholder", "Fwd"};
  return (k >= 0 && k < 8) ? names[k] : "<invalid>";
}

}  // namespace

void Machine::sanity_check(const char* when) {
  // One failure aborts the audit: with a corrupt heap, every further
  // probe (even the census) must stay within what has been validated.
  auto fail = [&](const std::string& what, ThreadId tid, const Obj* o,
                  const std::string& detail) {
    const int kind = o != nullptr ? static_cast<int>(o->kind) : -1;
    std::string msg = std::string("sanity check failure (") + when + "): " +
                      what + " — " + detail;
    if (tid != kNoThread) msg += " [tso " + std::to_string(tid) + "]";
    msg += " (object kind " + std::to_string(kind) + " = " + kind_name(kind) + ")";
    HeapCensus census;
    if (o == nullptr || static_cast<std::uint8_t>(o->kind) <
                            static_cast<std::uint8_t>(ObjKind::Fwd) + 1) {
      // The census walks the heap by header sizes itself; only take it
      // when the offending header cannot send it out of bounds.
      census = heap_->census();
      msg += "; heap: " + census.summary();
    }
    throw RtsInternalError(msg, tid, what, kind, std::move(census));
  };

  // in_live_old is deliberately tighter than in_old: pointers into a
  // block-allocator hole (or past the allocation frontier) are corruption
  // even though they land inside the old generation's address range.
  auto live = [&](const Obj* p) {
    return heap_->in_live_old(p) || heap_->in_nursery(p) || heap_->in_static(p);
  };

  auto queue_ok = [&](Word qi) {
    if (qi == kNoQueue) return true;
    return qi < wait_queues_.size() && wait_queues_[static_cast<std::size_t>(qi)].in_use;
  };

  // --- H1..H5: full heap walk --------------------------------------------
  heap_->walk_objects([&](Obj* o, const char* region, std::uint32_t ridx,
                          const Word* limit) {
    const std::string where =
        std::string(region) + " region " + std::to_string(ridx);
    if (static_cast<std::uint8_t>(o->kind) > static_cast<std::uint8_t>(ObjKind::Fwd))
      fail("heap.header", kNoThread, o,
           "object in " + where + " has kind byte " +
               std::to_string(static_cast<int>(o->kind)) + " outside the ObjKind range");
    // Allocation granularity reserves one payload word even for size 0
    // (room for a forwarding pointer), so the walk stride is 1+max(1,size).
    const std::size_t span = 1 + std::max<std::uint32_t>(1, o->size);
    if (reinterpret_cast<const Word*>(o) + span > limit)
      fail("heap.size", kNoThread, o,
           "object in " + where + " has footprint " + std::to_string(span) +
               "w overrunning the region's allocation frontier");
    if (o->is_static())
      fail("heap.flags", kNoThread, o,
           "movable object in " + where + " carries the static flag");
    if ((o->flags & kFlagGcBusy) != 0)
      fail("heap.flags", kNoThread, o,
           "object in " + where + " still carries the GC-busy claim flag "
           "outside a collection (torn forwarding)");
    if (o->kind == ObjKind::Fwd)
      fail("heap.fwd", kNoThread, o,
           "stale forwarding pointer in " + where + " outside a collection");
    for (std::uint32_t i = o->ptrs_first(); i < o->ptrs_last(); ++i) {
      const Obj* q = o->ptr_payload()[i];
      if (q == nullptr)
        fail("heap.field", kNoThread, o,
             "pointer field " + std::to_string(i) + " of object in " + where +
                 " is null");
      if (!live(q))
        fail("heap.field", kNoThread, o,
             "pointer field " + std::to_string(i) + " of object in " + where +
                 " points outside every live region");
    }
    if (o->kind == ObjKind::BlackHole && !queue_ok(o->payload()[0]))
      fail("heap.queue", kNoThread, o,
           "black hole in " + where + " names wait queue " +
               std::to_string(o->payload()[0]) + " which is not in use");
    if (o->kind == ObjKind::Placeholder && !queue_ok(o->payload()[1]))
      fail("heap.queue", kNoThread, o,
           "placeholder in " + where + " names wait queue " +
               std::to_string(o->payload()[1]) + " which is not in use");
  });

  // --- Q1/Q2: run-queue coherence ----------------------------------------
  std::unordered_map<const Tso*, std::uint32_t> queued;
  for (auto& c : caps_) {
    std::lock_guard<std::mutex> lock(c->rq_mutex_);
    for (const Tso* t : c->run_queue_) {
      if (t == nullptr)
        fail("runq", kNoThread, nullptr,
             "null TSO in run queue of capability " + std::to_string(c->id()));
      if (++queued[t] > 1)
        fail("runq", t->id, nullptr,
             "TSO queued more than once (last seen on capability " +
                 std::to_string(c->id()) + ")");
      if (t->state != ThreadState::Runnable)
        fail("runq", t->id, nullptr,
             "TSO on run queue of capability " + std::to_string(c->id()) +
                 " has state " + std::to_string(static_cast<int>(t->state)) +
                 " (expected Runnable)");
    }
  }

  // --- W1: wait-queue coherence ------------------------------------------
  std::unordered_set<ThreadId> waiting;
  {
    std::lock_guard<std::mutex> lock(wait_mutex_);
    for (std::size_t qi = 0; qi < wait_queues_.size(); ++qi) {
      const WaitQueue& q = wait_queues_[qi];
      if (!q.in_use) {
        if (!q.waiters.empty())
          fail("waitq", kNoThread, nullptr,
               "free wait queue " + std::to_string(qi) + " still holds " +
                   std::to_string(q.waiters.size()) + " waiters");
        continue;
      }
      for (ThreadId tid : q.waiters) {
        if (tid >= tsos_.size())
          fail("waitq", tid, nullptr,
               "wait queue " + std::to_string(qi) + " names a nonexistent TSO");
        const Tso& t = *tsos_[tid];
        if (t.state != ThreadState::BlockedOnBlackHole &&
            t.state != ThreadState::BlockedOnPlaceholder)
          fail("waitq", tid, nullptr,
               "waiter on queue " + std::to_string(qi) + " has state " +
                   std::to_string(static_cast<int>(t.state)) +
                   " (expected a Blocked state)");
        if (queued.count(&t) != 0)
          fail("waitq", tid, nullptr,
               "blocked TSO is simultaneously on a run queue");
        waiting.insert(tid);
      }
    }
  }
  for (auto& tp : tsos_) {
    const Tso& t = *tp;
    if ((t.state == ThreadState::BlockedOnBlackHole ||
         t.state == ThreadState::BlockedOnPlaceholder) &&
        waiting.count(t.id) == 0)
      fail("waitq", t.id, nullptr,
           "blocked TSO appears on no in-use wait queue");
  }

  // --- B1/U1: black-hole / update-frame consistency ----------------------
  std::unordered_set<const Obj*> owned;  // objects some live Update frame covers
  for (auto& tp : tsos_) {
    Tso& t = *tp;
    if (t.state == ThreadState::Finished) continue;
    for (const Frame& f : t.stack) {
      if (f.kind != FrameKind::Update) continue;
      const Obj* o = f.obj;
      if (o == nullptr)
        fail("frame.obj", t.id, nullptr, "Update frame with a null target");
      // A pointer outside every live region must not be dereferenced even
      // to report its kind — pass nullptr to fail() instead.
      if (!live(o))
        fail("frame.obj", t.id, nullptr,
             "Update frame target points outside every live region");
      if (o->kind == ObjKind::Fwd || o->kind == ObjKind::Placeholder)
        fail("frame.obj", t.id, o,
             "Update frame targets an object that can never be updated");
      owned.insert(o);
    }
  }
  heap_->walk_objects([&](Obj* o, const char* region, std::uint32_t ridx,
                          const Word* limit) {
    (void)limit;
    if (o->kind != ObjKind::BlackHole) return;
    const Word qi = o->payload()[0];
    if (qi == kNoQueue) return;
    bool has_waiters;
    {
      std::lock_guard<std::mutex> lock(wait_mutex_);
      has_waiters = !wait_queues_[static_cast<std::size_t>(qi)].waiters.empty();
    }
    if (has_waiters && owned.count(o) == 0)
      fail("blackhole.owner", kNoThread, o,
           std::string("black hole with blocked waiters in ") + region +
               " region " + std::to_string(ridx) +
               " has no owning Update frame (its evaluator is gone)");
  });

  // --- V1: value stacks and Code registers -------------------------------
  for (auto& tp : tsos_) {
    const Tso& t = *tp;
    std::size_t counted = 0;
    for (const Frame& f : t.stack) counted += f.saved();
    if (t.state == ThreadState::Finished && !t.vstack.empty())
      fail("vstack", t.id, nullptr,
           "finished TSO still holds " + std::to_string(t.vstack.size()) +
               " value-stack slots");
    if (t.state != ThreadState::Finished && counted != t.vstack.size())
      fail("vstack", t.id, nullptr,
           "frames record " + std::to_string(counted) +
               " saved values but the value stack holds " + std::to_string(t.vstack.size()));
    auto check_slots = [&](const std::vector<Obj*>& slots, const char* what) {
      for (std::size_t i = 0; i < slots.size(); ++i) {
        const Obj* p = slots[i];
        if (p == nullptr || !live(p))
          fail(what, t.id, nullptr,
               std::string(what) + " slot " + std::to_string(i) +
                   " points outside every live region");
        if (p->kind == ObjKind::Fwd)
          fail(what, t.id, p,
               std::string(what) + " slot " + std::to_string(i) +
                   " holds a stale forwarding pointer");
      }
    };
    check_slots(t.vstack, "vstack");
    check_slots(t.code.env, "code.env");
    check_slots(t.code.scratch, "code.scratch");
  }

  // --- S1: spark pools and CAF cells --------------------------------------
  for (auto& c : caps_) {
    std::size_t slot = 0;
    c->sparks_.for_each_slot([&](Obj*& s) {
      const std::string id = "spark slot " + std::to_string(slot) +
                             " of capability " + std::to_string(c->id());
      if (s == nullptr) fail("spark", kNoThread, nullptr, id + " is null");
      if (!live(s)) fail("spark", kNoThread, nullptr, id + " points outside every live region");
      if (static_cast<std::uint8_t>(s->kind) > static_cast<std::uint8_t>(ObjKind::Fwd))
        fail("spark", kNoThread, s, id + " targets an object with a corrupt header");
      if (s->kind == ObjKind::Fwd)
        fail("spark", kNoThread, s, id + " targets a stale forwarding pointer");
      slot++;
    });
  }
  for (std::size_t i = 0; i < caf_cells_.size(); ++i) {
    const Obj* cc = caf_cells_[i];
    if (cc == nullptr) continue;
    if (!live(cc))
      fail("caf", kNoThread, nullptr,
           "CAF cell " + std::to_string(i) + " points outside every live region");
    if (cc->kind == ObjKind::Fwd)
      fail("caf", kNoThread, cc,
           "CAF cell " + std::to_string(i) + " holds a stale forwarding pointer");
  }
}

}  // namespace ph
