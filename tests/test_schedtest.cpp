// Systematic schedule exploration (src/rts/schedtest.hpp).
//
// The serial-mode tests drive genuinely schedule-dependent outcomes — the
// Chase–Lev pop/steal last-element race and black-hole entry ordering —
// and check the controller's core promise: an interleaving is a pure
// function of its printed key, so a run replays byte-identically from it.
// The perturb-mode tests attach the controller to full ThreadedDriver runs
// (this is what the TSan stress job in tools/tsan_stress.sh executes with
// many seeds).
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <set>
#include <string>
#include <thread>

#include "progs/sumeuler.hpp"
#include "rig.hpp"
#include "rts/schedtest.hpp"
#include "rts/threaded.hpp"
#include "rts/wsdeque.hpp"

namespace ph::test {
namespace {

// --- the pop/steal last-element race ---------------------------------------
// One element in the deque, the owner pops while a thief steals: exactly
// one of them may win, and which one depends purely on the interleaving.

std::string pop_steal_once(SchedController& c) {
  WsDeque<int> dq(8);
  dq.push(42);
  std::optional<int> ov, tv;
  std::thread owner([&] {
    SchedArena a(c, 0);
    ov = dq.pop();
  });
  std::thread thief([&] {
    SchedArena a(c, 1);
    tv = dq.steal();
  });
  owner.join();
  thief.join();
  EXPECT_NE(ov.has_value(), tv.has_value());  // exactly one winner
  if (ov.has_value()) {
    EXPECT_EQ(*ov, 42);
    return "owner";
  }
  if (tv.has_value()) {
    EXPECT_EQ(*tv, 42);
    return "thief";
  }
  return "lost";
}

std::string run_pop_steal(SchedPlan::Strategy strat, std::uint64_t seed) {
  SchedPlan p;
  p.strategy = strat;
  p.serial = true;
  p.seed = seed;
  p.schedules = 1;
  SchedController c(p);
  std::string out;
  c.explore(2, [&] { out = pop_steal_once(c); });
  return out;
}

TEST(SchedSerial, PopStealReplaysByteIdenticallyFromSeed) {
  for (std::uint64_t seed : {0ull, 1ull, 7ull, 12345ull, 0xdeadbeefull}) {
    const std::string a = run_pop_steal(SchedPlan::Strategy::Random, seed);
    const std::string b = run_pop_steal(SchedPlan::Strategy::Random, seed);
    EXPECT_EQ(a, b) << "seed " << seed << " did not replay";
  }
}

TEST(SchedSerial, PopStealBothOutcomesAppearAcrossSeeds) {
  std::set<std::string> outcomes;
  for (std::uint64_t seed = 0; seed < 100 && outcomes.size() < 2; ++seed)
    outcomes.insert(run_pop_steal(SchedPlan::Strategy::Random, seed));
  EXPECT_TRUE(outcomes.count("owner")) << "owner never won in 100 seeds";
  EXPECT_TRUE(outcomes.count("thief")) << "thief never won in 100 seeds";
}

TEST(SchedSerial, ExhaustiveEnumeratesBothOutcomes) {
  SchedPlan p;
  p.strategy = SchedPlan::Strategy::Exhaustive;
  p.serial = true;
  p.schedules = 0;  // until the bounded space is exhausted
  SchedController c(p);
  std::set<std::string> outcomes;
  std::set<std::string> keys;
  const std::uint64_t runs = c.explore(2, [&] {
    outcomes.insert(pop_steal_once(c));
    keys.insert(c.schedule_key());
  });
  EXPECT_GE(runs, 2u);
  EXPECT_EQ(keys.size(), runs) << "two schedules shared a decision trace";
  EXPECT_TRUE(outcomes.count("owner"));
  EXPECT_TRUE(outcomes.count("thief"));
}

TEST(SchedSerial, PctIsDeterministicPerSeed) {
  for (std::uint64_t seed : {3ull, 11ull, 42ull}) {
    const std::string a = run_pop_steal(SchedPlan::Strategy::Pct, seed);
    const std::string b = run_pop_steal(SchedPlan::Strategy::Pct, seed);
    EXPECT_EQ(a, b) << "PCT seed " << seed << " did not replay";
  }
}

TEST(SchedSerial, PrintedKeyReproducesEachExploredSchedule) {
  // Explore several random schedules, record each printed key with its
  // outcome, then replay every key as a fresh single-schedule plan: the
  // acceptance path a developer follows from a CI failure log.
  SchedPlan p;
  p.strategy = SchedPlan::Strategy::Random;
  p.serial = true;
  p.seed = 99;
  p.schedules = 6;
  SchedController c(p);
  std::vector<std::pair<std::string, std::string>> log;  // (key, outcome)
  c.explore(2, [&] { log.emplace_back(c.schedule_key(), pop_steal_once(c)); });
  ASSERT_EQ(log.size(), 6u);
  for (const auto& [key, outcome] : log) {
    const std::uint64_t seed = std::stoull(key);
    EXPECT_EQ(run_pop_steal(SchedPlan::Strategy::Random, seed), outcome)
        << "printed key " << key << " replayed a different interleaving";
  }
}

// --- black-hole entry ordering ---------------------------------------------
// Two TSOs enter the same thunk under eager black-holing: the first one in
// black-holes it and proceeds, the second blocks. Which thread blocks is
// purely a property of the schedule.

std::string blackhole_once(SchedController& c) {
  Rig r(nullptr, config_worksteal_eagerbh(2));
  Obj* th = make_apply_thunk(*r.m, 0, r.prog.find("enumFromTo"),
                             {make_int(*r.m, 0, 1), make_int(*r.m, 0, 4)});
  Tso* t1 = r.m->spawn_enter(th, 0, /*enqueue=*/false);
  Tso* t2 = r.m->spawn_enter(th, 1, /*enqueue=*/false);
  r.m->set_concurrent(true);
  StepOutcome o1{}, o2{};
  std::thread w1([&] {
    SchedArena a(c, 0);
    o1 = r.m->step(r.m->cap(0), *t1);
  });
  std::thread w2([&] {
    SchedArena a(c, 1);
    o2 = r.m->step(r.m->cap(1), *t2);
  });
  w1.join();
  w2.join();
  r.m->set_concurrent(false);
  EXPECT_NE(o1 == StepOutcome::Blocked, o2 == StepOutcome::Blocked)
      << "exactly one of the two entrants must block on the black hole";
  return o1 == StepOutcome::Blocked ? "t1-blocked" : "t2-blocked";
}

std::string run_blackhole(std::uint64_t seed) {
  SchedPlan p;
  p.strategy = SchedPlan::Strategy::Random;
  p.serial = true;
  p.seed = seed;
  p.schedules = 1;
  SchedController c(p);
  std::string out;
  c.explore(2, [&] { out = blackhole_once(c); });
  return out;
}

TEST(SchedSerial, BlackHoleEntryOrderReplaysFromSeed) {
  std::set<std::string> outcomes;
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    const std::string a = run_blackhole(seed);
    EXPECT_EQ(a, run_blackhole(seed)) << "seed " << seed << " did not replay";
    outcomes.insert(a);
  }
  EXPECT_EQ(outcomes.size(), 2u)
      << "black-hole entry order never flipped across 24 seeds";
}

// --- an update racing an entry, in each lock bank --------------------------
// t1 on cap 0 has claimed (eagerly black-holed) a thunk and evaluates it
// through to its update while t2 on cap 1 enters the same object. Under
// the object's lock either t2 blocks first — the update then finds the
// queue slot set and must wake it — or the update finds the slot empty,
// skips the wait-queue lock, and t2 then sees the value. The thunk lives
// in cap 0's nursery, in cap 1's nursery or in the old generation, so the
// owner's bank, the entrant's bank and the shared bank each guard it.

enum class ThunkHome { Nursery0, Nursery1, Old };

std::string update_race_once(SchedController& c, ThunkHome home) {
  Rig r(nullptr, config_worksteal_eagerbh(2));
  Obj* th = make_apply_thunk(*r.m, home == ThunkHome::Nursery1 ? 1 : 0,
                             r.prog.find("plus"),
                             {make_int(*r.m, 0, 20), make_int(*r.m, 0, 22)});
  Tso* t1 = r.m->spawn_enter(th, 0, /*enqueue=*/false);
  Tso* t2 = r.m->spawn_enter(th, 1, /*enqueue=*/false);
  if (home == ThunkHome::Old) r.m->collect();  // promoted; the TSOs root it
  th = t1->code.ptr;
  const Heap& h = r.m->heap();
  switch (home) {
    case ThunkHome::Nursery0: EXPECT_EQ(h.nursery_of(th), 0u); break;
    case ThunkHome::Nursery1: EXPECT_EQ(h.nursery_of(th), 1u); break;
    case ThunkHome::Old:
      EXPECT_TRUE(h.in_old(th));
      EXPECT_EQ(h.nursery_of(th), Heap::kNoNursery);
      break;
  }
  r.m->set_concurrent(true);
  // t1's first step claims the thunk before the arena opens.
  EXPECT_EQ(r.m->step(r.m->cap(0), *t1), StepOutcome::Ok);
  EXPECT_EQ(th->kind, ObjKind::BlackHole);
  StepOutcome o1{}, o2{};
  std::thread w1([&] {
    SchedArena a(c, 0);
    do o1 = r.m->step(r.m->cap(0), *t1);
    while (o1 == StepOutcome::Ok);
  });
  std::thread w2([&] {
    SchedArena a(c, 1);
    do o2 = r.m->step(r.m->cap(1), *t2);
    while (o2 == StepOutcome::Ok);
  });
  w1.join();
  w2.join();
  EXPECT_EQ(o1, StepOutcome::Finished);
  EXPECT_EQ(read_int(t1->result), 42);
  const bool blocked = o2 == StepOutcome::Blocked;
  if (blocked) {
    // The update must have woken t2 onto its own capability.
    EXPECT_EQ(t2->state, ThreadState::Runnable);
    EXPECT_EQ(r.m->cap(1).pop_thread(), t2);
    do o2 = r.m->step(r.m->cap(1), *t2);
    while (o2 == StepOutcome::Ok);
  }
  r.m->set_concurrent(false);
  EXPECT_EQ(o2, StepOutcome::Finished);
  EXPECT_EQ(read_int(t2->result), 42);
  for (ThreadId i = 0; i < r.m->tso_count(); ++i) {
    const ThreadState s = r.m->tso(i)->state;
    EXPECT_NE(s, ThreadState::BlockedOnBlackHole) << "tso " << i << " left blocked";
  }
  EXPECT_EQ(r.m->cap(0).n_blocked.load() + r.m->cap(1).n_blocked.load(), 0u);
  EXPECT_EQ(r.m->stats().blocked_on_blackhole, blocked ? 1u : 0u);
  r.m->sanity_check("update race");
  return blocked ? "t2-woken" : "t2-saw-value";
}

TEST(SchedSerial, UpdateRacingEntryInEachLockBank) {
  for (ThunkHome home : {ThunkHome::Nursery0, ThunkHome::Nursery1, ThunkHome::Old}) {
    std::set<std::string> outcomes;
    for (std::uint64_t seed = 0; seed < 24; ++seed) {
      SchedPlan p;
      p.strategy = SchedPlan::Strategy::Random;
      p.serial = true;
      p.seed = seed;
      p.schedules = 1;
      SchedController c(p);
      c.explore(2, [&] { outcomes.insert(update_race_once(c, home)); });
    }
    EXPECT_EQ(outcomes.size(), 2u)
        << "thunk home " << static_cast<int>(home)
        << ": only one order of update and entry in 24 seeds";
  }
}

// --- perturb mode over the full threaded driver ----------------------------

std::uint64_t stress_seed() {
  if (const char* env = std::getenv("PARHASK_SCHED_SEED"))
    return std::strtoull(env, nullptr, 10);
  return 0xC0FFEEull;
}

TEST(SchedStress, SumEulerCorrectUnderRandomPerturbation) {
  SchedPlan p;
  p.strategy = SchedPlan::Strategy::Random;
  p.serial = false;  // perturb mode: inject seeded delays, don't serialise
  p.seed = stress_seed();
  SchedController c(p);
  c.attach();
  for (auto mk : {config_worksteal, config_worksteal_eagerbh}) {
    RtsConfig cfg = mk(4);
    cfg.heap.nursery_words = 4096;  // keep the GC rendezvous hook busy too
    Rig r([](Builder& b) { build_sumeuler(b); }, cfg);
    Tso* t = r.m->spawn_apply(r.prog.find("sumEulerPar"),
                              {make_int(*r.m, 0, 8), make_int(*r.m, 0, 80)}, 0);
    ThreadedDriver d(*r.m);
    ThreadedResult res = d.run(t);
    ASSERT_FALSE(res.deadlocked);
    EXPECT_EQ(read_int(res.value), sum_euler_reference(80));
  }
  c.detach();
  const SchedStats s = c.stats();
  EXPECT_GT(s.points, 0u) << "no instrumented yield point was ever reached";
  EXPECT_GT(s.perturbs, 0u) << "the perturber never fired";
}

TEST(SchedStress, DetachedControllerCostsNothingAndCountsNothing) {
  SchedPlan p;
  p.strategy = SchedPlan::Strategy::Random;
  SchedController c(p);  // never attached
  WsDeque<int> dq(8);
  dq.push(1);
  EXPECT_EQ(dq.pop().value_or(-1), 1);
  EXPECT_EQ(c.stats().points, 0u);
}

}  // namespace
}  // namespace ph::test
