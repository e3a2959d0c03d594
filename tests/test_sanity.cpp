// The -DS sanity auditor (src/rts/sanity.cpp): passes clean on healthy
// runs under both drivers, and pinpoints deliberately injected corruption
// with a structured RtsInternalError naming the bad slot.
#include <gtest/gtest.h>

#include <algorithm>

#include "progs/sumeuler.hpp"
#include "rig.hpp"
#include "rts/threaded.hpp"

namespace ph::test {
namespace {

TEST(Sanity, CleanOnSimDriverWithManyCollections) {
  RtsConfig cfg = config_worksteal(2);
  cfg.sanity = true;
  cfg.heap.nursery_words = 2048;  // force frequent post-GC audits
  Rig r([](Builder& b) { build_sumeuler(b); }, cfg);
  EXPECT_EQ(r.run_int("sumEulerPar", {8, 60}), sum_euler_reference(60));
  const auto& gs = r.m->heap().stats();
  EXPECT_GT(gs.minor_collections + gs.major_collections, 0u)
      << "the audit never actually ran post-collect";
  EXPECT_NO_THROW(r.m->sanity_check("test end"));
}

TEST(Sanity, CleanOnThreadedDriverWithManyCollections) {
  RtsConfig cfg = config_worksteal_eagerbh(4);
  cfg.sanity = true;
  cfg.heap.nursery_words = 2048;
  Rig r([](Builder& b) { build_sumeuler(b); }, cfg);
  Tso* t = r.m->spawn_apply(r.prog.find("sumEulerPar"),
                            {make_int(*r.m, 0, 8), make_int(*r.m, 0, 80)}, 0);
  ThreadedDriver d(*r.m);
  ThreadedResult res = d.run(t);
  ASSERT_FALSE(res.deadlocked);
  EXPECT_EQ(read_int(res.value), sum_euler_reference(80));
  const auto& gs = r.m->heap().stats();
  EXPECT_GT(gs.minor_collections + gs.major_collections, 0u);
}

TEST(Sanity, CatchesCorruptObjectHeader) {
  Rig r;
  EXPECT_NO_THROW(r.m->sanity_check("pre-corruption"));
  Obj* o = make_int(*r.m, 0, 5000);  // beyond the static small-int cache
  ASSERT_TRUE(r.m->heap().in_nursery(o));
  const ObjKind saved = o->kind;
  o->kind = static_cast<ObjKind>(200);
  try {
    r.m->sanity_check("corrupt header");
    FAIL() << "auditor missed a corrupt kind byte";
  } catch (const RtsInternalError& e) {
    EXPECT_EQ(e.slot_kind, "heap.header");
    EXPECT_EQ(e.obj_kind, 200);
    EXPECT_NE(std::string(e.what()).find("nursery"), std::string::npos)
        << "report should name the region: " << e.what();
  }
  o->kind = saved;
  EXPECT_NO_THROW(r.m->sanity_check("post-restore"));
}

TEST(Sanity, CatchesStaleForwardingPointer) {
  Rig r;
  Obj* o = make_int(*r.m, 0, 6000);
  const ObjKind saved = o->kind;
  o->kind = ObjKind::Fwd;
  try {
    r.m->sanity_check("stale fwd");
    FAIL() << "auditor missed a stale forwarding pointer";
  } catch (const RtsInternalError& e) {
    EXPECT_EQ(e.slot_kind, "heap.fwd");
    EXPECT_EQ(e.obj_kind, static_cast<int>(ObjKind::Fwd));
  }
  o->kind = saved;
}

TEST(Sanity, CatchesCorruptSparkSlot) {
  Rig r(nullptr, config_worksteal(1));
  Obj* th = make_apply_thunk(*r.m, 0, r.prog.find("enumFromTo"),
                             {make_int(*r.m, 0, 1), make_int(*r.m, 0, 3)});
  r.m->cap(0).spark(th);
  ASSERT_EQ(r.m->cap(0).spark_pool_size(), 1u);
  EXPECT_NO_THROW(r.m->sanity_check("healthy spark"));
  // Point the slot outside every live region.
  r.m->cap(0).for_each_spark_slot([](Obj*& s) { s = reinterpret_cast<Obj*>(0x40); });
  try {
    r.m->sanity_check("corrupt spark");
    FAIL() << "auditor missed a wild spark-pool pointer";
  } catch (const RtsInternalError& e) {
    EXPECT_EQ(e.slot_kind, "spark");
    EXPECT_NE(std::string(e.what()).find("spark slot 0 of capability 0"),
              std::string::npos)
        << "report should name the bad slot: " << e.what();
  }
  r.m->cap(0).for_each_spark_slot([&](Obj*& s) { s = th; });
  EXPECT_NO_THROW(r.m->sanity_check("restored spark"));
}

TEST(Sanity, CatchesBlockedThreadOnRunQueue) {
  Rig r;
  Tso* t = r.m->spawn_apply(r.prog.find("enumFromTo"),
                            {make_int(*r.m, 0, 1), make_int(*r.m, 0, 2)}, 0);
  t->state = ThreadState::BlockedOnBlackHole;  // queued yet claims blocked
  try {
    r.m->sanity_check("bad run queue");
    FAIL() << "auditor missed a blocked TSO on a run queue";
  } catch (const RtsInternalError& e) {
    EXPECT_EQ(e.slot_kind, "runq");
    EXPECT_EQ(e.tso, t->id);
  }
  t->state = ThreadState::Runnable;
  EXPECT_NO_THROW(r.m->sanity_check("restored run queue"));
}

/// A thread stepped part-way into sumEulerSeq: its Case, Prim and Apply
/// frames hold saved values on its value stack.
Tso* suspended_thread(Rig& r) {
  Tso* t = r.m->spawn_apply(r.prog.find("sumEulerSeq"), {make_int(*r.m, 0, 30)}, 0,
                            /*enqueue=*/false);
  for (int i = 0; i < 60; ++i) EXPECT_EQ(r.m->step(r.m->cap(0), *t), StepOutcome::Ok);
  return t;
}

TEST(Sanity, CatchesCorruptValueStackSlot) {
  Rig r([](Builder& b) { build_sumeuler(b); });
  Tso* t = suspended_thread(r);
  ASSERT_FALSE(t->vstack.empty());
  EXPECT_NO_THROW(r.m->sanity_check("healthy value stack"));
  Obj* const saved = t->vstack.front();
  t->vstack.front() = reinterpret_cast<Obj*>(0x40);
  try {
    r.m->sanity_check("corrupt value stack");
    FAIL() << "auditor missed a wild value-stack slot";
  } catch (const RtsInternalError& e) {
    EXPECT_EQ(e.slot_kind, "vstack");
    EXPECT_EQ(e.tso, t->id);
    EXPECT_NE(std::string(e.what()).find("vstack slot 0"), std::string::npos)
        << "report should name the bad slot: " << e.what();
  }
  t->vstack.front() = saved;
  EXPECT_NO_THROW(r.m->sanity_check("restored value stack"));
}

TEST(Sanity, CatchesFrameCountThatDisagreesWithTheValueStack) {
  Rig r([](Builder& b) { build_sumeuler(b); });
  Tso* t = suspended_thread(r);
  auto f = std::find_if(t->stack.begin(), t->stack.end(),
                        [](const Frame& fr) { return fr.saved() > 0; });
  ASSERT_NE(f, t->stack.end());
  f->nvals++;
  try {
    r.m->sanity_check("corrupt frame count");
    FAIL() << "auditor missed a frame count that overruns the value stack";
  } catch (const RtsInternalError& e) {
    EXPECT_EQ(e.slot_kind, "vstack");
    EXPECT_EQ(e.tso, t->id);
  }
  f->nvals--;
  EXPECT_NO_THROW(r.m->sanity_check("restored frame count"));
}

TEST(Sanity, EnvVarEnablesAuditWithoutFlag) {
  // PARHASK_SANITY mirrors PARHASK_GC_VALIDATE: audits post-collect even
  // when the config flag is off.
  ::setenv("PARHASK_SANITY", "1", 1);
  RtsConfig cfg = config_worksteal(2);
  cfg.heap.nursery_words = 2048;
  Rig r([](Builder& b) { build_sumeuler(b); }, cfg);
  EXPECT_EQ(r.run_int("sumEulerPar", {4, 40}), sum_euler_reference(40));
  ::unsetenv("PARHASK_SANITY");
}

}  // namespace
}  // namespace ph::test
