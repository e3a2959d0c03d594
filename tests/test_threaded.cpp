// The OS-thread driver: real concurrent execution of the same runtime.
// These tests verify correctness (results, GC barrier, deadlock
// detection) under true parallel mutation; the paper-shape figures come
// from the virtual-time driver (see DESIGN.md §2).
#include <gtest/gtest.h>

#include "overflow_case.hpp"
#include "progs/sumeuler.hpp"
#include "rig.hpp"
#include "rts/threaded.hpp"

namespace ph::test {
namespace {

std::int64_t run_threaded(const RtsConfig& cfg, const std::string& fn,
                          const std::vector<std::int64_t>& args, bool* deadlock = nullptr) {
  Rig r([](Builder& b) { build_sumeuler(b); }, cfg);
  std::vector<Obj*> objs;
  for (std::int64_t v : args) objs.push_back(make_int(*r.m, 0, v));
  Tso* t = r.m->spawn_apply(r.prog.find(fn), objs, 0);
  ThreadedDriver d(*r.m);
  ThreadedResult res = d.run(t);
  if (deadlock != nullptr) *deadlock = res.deadlocked;
  if (res.deadlocked) return -1;
  return read_int(res.value);
}

class FaultHeapOverflow : public ::testing::TestWithParam<std::uint32_t> {};

// The heap-overflow escalation on real threads; the SimDriver cases live
// in test_fault.cpp.
TEST_P(FaultHeapOverflow, UnwindsOnlyTheVictimThread) {
  expect_overflow_unwinds_only_the_victim<ThreadedDriver>(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Threaded, FaultHeapOverflow, ::testing::Values(1u, 4u), caps_name);

class ThreadedConfigs : public ::testing::TestWithParam<int> {};

TEST_P(ThreadedConfigs, SumEulerCorrectOn4Threads) {
  RtsConfig cfg;
  switch (GetParam()) {
    case 0: cfg = config_plain(4); break;
    case 1: cfg = config_gcsync(4); break;
    case 2: cfg = config_worksteal(4); break;
    default: cfg = config_worksteal_eagerbh(4); break;
  }
  EXPECT_EQ(run_threaded(cfg, "sumEulerPar", {8, 80}), sum_euler_reference(80));
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, ThreadedConfigs, ::testing::Values(0, 1, 2, 3));

TEST(Threaded, GcBarrierUnderPressure) {
  RtsConfig cfg = config_worksteal(4);
  cfg.heap.nursery_words = 2048;  // force many stop-the-world collections
  Rig r([](Builder& b) { build_sumeuler(b); }, cfg);
  Tso* t = r.m->spawn_apply(r.prog.find("sumEulerPar"),
                            {make_int(*r.m, 0, 8), make_int(*r.m, 0, 80)}, 0);
  ThreadedDriver d(*r.m);
  ThreadedResult res = d.run(t);
  ASSERT_FALSE(res.deadlocked);
  EXPECT_EQ(read_int(res.value), sum_euler_reference(80));
  EXPECT_GT(r.m->heap().stats().minor_collections + r.m->heap().stats().major_collections, 5u);
}

TEST(Threaded, SharedThunkRaceIsSafeEitherPolicy) {
  // Many sparks all forcing the same shared thunk: the classic §IV.A.3
  // race. Result must be exact under both black-holing policies.
  auto build = [](Builder& b) {
    b.fun("shared", {"n"}, [](Ctx& c) {
      return c.app("sum", {c.app("enumFromTo", {c.lit(1), c.var("n")})});
    });
    b.fun("f", {"n"}, [](Ctx& c) {
      return c.let1("x", c.app("shared", {c.var("n")}), [&] {
        return c.par(c.var("x"),
                     c.par(c.var("x"),
                           c.par(c.var("x"),
                                 c.prim(PrimOp::Add, c.var("x"), c.var("x")))));
      });
    });
  };
  for (auto mk : {config_worksteal, config_worksteal_eagerbh}) {
    Rig r(build, mk(4));
    Tso* t = r.m->spawn_apply(r.prog.find("f"), {make_int(*r.m, 0, 5000)}, 0);
    ThreadedDriver d(*r.m);
    ThreadedResult res = d.run(t);
    ASSERT_FALSE(res.deadlocked);
    EXPECT_EQ(read_int(res.value), 2 * 5000LL * 5001 / 2);
  }
}

TEST(Threaded, DetectsDeadlock) {
  Rig r(
      [](Builder& b) {
        b.fun("loop", {}, [](Ctx& c) {
          return c.letrec(
              {"x"}, [&] { return std::vector<E>{c.var("x")}; },
              [&] { return c.var("x"); });
        });
      },
      config_worksteal_eagerbh(2));
  Tso* t = r.m->spawn_apply(r.prog.find("loop"), {}, 0);
  ThreadedDriver d(*r.m);
  ThreadedResult res = d.run(t);
  EXPECT_TRUE(res.deadlocked);
}

TEST(Threaded, ManyIndependentSparksAllRun) {
  // Enough sparks that every capability must convert some.
  Rig r([](Builder& b) { build_sumeuler(b); }, config_worksteal(4));
  Tso* t = r.m->spawn_apply(r.prog.find("sumEulerPar"),
                            {make_int(*r.m, 0, 2), make_int(*r.m, 0, 120)}, 0);
  ThreadedDriver d(*r.m);
  ThreadedResult res = d.run(t);
  ASSERT_FALSE(res.deadlocked);
  EXPECT_EQ(read_int(res.value), sum_euler_reference(120));
  SparkStats s = r.m->total_spark_stats();
  EXPECT_GT(s.created, 30u);
}

}  // namespace
}  // namespace ph::test
