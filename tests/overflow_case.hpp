// The heap-overflow escalation's contract, checked under any driver: a
// thread whose every allocation fails is collected for, collected for
// with a forced major, then unwound alone, and the thunk it had claimed
// is a thunk again. Shared by the virtual-time suite (test_fault.cpp) and
// the OS-thread suite (test_threaded.cpp), since both drivers step
// threads through the same Machine::run_quantum.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "progs/sumeuler.hpp"
#include "rig.hpp"
#include "rts/fault.hpp"

namespace ph::test {

template <typename Driver>
auto run_under(Rig& r, Tso* t) {
  if constexpr (std::is_same_v<Driver, SimDriver>)
    return SimDriver(*r.m, r.cost).run(t);
  else
    return Driver(*r.m).run(t);
}

template <typename Driver>
void expect_overflow_unwinds_only_the_victim(std::uint32_t caps) {
  Rig r([](Builder& b) { build_sumeuler(b); }, config_worksteal_eagerbh(caps));
  Machine& m = *r.m;
  // A shared thunk the victim will be forcing when it dies: if kill_thread
  // failed to restore the black hole, forcing it later would deadlock.
  Obj* xs = make_int_list(m, 0, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12});
  std::vector<Obj*> keep{xs};
  RootGuard guard(m, keep);
  Obj* th = make_apply_thunk(m, 0, r.prog.find("sumPhi"), {keep[0]});
  keep.push_back(th);
  Tso* victim = m.spawn_enter(keep[1], 0);

  // Only the victim's allocations consult the injector's counter, so it
  // has one writer under any driver.
  FaultPlan p;
  p.alloc_fail_at = 1;
  p.alloc_fail_count = 1000;  // every allocation the victim ever tries fails
  p.alloc_fail_tso = victim->id;
  FaultInjector inj(p);
  m.set_fault(&inj);

  Tso* main_t =
      m.spawn_apply(r.prog.find("sumPhi"), {make_int_list(m, 0, {21, 22, 23, 24, 25})}, 0);
  const auto res = run_under<Driver>(r, main_t);
  m.set_fault(nullptr);

  // The main thread is untouched...
  ASSERT_FALSE(res.deadlocked);
  std::int64_t expect = 0;
  auto phi = [](std::int64_t k) {
    return sum_euler_reference(k) - sum_euler_reference(k - 1);
  };
  for (int i = 21; i <= 25; ++i) expect += phi(i);
  EXPECT_EQ(read_int(res.value), expect);
  // ...the victim was unwound, alone, with its cause recorded...
  EXPECT_EQ(res.heap_overflows, 1u);
  EXPECT_EQ(m.stats().threads_killed, 1u);
  EXPECT_EQ(victim->state, ThreadState::Finished);
  EXPECT_STREQ(victim->error, "heap overflow");
  EXPECT_EQ(victim->result, nullptr);
  // ...and the thunk it had black-holed is a thunk again: another thread
  // can evaluate it to the right answer.
  Tso* again = m.spawn_enter(keep[1], 0);
  const auto res2 = run_under<Driver>(r, again);
  ASSERT_FALSE(res2.deadlocked);
  EXPECT_EQ(read_int(res2.value), sum_euler_reference(12));
}

inline std::string caps_name(const ::testing::TestParamInfo<std::uint32_t>& i) {
  return std::to_string(i.param) + (i.param == 1 ? "cap" : "caps");
}

}  // namespace ph::test
