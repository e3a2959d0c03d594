// Heavy concurrent stress for the OS-thread driver: every policy axis on
// real threads with tiny nurseries (constant barrier GCs), across several
// workloads. Purely about correctness under true parallelism.
#include <gtest/gtest.h>

#include <cstring>

#include "progs/all.hpp"
#include "rig.hpp"
#include "rts/threaded.hpp"

namespace ph::test {
namespace {

struct StressPoint {
  int workload;  // 0 = nfibPar, 1 = queensPar, 2 = matmul, 3 = apsp
  WorkPolicy work;
  BlackholePolicy bh;
};

class ThreadedStress : public ::testing::TestWithParam<StressPoint> {};

TEST_P(ThreadedStress, CorrectUnderRealThreads) {
  const StressPoint p = GetParam();
  RtsConfig cfg;
  cfg.n_caps = 4;
  cfg.work = p.work;
  cfg.blackhole = p.bh;
  cfg.sparkrun = SparkRunPolicy::SparkThread;
  cfg.barrier = BarrierPolicy::Improved;
  cfg.heap.nursery_words = 4096;  // constant GC-barrier pressure

  Program prog = make_full_program();
  Machine m(prog, cfg);
  Tso* root = nullptr;
  std::int64_t expect = 0;
  switch (p.workload) {
    case 0:
      root = m.spawn_apply(prog.find("nfibPar"), {make_int(m, 0, 6), make_int(m, 0, 17)}, 0);
      expect = nfib_reference(17);
      break;
    case 1:
      root = m.spawn_apply(prog.find("queensPar"), {make_int(m, 0, 6)}, 0);
      expect = queens_reference(6);
      break;
    case 2: {
      Mat a = random_matrix(8, 4), bm = random_matrix(8, 5);
      Obj* ao = make_int_matrix(m, 0, a);
      std::vector<Obj*> protect{ao};
      RootGuard g(m, protect);
      Obj* bo = make_int_matrix(m, 0, bm);
      protect.push_back(bo);
      Obj* mm = make_apply_thunk(m, 0, prog.find("matMulGph"),
                                 {make_int(m, 0, 2), make_int(m, 0, 4), protect[0],
                                  protect[1]});
      protect.push_back(mm);
      Obj* chk = make_apply_thunk(m, 0, prog.find("matSum"), {protect[2]});
      root = m.spawn_enter(chk, 0);
      expect = mat_checksum(matmul_reference(a, bm));
      break;
    }
    default: {
      DistMat d = random_graph(12, 3);
      Obj* nv = make_int(m, 0, 12);
      std::vector<Obj*> protect{nv};
      RootGuard g(m, protect);
      Obj* mo = make_int_matrix(m, 0, d);
      root = m.spawn_apply(prog.find("apspChecksum"), {protect[0], mo}, 0);
      expect = apsp_checksum(floyd_warshall(d));
      break;
    }
  }
  ThreadedDriver d(m);
  ThreadedResult r = d.run(root);
  ASSERT_FALSE(r.deadlocked);
  EXPECT_EQ(read_int(r.value), expect);
}

std::vector<StressPoint> stress_grid() {
  std::vector<StressPoint> out;
  for (int w = 0; w < 4; ++w)
    for (WorkPolicy wp : {WorkPolicy::PushOnPoll, WorkPolicy::Steal})
      for (BlackholePolicy bh : {BlackholePolicy::Lazy, BlackholePolicy::Eager}) {
        // The test name prints every byte of the point, padding included:
        // zero it, or stray stack bytes rename the test from build to build.
        StressPoint p;
        std::memset(&p, 0, sizeof p);
        p.workload = w;
        p.work = wp;
        p.bh = bh;
        out.push_back(p);
      }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Grid, ThreadedStress, ::testing::ValuesIn(stress_grid()));

TEST(ThreadedStress, RepeatedRunsStayCorrect) {
  // Scheduling differs run to run on real threads; the value must not.
  Program prog = make_full_program();
  for (int i = 0; i < 5; ++i) {
    Machine m(prog, config_worksteal(4));
    Tso* root = m.spawn_apply(prog.find("queensPar"), {make_int(m, 0, 6)}, 0);
    ThreadedDriver d(m);
    ThreadedResult r = d.run(root);
    ASSERT_FALSE(r.deadlocked);
    EXPECT_EQ(read_int(r.value), queens_reference(6));
  }
}

}  // namespace
}  // namespace ph::test
