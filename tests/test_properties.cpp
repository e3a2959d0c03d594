// Cross-cutting property tests: scheduling-independence (purity), spark
// pruning, statistics reports, root validation under stress, make_pap,
// deep forcing.
#include <gtest/gtest.h>

#include "progs/all.hpp"
#include "rig.hpp"
#include "rts/report.hpp"

namespace ph::test {
namespace {

// Purity across EVERY policy axis and several core counts, on a workload
// mixing sparks, sharing and GC pressure (matmul via sparked blocks).
struct PolicyPoint {
  std::uint32_t caps;
  WorkPolicy work;
  BlackholePolicy bh;
  SparkRunPolicy run;
  BarrierPolicy barrier;
  std::size_t nursery;
};

class AllPolicies : public ::testing::TestWithParam<PolicyPoint> {};

TEST_P(AllPolicies, MatmulIdenticalUnderAnySchedule) {
  const PolicyPoint p = GetParam();
  RtsConfig cfg;
  cfg.n_caps = p.caps;
  cfg.work = p.work;
  cfg.blackhole = p.bh;
  cfg.sparkrun = p.run;
  cfg.barrier = p.barrier;
  cfg.heap.nursery_words = p.nursery;
  Rig r([](Builder& b) { build_matmul(b); }, cfg);
  Mat a = random_matrix(8, 2), bm = random_matrix(8, 3);
  Obj* ao = make_int_matrix(*r.m, 0, a);
  std::vector<Obj*> protect{ao};
  RootGuard guard(*r.m, protect);
  Obj* bo = make_int_matrix(*r.m, 0, bm);
  SimResult res = r.run_forced("matMulGph",
                               {make_int(*r.m, 0, 2), make_int(*r.m, 0, 4), protect[0], bo});
  EXPECT_EQ(read_int_matrix(res.value), matmul_reference(a, bm));
}

std::vector<PolicyPoint> policy_grid() {
  std::vector<PolicyPoint> out;
  for (std::uint32_t caps : {1u, 3u, 8u})
    for (WorkPolicy w : {WorkPolicy::PushOnPoll, WorkPolicy::Steal})
      for (BlackholePolicy bh : {BlackholePolicy::Lazy, BlackholePolicy::Eager})
        for (SparkRunPolicy sr : {SparkRunPolicy::ThreadPerSpark, SparkRunPolicy::SparkThread})
          out.push_back(PolicyPoint{caps, w, bh, sr,
                                    caps % 2 ? BarrierPolicy::Naive : BarrierPolicy::Improved,
                                    caps == 3 ? 2048ul : 32768ul});
  return out;
}

INSTANTIATE_TEST_SUITE_P(Grid, AllPolicies, ::testing::ValuesIn(policy_grid()));

TEST(Pruning, FizzledSparksAreCollected) {
  // Spark thunks, evaluate them via the main thread (so the sparks
  // fizzle), then force a GC: the pool must be pruned.
  RtsConfig cfg = config_worksteal(1);  // single cap: sparks never run
  cfg.heap.nursery_words = 4096;
  Rig r(
      [](Builder& b) {
        b.fun("f", {"n"}, [](Ctx& c) {
          return c.let1("x", c.app("sum", {c.app("enumFromTo", {c.lit(1), c.var("n")})}),
                        [&] {
                          // spark x, then force it ourselves, then allocate a
                          // lot to trigger collections.
                          return c.par(c.var("x"),
                                       c.seq(c.var("x"),
                                             c.app("sum", {c.app("enumFromTo",
                                                                 {c.lit(1), c.lit(3000)})})));
                        });
        });
      },
      cfg);
  SimResult res = r.run("f", {10});
  EXPECT_EQ(read_int(res.value), 3000LL * 3001 / 2);
  SparkStats s = r.m->total_spark_stats();
  EXPECT_EQ(s.created, 1u);
  EXPECT_EQ(s.pruned, 1u);  // collected as fizzled, never converted
  EXPECT_EQ(s.converted, 0u);
}

TEST(Pruning, DisabledKeepsSparksAlive) {
  RtsConfig cfg = config_worksteal(1);
  cfg.heap.nursery_words = 4096;
  cfg.gc_prune_sparks = false;
  Rig r(
      [](Builder& b) {
        b.fun("f", {"n"}, [](Ctx& c) {
          return c.let1("x", c.app("sum", {c.app("enumFromTo", {c.lit(1), c.var("n")})}),
                        [&] {
                          return c.par(c.var("x"),
                                       c.seq(c.var("x"),
                                             c.app("sum", {c.app("enumFromTo",
                                                                 {c.lit(1), c.lit(3000)})})));
                        });
        });
      },
      cfg);
  r.run("f", {10});
  EXPECT_EQ(r.m->total_spark_stats().pruned, 0u);
  // The spark is still sitting in the pool (it will fizzle if scheduled).
  EXPECT_EQ(r.m->cap(0).spark_pool_size(), 1u);
}

TEST(Report, ContainsTheHeadlineNumbers) {
  Rig r([](Builder& b) { build_sumeuler(b); }, config_worksteal(4));
  Tso* t = r.m->spawn_apply(r.prog.find("sumEulerPar"),
                            {make_int(*r.m, 0, 8), make_int(*r.m, 0, 60)}, 0);
  SimDriver d(*r.m);
  SimResult res = d.run(t);
  std::string rep = run_report(*r.m, &res);
  EXPECT_NE(rep.find("SPARKS:"), std::string::npos);
  EXPECT_NE(rep.find("THREADS:"), std::string::npos);
  EXPECT_NE(rep.find("VIRTUAL TIME:"), std::string::npos);
  EXPECT_NE(rep.find("allocated in the heap"), std::string::npos);
  EXPECT_NE(rep.find("mutator utilisation"), std::string::npos);
  EXPECT_EQ(rep.find("DUPLICATE"), std::string::npos);  // eager-free run? lazy default...
}

TEST(Report, GcReportTracksCollections) {
  Rig r([](Builder& b) { build_sumeuler(b); });
  r.m->collect(/*force_major=*/true);
  std::string rep = gc_report(r.m->heap());
  EXPECT_NE(rep.find("1 major GCs"), std::string::npos);
}

TEST(Validation, RootWalkerCoversStressedRun) {
  // With PARHASK_GC_VALIDATE semantics exercised directly: run a stressed
  // workload, then validate every root points into live spaces.
  RtsConfig cfg = config_worksteal(4);
  cfg.heap.nursery_words = 2048;
  Rig r([](Builder& b) { build_sumeuler(b); }, cfg);
  SimResult res = r.run("sumEulerPar", {5, 60});
  EXPECT_EQ(read_int(res.value), sum_euler_reference(60));
  r.m->collect(/*force_major=*/true);
  r.m->validate_roots("test");  // aborts on failure
}

TEST(Marshal, MakePapBehavesLikePartialApplication) {
  Rig r;
  Obj* pap = make_pap(*r.m, 0, r.prog.find("plus"), {make_int(*r.m, 0, 41)});
  std::vector<Obj*> protect{pap};
  RootGuard guard(*r.m, protect);
  // Apply the PAP to one more argument via `id`'s application machinery:
  Obj* one = make_int(*r.m, 0, 1);
  Tso* t = r.m->spawn_enter(protect[0], 0, /*enqueue=*/false);
  Frame f;
  f.kind = FrameKind::Apply;
  t->push_frame(f, {}, &one, 1);
  r.m->cap(0).push_thread(t);
  SimDriver d(*r.m);
  EXPECT_EQ(read_int(d.run(t).value), 42);
}

TEST(Marshal, MakePapRejectsSaturation) {
  Rig r;
  EXPECT_THROW(make_pap(*r.m, 0, r.prog.find("plus"),
                        {make_int(*r.m, 0, 1), make_int(*r.m, 0, 2)}),
               EvalError);
}

TEST(DeepForce, NormalisesNestedStructures) {
  Rig r([](Builder& b) {
    b.fun("nested", {"n"}, [](Ctx& c) {
      return c.cons(c.app("enumFromTo", {c.lit(1), c.var("n")}),
                    c.cons(c.app("map", {c.global("dbl"),
                                         c.app("enumFromTo", {c.lit(1), c.var("n")})}),
                           c.nil()));
    });
  });
  SimResult res = r.run_forced("nested", {make_int(*r.m, 0, 4)});
  EXPECT_EQ(read_int_matrix(res.value),
            (std::vector<std::vector<std::int64_t>>{{1, 2, 3, 4}, {2, 4, 6, 8}}));
}

TEST(Determinism, SameSeedSameTraceAcrossRuns) {
  // Each input runs twice and must give the same makespan and trace. SimDriver
  // must also collect sequentially although --gc-threads defaults to -N: a
  // team's thread schedule would leak into the figures.
  struct Run {
    std::uint64_t makespan;
    std::string csv;
    GcStats gc;
  };
  const std::int64_t n = 24;
  const DistMat d = random_graph(static_cast<std::size_t>(n), 4242);
  const std::vector<std::function<Run()>> inputs = {
      [] {
        RtsConfig cfg = config_worksteal(4);
        cfg.heap.nursery_words = 4 * 1024;  // fig1's default area, so it collects
        Rig r([](Builder& b) { build_sumeuler(b); }, cfg);
        TraceLog trace(4);
        SimResult res = r.run("sumEulerPar", {6, 70}, &trace);
        return Run{res.makespan, trace.to_csv(), r.m->heap().stats()};
      },
      // ablation_blackhole's lazy-BH APSP configuration: 8 capabilities
      // racing on shared row thunks.
      [&d, n] {
        RtsConfig cfg = config_worksteal(8);
        cfg.blackhole = BlackholePolicy::Lazy;
        cfg.heap.nursery_words = 32 * 1024;
        Rig r([](Builder& b) { build_apsp(b); }, cfg);
        TraceLog trace(8);
        Obj* nv = make_int(*r.m, 0, n);
        Obj* mo = make_int_matrix(*r.m, 0, d);
        SimResult res = r.run_obj_args("apspChecksum", {nv, mo}, &trace);
        EXPECT_EQ(read_int(res.value), apsp_checksum(floyd_warshall(d)));
        return Run{res.makespan, trace.to_csv(), r.m->heap().stats()};
      },
  };
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    SCOPED_TRACE("input " + std::to_string(i));
    const Run a = inputs[i]();
    const Run b = inputs[i]();
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.csv, b.csv);
    EXPECT_GT(a.gc.minor_collections, 0u);
    EXPECT_EQ(a.gc.parallel_collections, 0u);
  }
}

}  // namespace
}  // namespace ph::test
