// Fault injection and the self-healing runtime: flag parsing, deterministic
// injector draws, structured internal errors, graceful heap exhaustion,
// precise deadlock diagnosis, and the reliable Eden channel / PE-crash
// supervision machinery.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "eden/eden.hpp"
#include "overflow_case.hpp"
#include "progs/apsp.hpp"
#include "progs/sumeuler.hpp"
#include "rig.hpp"
#include "rts/fault.hpp"
#include "rts/threaded.hpp"
#include "skel/skeletons.hpp"
#include "trace/trace.hpp"

namespace ph::test {
namespace {

// --- fault flags ------------------------------------------------------------

TEST(FaultFlags, ParsesEveryFlag) {
  FaultPlan p = parse_fault_flags(
      "-Fs99 -Fd20 -Fu10 -Fl5 -FL1000 -Fc2@4000 -Fa7:2:3 "
      "-Fr1500 -Fb300 -Fm6 -Fh250 -FH2000");
  EXPECT_EQ(p.seed, 99u);
  EXPECT_DOUBLE_EQ(p.drop, 0.20);
  EXPECT_DOUBLE_EQ(p.duplicate, 0.10);
  EXPECT_DOUBLE_EQ(p.delay, 0.05);
  EXPECT_EQ(p.delay_extra, 1000u);
  EXPECT_EQ(p.crash_pe, 2u);
  EXPECT_EQ(p.crash_at, 4000u);
  EXPECT_EQ(p.alloc_fail_at, 7u);
  EXPECT_EQ(p.alloc_fail_count, 2u);
  EXPECT_EQ(p.alloc_fail_tso, 3u);
  EXPECT_EQ(p.retry_timeout, 1500u);
  EXPECT_DOUBLE_EQ(p.retry_backoff, 3.0);
  EXPECT_EQ(p.retry_max, 6u);
  EXPECT_EQ(p.heartbeat_interval, 250u);
  EXPECT_EQ(p.heartbeat_timeout, 2000u);
  EXPECT_TRUE(p.enabled());
}

TEST(FaultFlags, ShowParseRoundTrips) {
  FaultPlan p = parse_fault_flags("-Fs7 -Fd25 -Fu10 -Fc1@900 -Fa5:4:2 -Fm3");
  FaultPlan q = parse_fault_flags(show_fault_flags(p));
  EXPECT_EQ(show_fault_flags(q), show_fault_flags(p));
}

TEST(FaultFlags, ChaosFlagsParseAndRoundTrip) {
  // The supervision knobs: retry cap (-FC), retry jitter (-FJ), restart
  // budget (-FR) and the supervise toggle (-FS).
  FaultPlan p = parse_fault_flags("-FC4000 -FJ25 -FR3 -FS");
  EXPECT_EQ(p.retry_cap, 4000u);
  EXPECT_DOUBLE_EQ(p.retry_jitter, 0.25);
  EXPECT_EQ(p.restart_max, 3u);
  EXPECT_TRUE(p.supervise);
  FaultPlan q = parse_fault_flags(show_fault_flags(p));
  EXPECT_EQ(q.retry_cap, 4000u);
  EXPECT_DOUBLE_EQ(q.retry_jitter, 0.25);
  EXPECT_EQ(q.restart_max, 3u);
  EXPECT_TRUE(q.supervise);
  EXPECT_EQ(show_fault_flags(q), show_fault_flags(p));

  // A full chaos plan — crash entry plus supervision knobs — survives the
  // show/parse round trip too.
  FaultPlan c = parse_fault_flags("-Fc2@15000 -FR5 -FC2500 -FJ10 -Fh500 -FH60000");
  EXPECT_TRUE(c.crashes());
  EXPECT_EQ(c.crash_pe, 2u);
  EXPECT_EQ(c.crash_at, 15000u);
  FaultPlan c2 = parse_fault_flags(show_fault_flags(c));
  EXPECT_EQ(show_fault_flags(c2), show_fault_flags(c));
  EXPECT_EQ(c2.restart_max, 5u);
  EXPECT_EQ(c2.heartbeat_timeout, 60000u);

  // Defaults stay implicit in show (no noise for non-chaos plans).
  const std::string plain = show_fault_flags(parse_fault_flags("-Fd10"));
  EXPECT_EQ(plain.find("-FC"), std::string::npos) << plain;
  EXPECT_EQ(plain.find("-FJ"), std::string::npos) << plain;
  EXPECT_EQ(plain.find("-FS"), std::string::npos) << plain;
}

TEST(FaultFlags, RejectsMalformedFlags) {
  EXPECT_THROW(parse_fault_flags("-Fz1"), std::invalid_argument);
  EXPECT_THROW(parse_fault_flags("-Fd"), std::invalid_argument);
  EXPECT_THROW(parse_fault_flags("-Fdpotato"), std::invalid_argument);
  EXPECT_THROW(parse_fault_flags("-Fc3"), std::invalid_argument);
  EXPECT_THROW(parse_fault_flags("drop=20"), std::invalid_argument);
}

// --- injector determinism ---------------------------------------------------

TEST(FaultInjectorTest, DecisionsAreCounterDeterministic) {
  FaultPlan p;
  p.seed = 1234;
  p.drop = 0.5;
  p.duplicate = 0.5;
  FaultInjector a(p), b(p);
  bool any_drop = false, any_keep = false;
  for (std::uint64_t ch = 0; ch < 8; ++ch)
    for (std::uint64_t cs = 0; cs < 32; ++cs) {
      EXPECT_EQ(a.drop_message(ch, cs, 0), b.drop_message(ch, cs, 0));
      EXPECT_EQ(a.duplicate_message(ch, cs, 1), b.duplicate_message(ch, cs, 1));
      (a.drop_message(ch, cs, 0) ? any_drop : any_keep) = true;
    }
  EXPECT_TRUE(any_drop);  // p = 0.5 really bites both ways
  EXPECT_TRUE(any_keep);
  // A retransmission is a fresh draw: some dropped messages must get
  // through on a later attempt.
  bool retry_survives = false;
  for (std::uint64_t cs = 0; cs < 64 && !retry_survives; ++cs)
    if (a.drop_message(0, cs, 0) && !a.drop_message(0, cs, 1)) retry_survives = true;
  EXPECT_TRUE(retry_survives);
}

TEST(FaultInjectorTest, AllocWindowCountsOnlyMatchingCallers) {
  FaultPlan p;
  p.alloc_fail_at = 2;
  p.alloc_fail_count = 2;
  p.alloc_fail_tso = 5;
  FaultInjector inj(p);
  EXPECT_FALSE(inj.fail_alloc(3));  // wrong thread: not even counted
  EXPECT_FALSE(inj.fail_alloc(5));  // allocation #1: before the window
  EXPECT_TRUE(inj.fail_alloc(5));   // #2, #3: inside
  EXPECT_TRUE(inj.fail_alloc(5));
  EXPECT_FALSE(inj.fail_alloc(5));  // #4: window passed
  EXPECT_EQ(inj.stats().alloc_faults, 2u);
}

// --- structured internal errors (satellite 1) -------------------------------

TEST(FaultRts, ValidateRootsThrowsStructuredError) {
  Rig r;
  Machine& m = *r.m;
  // Real heap allocations so the census attached to the error is non-empty
  // (small ints live in the static arena).
  Tso* t = m.spawn_enter(make_int_list(m, 0, {10000, 20000, 30000}), 0);
  // A heap-shaped object that no heap space contains.
  alignas(8) static Word bogus_storage[2] = {0, 0};
  Obj* bogus = reinterpret_cast<Obj*>(bogus_storage);
  bogus->kind = ObjKind::Con;
  bogus->flags = 0;
  bogus->size = 1;
  t->code.ptr = bogus;
  try {
    m.validate_roots("test");
    FAIL() << "expected RtsInternalError";
  } catch (const RtsInternalError& e) {
    EXPECT_EQ(e.tso, t->id);
    EXPECT_EQ(e.slot_kind, "code.ptr");
    EXPECT_EQ(e.obj_kind, static_cast<int>(ObjKind::Con));
    EXPECT_GT(e.census.objects, 0u);
    EXPECT_NE(std::string(e.what()).find("heap:"), std::string::npos);
  }
  t->code.ptr = nullptr;  // leave the machine consistent for teardown
  t->state = ThreadState::Finished;
}

TEST(FaultRts, HeapCensusCountsByKind) {
  Rig r;
  Obj* xs = make_int_list(*r.m, 0, {10000, 20000, 30000});
  (void)xs;
  HeapCensus c = r.m->heap().census();
  EXPECT_GE(c.objects_by_kind[static_cast<int>(ObjKind::Con)], 3u);
  EXPECT_GT(c.objects, 0u);
  EXPECT_NE(c.summary().find("Con"), std::string::npos);
}

// --- graceful heap exhaustion (satellite 2 + tentpole) ----------------------

TEST(FaultHeap, AllocWithGcRetriesThroughInjectedFailures) {
  Rig r;
  FaultPlan p;
  p.alloc_fail_at = 1;
  p.alloc_fail_count = 2;  // fail the first try and the post-GC retry
  FaultInjector inj(p);
  r.m->set_fault(&inj);
  const std::uint64_t majors = r.m->heap().stats().major_collections;
  Obj* o = r.m->alloc_with_gc(0, ObjKind::Con, 0, 1);
  ASSERT_NE(o, nullptr);  // the forced-major escalation saved the request
  EXPECT_EQ(inj.stats().alloc_faults, 2u);
  EXPECT_GE(r.m->heap().stats().major_collections, majors + 1);
  r.m->set_fault(nullptr);
}

TEST(FaultHeap, AllocWithGcThrowsHeapOverflowWhenHopeless) {
  Rig r;
  FaultPlan p;
  p.alloc_fail_at = 1;
  p.alloc_fail_count = 3;  // outlast the whole escalation ladder
  FaultInjector inj(p);
  r.m->set_fault(&inj);
  EXPECT_THROW(r.m->alloc_with_gc(0, ObjKind::Con, 0, 1), HeapOverflow);
  r.m->set_fault(nullptr);
}

class FaultHeapOverflow : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(FaultHeapOverflow, UnwindsOnlyTheVictimThread) {
  expect_overflow_unwinds_only_the_victim<SimDriver>(GetParam());
}

// The ThreadedDriver cases live in the OS-thread suite (test_threaded.cpp).
INSTANTIATE_TEST_SUITE_P(Sim, FaultHeapOverflow, ::testing::Values(1u, 4u), caps_name);

// --- deadlock diagnosis (satellite 3) ---------------------------------------

// `let x = x in x`: a thunk whose body (id's Var) re-enters the thunk
// itself. Under eager black-holing the thread blocks on its own black
// hole — the minimal NonTermination cycle.
Obj* make_self_thunk(Machine& m, const Program& prog) {
  const Global& gid = prog.global(prog.find("id"));
  Obj* th = m.alloc_with_gc(0, ObjKind::Thunk, 0, 2);
  th->payload()[0] = static_cast<Word>(gid.body);
  th->ptr_payload()[1] = th;
  return th;
}

TEST(FaultDeadlock, SelfThunkIsNonTerminationInSim) {
  Rig r(nullptr, config_worksteal_eagerbh(1));
  Tso* t = r.m->spawn_enter(make_self_thunk(*r.m, r.prog), 0);
  SimDriver d(*r.m, r.cost);
  SimResult res = d.run(t);
  ASSERT_TRUE(res.deadlocked);
  EXPECT_EQ(res.diagnosis.kind, DeadlockKind::NonTermination);
  ASSERT_EQ(res.diagnosis.cycle.size(), 1u);
  EXPECT_EQ(res.diagnosis.cycle[0], t->id);
  EXPECT_NE(res.diagnosis.describe().find("<<loop>>"), std::string::npos);
}

TEST(FaultDeadlock, SelfThunkIsNonTerminationInThreaded) {
  Rig r(nullptr, config_worksteal_eagerbh(2));
  Tso* t = r.m->spawn_enter(make_self_thunk(*r.m, r.prog), 0);
  ThreadedDriver d(*r.m);
  ThreadedResult res = d.run(t);
  ASSERT_TRUE(res.deadlocked);
  EXPECT_EQ(res.diagnosis.kind, DeadlockKind::NonTermination);
  ASSERT_EQ(res.diagnosis.cycle.size(), 1u);
  EXPECT_EQ(res.diagnosis.cycle[0], t->id);
}

// Two threads blocked on each other's black hole: A owns bh1 and needs
// bh2, B owns bh2 and needs bh1.
std::pair<Tso*, Tso*> make_two_tso_cycle(Machine& m) {
  Obj* bh1 = m.alloc_with_gc(0, ObjKind::BlackHole, 0, 1);
  bh1->payload()[0] = kNoQueue;
  Obj* bh2 = m.alloc_with_gc(0, ObjKind::BlackHole, 0, 1);
  bh2->payload()[0] = kNoQueue;
  Tso* a = m.spawn_enter(bh2, 0);
  Frame fa;
  fa.kind = FrameKind::Update;
  fa.obj = bh1;
  a->stack.push_back(fa);
  Tso* b = m.spawn_enter(bh1, 0);
  Frame fb;
  fb.kind = FrameKind::Update;
  fb.obj = bh2;
  b->stack.push_back(fb);
  return {a, b};
}

void expect_cycle_of(const DeadlockDiagnosis& d, Tso* a, Tso* b) {
  EXPECT_EQ(d.kind, DeadlockKind::NonTermination);
  std::vector<ThreadId> got = d.cycle;
  std::sort(got.begin(), got.end());
  std::vector<ThreadId> want{a->id, b->id};
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want);
}

TEST(FaultDeadlock, TwoTsoBlackHoleCycleInSim) {
  Rig r(nullptr, config_worksteal_eagerbh(1));
  auto [a, b] = make_two_tso_cycle(*r.m);
  SimDriver d(*r.m, r.cost);
  SimResult res = d.run(a);
  ASSERT_TRUE(res.deadlocked);
  expect_cycle_of(res.diagnosis, a, b);
}

TEST(FaultDeadlock, TwoTsoBlackHoleCycleInThreaded) {
  Rig r(nullptr, config_worksteal_eagerbh(2));
  auto [a, b] = make_two_tso_cycle(*r.m);
  ThreadedDriver d(*r.m);
  ThreadedResult res = d.run(a);
  ASSERT_TRUE(res.deadlocked);
  expect_cycle_of(res.diagnosis, a, b);
}

// --- the reliable Eden middleware (tentpole) --------------------------------

struct FaultRig {
  Program prog;
  std::unique_ptr<EdenSystem> sys;

  FaultRig(std::uint32_t n_pes, std::uint32_t n_cores, const FaultPlan& plan) {
    Builder b(prog);
    build_prelude(b);
    build_sumeuler(b);
    build_apsp(b);
    prog.validate();
    EdenConfig cfg;
    cfg.n_pes = n_pes;
    cfg.n_cores = n_cores;
    cfg.pe_rts = config_worksteal_eagerbh(1);
    cfg.fault = plan;
    sys = std::make_unique<EdenSystem>(prog, cfg);
  }

  EdenSimResult run_root(const std::string& g, const std::vector<Obj*>& args,
                         TraceLog* trace = nullptr) {
    Tso* root = skel::root_apply(*sys, prog.find(g), args);
    EdenSimDriver d(*sys, trace);
    return d.run(root);
  }
};

std::int64_t mw_sumeuler_expect(int lo, int hi) {
  std::int64_t expect = 0;
  for (int i = lo; i <= hi; ++i)
    expect += sum_euler_reference(i) - sum_euler_reference(i - 1);
  return expect;
}

Obj* mw_sumeuler_tasks(FaultRig& r, int lo, int hi) {
  Machine& pe0 = r.sys->pe(0);
  std::vector<Obj*> tasks;
  for (int i = lo; i <= hi; ++i) tasks.push_back(make_int(pe0, 0, i));
  return skel::master_worker(*r.sys, r.prog.find("phi"), tasks, 3);
}

TEST(FaultEden, MasterWorkerSurvivesLossyChannels) {
  FaultPlan plan;
  plan.seed = 42;
  plan.drop = 0.25;  // every fourth message vanishes
  plan.duplicate = 0.10;
  plan.delay = 0.10;
  FaultRig r(4, 4, plan);
  Obj* results = mw_sumeuler_tasks(r, 10, 21);
  EdenSimResult res = r.run_root("sum", {results});
  ASSERT_FALSE(res.deadlocked) << res.diagnosis.describe();
  EXPECT_EQ(read_int(res.value), mw_sumeuler_expect(10, 21));
  EXPECT_GT(res.faults.dropped, 0u);
  EXPECT_GT(res.faults.retries, 0u);
  EXPECT_GT(res.faults.acks, 0u);
  EXPECT_GT(res.faults.dedup_dropped, 0u);  // duplicates really were filtered
  EXPECT_EQ(res.alive_pes, 4u);
}

// Satellite 4: the same fault seed must give byte-identical traces.
TEST(FaultEden, SameSeedIsByteIdentical) {
  auto once = [](std::uint64_t seed) {
    FaultPlan plan;
    plan.seed = seed;
    plan.drop = 0.25;
    plan.duplicate = 0.10;
    plan.delay = 0.15;
    FaultRig r(4, 4, plan);
    TraceLog trace(4);
    Obj* results = mw_sumeuler_tasks(r, 10, 18);
    EdenSimResult res = r.run_root("sum", {results}, &trace);
    EXPECT_FALSE(res.deadlocked);
    return std::tuple<std::string, std::uint64_t, std::int64_t>{
        trace.to_csv(), res.makespan, read_int(res.value)};
  };
  const auto a = once(7), b = once(7), c = once(8);
  EXPECT_EQ(std::get<0>(a), std::get<0>(b));  // byte-identical trace
  EXPECT_EQ(std::get<1>(a), std::get<1>(b));  // identical makespan
  EXPECT_EQ(std::get<2>(a), std::get<2>(b));
  EXPECT_EQ(std::get<2>(a), mw_sumeuler_expect(10, 18));
  // A different seed faults differently (the injector is really seeded).
  EXPECT_NE(std::get<0>(a), std::get<0>(c));
  EXPECT_EQ(std::get<2>(c), mw_sumeuler_expect(10, 18));
}

TEST(FaultEden, ApspRingSurvivesPeCrashOnLossyChannels) {
  const std::size_t n = 12;
  const std::uint32_t p = 4;
  FaultPlan plan;
  plan.seed = 3;
  plan.drop = 0.20;
  plan.crash_pe = 2;  // a ring node's PE, not the root's
  plan.crash_at = 4000;
  FaultRig r(p + 1, p + 1, plan);
  Machine& pe0 = r.sys->pe(0);
  DistMat d = random_graph(n, 77);
  const std::size_t nb = n / p;
  std::vector<Obj*> bundles;
  for (std::uint32_t i = 0; i < p; ++i) {
    DistMat bundle(d.begin() + static_cast<std::ptrdiff_t>(i * nb),
                   d.begin() + static_cast<std::ptrdiff_t>((i + 1) * nb));
    bundles.push_back(make_int_matrix(pe0, 0, bundle));
  }
  Obj* outs = skel::ring(*r.sys, r.prog.find("apspRingNode"), bundles,
                         {static_cast<std::int64_t>(p), static_cast<std::int64_t>(nb)});
  TraceLog trace(p + 1);
  EdenSimResult res = r.run_root("apspCollect", {outs}, &trace);
  ASSERT_FALSE(res.deadlocked) << res.diagnosis.describe();
  EXPECT_EQ(read_int(res.value), apsp_checksum(floyd_warshall(d)));
  EXPECT_EQ(res.faults.crashes, 1u);
  EXPECT_GE(res.faults.restarts, 1u);
  EXPECT_GT(res.faults.replayed, 0u);
  EXPECT_EQ(res.alive_pes, p);  // of p + 1
  // Recovery is visible in the trace artefact.
  bool restart_note = false;
  for (const Note& note : trace.notes())
    if (note.text.find("restart") != std::string::npos) restart_note = true;
  EXPECT_TRUE(restart_note);
}

TEST(FaultEden, MasterWorkerSurvivesPeCrash) {
  FaultPlan plan;
  plan.seed = 11;
  plan.drop = 0.20;
  plan.crash_pe = 3;
  plan.crash_at = 5000;
  FaultRig r(4, 4, plan);
  Obj* results = mw_sumeuler_tasks(r, 10, 21);
  EdenSimResult res = r.run_root("sum", {results});
  ASSERT_FALSE(res.deadlocked) << res.diagnosis.describe();
  EXPECT_EQ(read_int(res.value), mw_sumeuler_expect(10, 21));
  EXPECT_EQ(res.faults.crashes, 1u);
  EXPECT_EQ(res.alive_pes, 3u);
}

TEST(FaultEden, BaselineIsUntouchedWhenPlanDisabled) {
  // A disabled plan must leave the middleware byte-for-byte the baseline:
  // no acks, no sequence traffic, identical message counts.
  FaultPlan off;
  ASSERT_FALSE(off.enabled());
  FaultRig r(4, 4, off);
  Obj* results = mw_sumeuler_tasks(r, 10, 15);
  EdenSimResult res = r.run_root("sum", {results});
  ASSERT_FALSE(res.deadlocked);
  EXPECT_EQ(read_int(res.value), mw_sumeuler_expect(10, 15));
  EXPECT_EQ(res.faults.acks, 0u);
  EXPECT_EQ(res.faults.retries, 0u);
  EXPECT_EQ(res.alive_pes, 4u);
}

}  // namespace
}  // namespace ph::test
