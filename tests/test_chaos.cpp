// Chaos suite: EdenProcDriver must survive `kill -9`. Every test here
// runs a real process-per-PE deployment (fork()ed workers over shm frame
// rings or a TCP mesh), lets the fault plan SIGKILL a non-root PE in the
// middle of the computation, and demands the final value equal the
// crash-free sim oracle — purity makes the respawned PE's recomputation
// and the survivors' send-log replay indistinguishable from a run where
// nothing died. The suite also pins the two failure-detection paths
// (waitpid reap, heartbeat silence via SIGSTOP) and the graceful
// degradation contract (budget exhaustion → structured RtsInternalError,
// never a hang — every test carries an explicit ctest TIMEOUT).
#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/wait.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <functional>
#include <memory>
#include <thread>

#include "eden/eden_proc.hpp"
#include "orphan_case.hpp"
#include "progs/apsp.hpp"
#include "progs/matmul.hpp"
#include "progs/sumeuler.hpp"
#include "rig.hpp"
#include "rts/flags.hpp"
#include "skel/skeletons.hpp"

namespace ph::test {
namespace {

struct ProcRig {
  Program prog;
  std::unique_ptr<EdenSystem> sys;

  ProcRig(std::uint32_t n_pes, FaultPlan fault = FaultPlan{},
          EdenTransportKind transport = EdenTransportKind::Proc) {
    Builder b(prog);
    build_prelude(b);
    build_sumeuler(b);
    build_matmul(b);
    build_apsp(b);
    prog.validate();
    EdenConfig cfg;
    cfg.n_pes = n_pes;
    cfg.n_cores = n_pes;
    cfg.pe_rts = config_worksteal_eagerbh(1);
    cfg.pe_rts.heap.nursery_words = 512 * 1024;
    cfg.transport = transport;
    cfg.fault = fault;
    sys = std::make_unique<EdenSystem>(prog, cfg);
  }

  EdenRtResult run_root(const std::string& g, const std::vector<Obj*>& args,
                        net::ProcWire wire, int crash_signal = SIGKILL,
                        TraceLog* trace = nullptr) {
    Tso* root = skel::root_apply(*sys, prog.find(g), args);
    EdenProcDriver d(*sys, trace, wire);
    d.set_crash_signal(crash_signal);
    return d.run(root);
  }
};

// 1..n in 20 chunks; n = 200 is enough work that a kill aimed at a share
// of the run lands mid-computation, and every non-root PE holds several
// tasks.
std::vector<Obj*> sumeuler_tasks(EdenSystem& sys, std::int64_t n = 200) {
  Machine& pe0 = sys.pe(0);
  std::vector<Obj*> chunks;
  const std::int64_t step = n / 20;
  for (std::int64_t lo = 1; lo <= n; lo += step) {
    std::vector<std::int64_t> chunk;
    for (std::int64_t k = lo; k < lo + step; ++k) chunk.push_back(k);
    chunks.push_back(make_int_list(pe0, 0, chunk));
  }
  return chunks;
}

// The crash-free oracle, computed by the deterministic sim driver over
// the identical topology.
std::int64_t sim_sumeuler_oracle() {
  ProcRig r(4, FaultPlan{}, EdenTransportKind::Sim);
  Obj* partials = skel::par_map_reduce(*r.sys, r.prog.find("sumPhi"),
                                       sumeuler_tasks(*r.sys));
  Tso* root = skel::root_apply(*r.sys, r.prog.find("sum"), {partials});
  EdenSimDriver d(*r.sys);
  EdenSimResult res = d.run(root);
  EXPECT_FALSE(res.deadlocked);
  return read_int(res.value);
}

// Builds a topology on a fresh rig and runs it to completion.
using ProcRun = std::function<EdenRtResult(ProcRig&)>;

// Wall-clock makespan of a crash-free run of `run`'s topology.
double crash_free_seconds(std::uint32_t n_pes, const ProcRun& run) {
  ProcRig calm(n_pes);
  return run(calm).seconds;
}

// A run whose kill landed. The rig stays alive with the result: its value
// points into PE 0's heap.
struct CrashRun {
  std::unique_ptr<ProcRig> rig;
  EdenRtResult res;
  std::uint64_t crash_at = 0;
};

// Aims the plan's kill at `frac` of a crash-free run (`calm_s`), not at a
// fixed offset a fast host finishes before. A kill lands when the
// supervisor saw the death before the run ended (and, with
// `need_respawn`, respawned the PE before it ended, which it does only
// when the victim still held work): a run whose kill missed, or fired so
// late that the root finished first, halves the offset and retries, as
// bench/chaos_recovery.cpp does.
CrashRun run_until_kill_lands(std::uint32_t n_pes, FaultPlan plan, double calm_s,
                              double frac, const ProcRun& run, bool need_respawn = false) {
  constexpr std::uint64_t kMinOffsetUs = 500;
  plan.crash_at = std::max<std::uint64_t>(
      kMinOffsetUs, static_cast<std::uint64_t>(calm_s * 1e6 * frac));
  CrashRun c;
  for (int attempt = 0; attempt < 6; ++attempt) {
    c.rig = std::make_unique<ProcRig>(n_pes, plan);
    c.res = run(*c.rig);
    c.crash_at = plan.crash_at;
    const bool landed = c.res.faults.crashes > 0 && c.res.faults.detect_us > 0 &&
                        (!need_respawn || c.res.faults.restarts > 0);
    if (landed || plan.crash_at == kMinOffsetUs) break;
    plan.crash_at = std::max(kMinOffsetUs, plan.crash_at / 2);
  }
  return c;
}

EdenRtResult run_sumeuler(ProcRig& r, net::ProcWire wire) {
  Obj* partials = skel::par_map_reduce(*r.sys, r.prog.find("sumPhi"),
                                       sumeuler_tasks(*r.sys));
  return r.run_root("sum", {partials}, wire);
}

class ProcRt : public ::testing::TestWithParam<net::ProcWire> {};

TEST_P(ProcRt, SumEulerMatchesSimOracleWithoutFaults) {
  const std::int64_t oracle = sim_sumeuler_oracle();
  ProcRig r(4);
  Obj* partials = skel::par_map_reduce(*r.sys, r.prog.find("sumPhi"),
                                       sumeuler_tasks(*r.sys));
  EdenRtResult res = r.run_root("sum", {partials}, GetParam());
  ASSERT_FALSE(res.deadlocked) << res.diagnosis.describe();
  EXPECT_EQ(read_int(res.value), oracle);
  EXPECT_EQ(read_int(res.value), sum_euler_reference(200));
  EXPECT_GT(res.messages, 0u);
  EXPECT_EQ(res.crc_errors, 0u);
  EXPECT_EQ(res.faults.crashes, 0u);
}

TEST_P(ProcRt, KillDashNineNonRootPeMidComputationRecovers) {
  // The headline chaos test: a non-root PE is SIGKILLed for real at a
  // seed-randomized share of a crash-free run; the respawned incarnation
  // recomputes, the survivors replay, and the value is exact.
  const std::int64_t oracle = sim_sumeuler_oracle();
  const ProcRun run = [&](ProcRig& r) { return run_sumeuler(r, GetParam()); };
  const double calm_s = crash_free_seconds(4, run);
  for (std::uint64_t seed : {11u, 23u, 47u}) {
    FaultPlan plan;
    plan.seed = seed;
    plan.crash_pe = 1 + static_cast<std::uint32_t>(seed % 3);  // PEs 1..3
    plan.restart_max = 5;
    const double frac = 0.2 + 0.4 * static_cast<double>((seed * 7919) % 1000) / 1000.0;
    CrashRun c = run_until_kill_lands(4, plan, calm_s, frac, run, /*need_respawn=*/true);
    const EdenRtResult& res = c.res;
    ASSERT_FALSE(res.deadlocked) << res.diagnosis.describe();
    EXPECT_EQ(read_int(res.value), oracle) << "seed " << seed;
    EXPECT_EQ(read_int(res.value), sum_euler_reference(200));
    ASSERT_EQ(res.faults.crashes, 1u) << "seed " << seed
        << ": the kill never fired (last offset " << c.crash_at << " us)";
    EXPECT_GE(res.faults.restarts, 1u) << "seed " << seed;
    EXPECT_GT(res.faults.detect_us, 0u) << "seed " << seed;
  }
}

TEST_P(ProcRt, CrashComposesWithALossyWire) {
  // kill -9 on top of drop/duplicate/delay: the retransmit protocol and
  // the crash supervision must not tread on each other.
  FaultPlan plan;
  plan.seed = 5;
  plan.drop = 0.1;
  plan.duplicate = 0.1;
  plan.delay = 0.1;
  plan.delay_extra = 500;
  plan.retry_timeout = 2000;
  plan.crash_pe = 2;
  plan.crash_at = 15000;
  ProcRig r(4, plan);
  Obj* partials = skel::par_map_reduce(*r.sys, r.prog.find("sumPhi"),
                                       sumeuler_tasks(*r.sys));
  EdenRtResult res = r.run_root("sum", {partials}, GetParam());
  ASSERT_FALSE(res.deadlocked) << res.diagnosis.describe();
  EXPECT_EQ(read_int(res.value), sum_euler_reference(200));
}

TEST(ProcChaos, RingApspSurvivesACrash) {
  const std::size_t n = 12;
  const std::uint32_t p = 4;
  const std::size_t nb = n / p;
  DistMat dm = random_graph(n, 77);
  const ProcRun run = [&](ProcRig& r) {
    Machine& pe0 = r.sys->pe(0);
    std::vector<Obj*> bundles;
    for (std::uint32_t i = 0; i < p; ++i) {
      DistMat bundle(dm.begin() + static_cast<std::ptrdiff_t>(i * nb),
                     dm.begin() + static_cast<std::ptrdiff_t>((i + 1) * nb));
      bundles.push_back(make_int_matrix(pe0, 0, bundle));
    }
    Obj* outs = skel::ring(*r.sys, r.prog.find("apspRingNode"), bundles,
                           {static_cast<std::int64_t>(p), static_cast<std::int64_t>(nb)});
    return r.run_root("apspCollect", {outs}, net::ProcWire::Shm);
  };
  FaultPlan plan;
  plan.crash_pe = 2;
  CrashRun c = run_until_kill_lands(p + 1, plan, crash_free_seconds(p + 1, run), 0.3, run);
  const EdenRtResult& res = c.res;
  ASSERT_FALSE(res.deadlocked) << res.diagnosis.describe();
  EXPECT_EQ(read_int(res.value), apsp_checksum(floyd_warshall(dm)));
  ASSERT_EQ(res.faults.crashes, 1u)
      << "the kill never fired (last offset " << c.crash_at << " us)";
  // The death was at least detected; the run may legally finish while
  // the respawn is still pending if the victim's output already shipped.
  EXPECT_GT(res.faults.detect_us, 0u);
}

TEST(ProcChaos, TorusCannonSurvivesACrashOverTcp) {
  const std::uint32_t q = 2;
  // 16x16 (8x8 blocks per node) keeps every node busy well past the
  // crash offset — an 8x8 input can beat the kill to the finish line.
  Mat a = random_matrix(16, 21), bm = random_matrix(16, 22);
  const ProcRun run = [&](ProcRig& r) {
    std::vector<Obj*> inputs = make_cannon_inputs(r.sys->pe(0), a, bm, q);
    Obj* blocks = skel::torus(*r.sys, r.prog.find("cannonNode"), q, inputs, {q});
    return r.run_root("sumBlocks", {blocks}, net::ProcWire::Tcp);
  };
  FaultPlan plan;
  plan.crash_pe = 1;
  CrashRun c = run_until_kill_lands(q * q + 1, plan, crash_free_seconds(q * q + 1, run),
                                    0.3, run);
  const EdenRtResult& res = c.res;
  ASSERT_FALSE(res.deadlocked) << res.diagnosis.describe();
  EXPECT_EQ(read_int(res.value), mat_checksum(matmul_reference(a, bm)));
  ASSERT_EQ(res.faults.crashes, 1u)
      << "the kill never fired (last offset " << c.crash_at << " us)";
  EXPECT_GT(res.faults.detect_us, 0u);
}

TEST(ProcChaos, HeartbeatSilenceDetectsAWedgedPe) {
  // SIGSTOP instead of SIGKILL: the victim never becomes reapable, so
  // only the heartbeat-silence detector can notice. The supervisor must
  // kill the zombie-in-life for real and recover exactly as for a crash.
  // The wedge is aimed at a share of a crash-free run, like the kill
  // above: every process starts at once, so a fixed offset can fall after
  // the victim's last task.
  FaultPlan plan;
  plan.crash_pe = 1;
  const ProcRun run = [](ProcRig& r) {
    Obj* partials = skel::par_map_reduce(*r.sys, r.prog.find("sumPhi"),
                                         sumeuler_tasks(*r.sys));
    return r.run_root("sum", {partials}, net::ProcWire::Shm, SIGSTOP);
  };
  const double calm_s = crash_free_seconds(4, [](ProcRig& r) {
    return run_sumeuler(r, net::ProcWire::Shm);
  });
  CrashRun c = run_until_kill_lands(4, plan, calm_s, 0.25, run, /*need_respawn=*/true);
  const EdenRtResult& res = c.res;
  ASSERT_FALSE(res.deadlocked) << res.diagnosis.describe();
  EXPECT_EQ(read_int(res.value), sum_euler_reference(200));
  ASSERT_EQ(res.faults.crashes, 1u);
  EXPECT_GE(res.faults.restarts, 1u);
  // Detection had to ride the silence timeout (50ms floor), measured
  // from the kill — the victim's last beat lands up to an interval plus
  // a supervisor tick earlier, so the latency sits just under the floor.
  // Reap-path detection would clock in around a single 500µs tick.
  EXPECT_GE(res.faults.detect_us, 30000u);
}

TEST(ProcChaos, RestartBudgetExhaustionFailsStructuredNotHung) {
  // restart_max=0: the first death exhausts the budget. The run must
  // unwind with a structured error naming the lost PE — not wedge on the
  // dead PE's unacked counts.
  FaultPlan plan;
  plan.crash_pe = 2;
  plan.crash_at = 5000;  // sumEuler(200) runs tens of ms: the kill lands
  plan.restart_max = 0;
  ProcRig r(4, plan);
  Obj* partials = skel::par_map_reduce(*r.sys, r.prog.find("sumPhi"),
                                       sumeuler_tasks(*r.sys));
  bool threw = false;
  try {
    r.run_root("sum", {partials}, net::ProcWire::Shm);
  } catch (const RtsInternalError& e) {
    threw = true;
    EXPECT_NE(std::string(e.what()).find("pe 2 lost"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("restart budget exhausted"),
              std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(threw) << "budget exhaustion surfaced no error";
}

TEST(ProcChaos, GracefulShutdownMidComputationReapsAllWorkers) {
  // request_shutdown() from another thread while the fleet is deep in a
  // computation: the supervisor must deliver Shutdown, let the workers
  // ship Stats and _Exit(0), and reap every pid it ever forked — no
  // zombies, no orphans, and nothing left on /dev/shm (the rings are
  // unlinked at creation precisely so a teardown cannot leak them).
  ProcRig r(4);
  Obj* partials = skel::par_map_reduce(*r.sys, r.prog.find("sumPhi"),
                                       sumeuler_tasks(*r.sys));
  Tso* root = skel::root_apply(*r.sys, r.prog.find("sum"), {partials});
  EdenProcDriver d(*r.sys, nullptr, net::ProcWire::Shm);
  EdenRtResult res;
  std::thread runner([&] { res = d.run(root); });
  // sumEuler(200) runs tens of ms: 15ms in, the workers are mid-flight.
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  d.request_shutdown();
  runner.join();

  const std::vector<pid_t> pids = d.spawned_pids();
  ASSERT_EQ(pids.size(), 4u);  // no crash, no respawn: one fork per PE
  for (pid_t pid : pids) {
    // waitpid-verified: the supervisor already reaped this child. ECHILD
    // (not 0/EINTR, not a status) is the only acceptable answer — a 0
    // would mean a live orphan, a status would mean a zombie we inherited.
    errno = 0;
    EXPECT_EQ(waitpid(pid, nullptr, WNOHANG), -1) << "pid " << pid;
    EXPECT_EQ(errno, ECHILD) << "pid " << pid;
  }
  EXPECT_EQ(res.faults.crashes, 0u);
  if (DIR* shm = opendir("/dev/shm")) {
    while (dirent* e = readdir(shm))
      EXPECT_EQ(std::string(e->d_name).find("parhask"), std::string::npos)
          << "leaked shm segment " << e->d_name;
    closedir(shm);
  }
}

TEST(ProcChaos, WorkersExitWhenTheirSupervisorDiesMidRun) {
  expect_workers_exit_with_their_supervisor(4, [](int fd) {
    // 25 times the work of sumEuler(200): the kill lands mid-computation.
    ProcRig r(4);
    Obj* partials = skel::par_map_reduce(*r.sys, r.prog.find("sumPhi"),
                                         sumeuler_tasks(*r.sys, 1000));
    Tso* root = skel::root_apply(*r.sys, r.prog.find("sum"), {partials});
    EdenProcDriver d(*r.sys, nullptr, net::ProcWire::Shm);
    std::thread runner([&] { d.run(root); });
    while (d.spawned_pids().size() < 4)
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    report_worker_pids(fd, d.spawned_pids());
    runner.join();
  });
}

INSTANTIATE_TEST_SUITE_P(Wires, ProcRt,
                         ::testing::Values(net::ProcWire::Shm, net::ProcWire::Tcp),
                         [](const ::testing::TestParamInfo<net::ProcWire>& i) {
                           return i.param == net::ProcWire::Shm ? "shm" : "tcp";
                         });

TEST(ProcGuards, ProcDriverRejectsNonProcSystems) {
  ProcRig thr(2, FaultPlan{}, EdenTransportKind::Shm);
  EXPECT_THROW(EdenProcDriver d(*thr.sys), ProgramError);
}

TEST(ProcGuards, ProcSystemsForceReliableChannels) {
  // The supervisor replays send logs, so the reliable protocol must be on
  // even without a fault plan.
  ProcRig r(2);
  EXPECT_TRUE(r.sys->realtime());
}

TEST(ProcGuards, RtsFlagsSelectProcTransport) {
  Program prog;
  Builder b(prog);
  build_prelude(b);
  prog.validate();
  EdenConfig cfg;
  cfg.n_pes = 2;
  cfg.pe_rts = parse_rts_flags("--eden-transport=proc", config_worksteal_eagerbh(1));
  EdenSystem sys(prog, cfg);
  EXPECT_TRUE(sys.realtime());
  EXPECT_EQ(sys.config().transport, EdenTransportKind::Proc);
}

}  // namespace
}  // namespace ph::test
