// Chaos recovery — what does surviving `kill -9` cost?
//
// Three programs (sumEuler, Cannon matmul, Eden-ring APSP) run under the
// process-per-PE driver (EdenProcDriver) on the shm and tcp wires
// (--wire narrows it). Per program×wire the harness measures:
//
//   * supervision overhead — wall-clock with heartbeats at the default
//     interval (~2ms) vs. heartbeats stretched to 1s ("dormant": the
//     silence detector can't fire inside the run, so only waitpid reaping
//     remains). Both runs are crash-free; the delta is what the crash
//     detector costs when nothing ever dies.
//   * crash-detection latency — faults.detect_us from a run where a
//     non-root PE is really SIGKILLed mid-computation.
//   * replay time — faults.replay_us: wall time survivors spent pumping
//     their send-logs into the restarted incarnation, plus the count of
//     replayed log entries.
//
// The kill offset is *derived from the measured warm-up run* (35% of the
// supervised median, floored at 1.5ms), not hard-coded: a fixed offset
// silently stops crashing anything the moment the machine gets faster
// and the benchmark degrades into measuring nothing. A kill lands when
// the supervisor saw the death and respawned the PE (it respawns only a
// victim that still held work); if a crashed rep's kill did not land, the
// offset is halved and the rep retried (bounded), so "crashed" rows
// really recovered, and a row with a rep that never landed fails the run
// (exit 1) after the JSON is written. Every mode runs >= 3 reps and
// reports medians (--reps raises the count).
//
// Every run's value is checked against the crash-free sim oracle — a
// chaos benchmark whose answers drift is measuring a bug, not recovery.
// Results land in BENCH_chaos.json (--out).
#include "rt_support.hpp"

#include "eden/eden_proc.hpp"

using namespace ph;
using namespace ph::bench;

namespace {

struct ChaosRun {
  std::int64_t value = 0;
  double seconds = 0.0;
  FaultStats faults;
};

ChaosRun run_proc(const Program& prog, EdenConfig cfg, net::ProcWire wire,
                  const std::function<Tso*(EdenSystem&)>& setup) {
  cfg.transport = EdenTransportKind::Proc;
  EdenSystem sys(prog, cfg);
  Tso* root = setup(sys);
  EdenProcDriver d(sys, nullptr, wire);
  EdenRtResult r = d.run(root);
  if (r.deadlocked) {
    std::fprintf(stderr, "FATAL: chaos run deadlocked\n%s\n",
                 r.diagnosis.describe().c_str());
    std::exit(1);
  }
  ChaosRun run;
  run.value = read_int(r.value);  // while the owning heap is still alive
  run.seconds = r.seconds;
  run.faults = r.faults;
  return run;
}

// Heartbeats stretched to 1s: inside a sub-second run the supervisor sees
// at most the spawn-grace beat, so the supervision machinery is dormant.
FaultPlan dormant_plan() {
  FaultPlan p;
  p.heartbeat_interval = 1000000;
  p.heartbeat_timeout = 10000000;
  return p;
}

struct ChaosRow {
  std::string program;
  std::string wire;
  std::uint32_t pes = 0;
  std::size_t reps = 0;          // reps per mode
  std::size_t crashed_reps = 0;  // crash reps whose kill landed (PE respawned)
  std::uint64_t kill_offset_us = 0;  // median achieved kill offset
  double sup_on = 0.0;   // median seconds, default heartbeats, no crash
  double sup_off = 0.0;  // median seconds, dormant heartbeats, no crash
  double crashed = 0.0;  // median seconds, one SIGKILL mid-run
  FaultStats faults;     // medians over the crashed reps
};

double pct_over(double num, double base) {
  return base > 0.0 ? (num / base - 1.0) * 100.0 : 0.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 != 0 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

std::uint64_t median_u64(std::vector<std::uint64_t> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 != 0 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

void write_chaos_json(const std::string& path,
                      const std::vector<ChaosRow>& rows) {
  std::ofstream json(path);
  json << "{\n  \"bench\": \"chaos\",\n  \"programs\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ChaosRow& r = rows[i];
    json << "    {\"program\": \"" << r.program << "\", \"wire\": \"" << r.wire
         << "\", \"pes\": " << r.pes << ", \"reps\": " << r.reps
         << ", \"crashed_reps\": " << r.crashed_reps
         << ", \"kill_offset_us\": " << r.kill_offset_us
         << ",\n     \"seconds_supervised\": " << r.sup_on
         << ", \"seconds_unsupervised\": " << r.sup_off
         << ", \"supervision_overhead_pct\": " << pct_over(r.sup_on, r.sup_off)
         << ",\n     \"seconds_crashed\": " << r.crashed
         << ", \"recovery_overhead_pct\": " << pct_over(r.crashed, r.sup_on)
         << ",\n     \"crashes\": " << r.faults.crashes
         << ", \"restarts\": " << r.faults.restarts
         << ", \"detect_us\": " << r.faults.detect_us
         << ", \"replayed\": " << r.faults.replayed
         << ", \"replay_us\": " << r.faults.replay_us << "}"
         << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::printf("\nwrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const std::int64_t n = arg_int(argc, argv, "--n", 200);
  const std::int64_t chunk = arg_int(argc, argv, "--chunk", 10);
  const std::int64_t mat_n = arg_int(argc, argv, "--mat-n", 16);
  const std::int64_t mat_q = arg_int(argc, argv, "--mat-q", 2);
  const std::int64_t apsp_n = arg_int(argc, argv, "--apsp-n", 12);
  const std::int64_t apsp_p = arg_int(argc, argv, "--apsp-p", 4);
  // 0 (the default) derives the kill offset from the warm-up run; a
  // positive value pins it (for reproducing a specific timing).
  const std::int64_t crash_at = arg_int(argc, argv, "--crash-at", 0);
  const std::size_t reps = static_cast<std::size_t>(
      std::max<std::int64_t>(3, arg_int(argc, argv, "--reps", 3)));
  std::string out_path = "BENCH_chaos.json";
  std::string wire_name = "both";
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--out") out_path = argv[i + 1];
    if (std::string(argv[i]) == "--wire") wire_name = argv[i + 1];
  }
  std::vector<std::pair<net::ProcWire, std::string>> wires;
  if (wire_name == "shm" || wire_name == "both")
    wires.emplace_back(net::ProcWire::Shm, "shm");
  if (wire_name == "tcp" || wire_name == "both")
    wires.emplace_back(net::ProcWire::Tcp, "tcp");
  if (wires.empty()) {
    std::fprintf(stderr, "unknown --wire '%s' (expected shm, tcp or both)\n",
                 wire_name.c_str());
    return 2;
  }

  Program prog = make_full_program();

  // One entry per benchmarked program: PE count, topology builder,
  // host-side oracle, and which PE the crash run kills.
  struct Bench {
    std::string name;
    std::uint32_t pes;
    std::uint32_t crash_pe;
    std::int64_t expect;
    std::function<Tso*(EdenSystem&)> setup;
  };
  std::vector<Bench> benches;

  benches.push_back({"sumeuler", 4, 2, sum_euler_reference(n),
                     [&](EdenSystem& sys) {
                       std::vector<Obj*> tasks = chunk_inputs(sys.pe(0), n, chunk);
                       Obj* partials = skel::par_map_reduce(
                           sys, prog.find("sumPhi"), tasks);
                       return skel::root_apply(sys, prog.find("sum"), {partials});
                     }});

  const std::uint32_t q = static_cast<std::uint32_t>(mat_q);
  Mat ma = random_matrix(static_cast<std::size_t>(mat_n), 21);
  Mat mb = random_matrix(static_cast<std::size_t>(mat_n), 22);
  benches.push_back({"matmul", q * q + 1, 1,
                     mat_checksum(matmul_reference(ma, mb)),
                     [&, q](EdenSystem& sys) {
                       std::vector<Obj*> inputs =
                           make_cannon_inputs(sys.pe(0), ma, mb, q);
                       Obj* blocks = skel::torus(sys, prog.find("cannonNode"),
                                                 q, inputs, {q});
                       return skel::root_apply(sys, prog.find("sumBlocks"),
                                               {blocks});
                     }});

  const std::uint32_t rp = static_cast<std::uint32_t>(apsp_p);
  const std::int64_t nb = apsp_n / rp;
  DistMat dm = random_graph(static_cast<std::size_t>(apsp_n), 4242);
  benches.push_back({"apsp", rp + 1, 1, apsp_checksum(floyd_warshall(dm)),
                     [&, rp, nb](EdenSystem& sys) {
                       Machine& pe0 = sys.pe(0);
                       std::vector<Obj*> bundles;
                       RootGuard guard(pe0, bundles);
                       for (std::uint32_t i = 0; i < rp; ++i) {
                         DistMat bundle(
                             dm.begin() + static_cast<std::ptrdiff_t>(i * nb),
                             dm.begin() + static_cast<std::ptrdiff_t>((i + 1) * nb));
                         bundles.push_back(make_int_matrix(pe0, 0, bundle));
                       }
                       Obj* outs = skel::ring(
                           sys, prog.find("apspRingNode"), bundles,
                           {static_cast<std::int64_t>(rp), nb});
                       return skel::root_apply(sys, prog.find("apspCollect"),
                                               {outs});
                     }});

  std::printf("Chaos recovery — kill -9 survival cost under EdenProcDriver\n");
  std::printf("%-10s %-5s %12s %12s %12s %10s %10s %10s\n", "program", "wire",
              "sup-on(s)", "sup-off(s)", "crashed(s)", "detect(us)",
              "replayed", "replay(us)");

  std::vector<ChaosRow> rows;
  bool missed = false;  // a crash row with a rep whose kill never landed
  for (const Bench& b : benches) {
    for (const auto& [wire, wname] : wires) {
      EdenConfig cfg;
      cfg.n_pes = b.pes;
      cfg.n_cores = b.pes;
      cfg.pe_rts = config_worksteal_eagerbh(1);
      cfg.pe_rts.heap.nursery_words = 512 * 1024;

      ChaosRow row;
      row.program = b.name;
      row.wire = wname;
      row.pes = b.pes;
      row.reps = reps;

      // Warm-up + supervised baseline: the same runs serve both (the
      // kill offset is derived from what this machine actually measures,
      // not a hard-coded guess).
      std::vector<double> on_s, off_s, crash_s;
      for (std::size_t rep = 0; rep < reps; ++rep) {
        cfg.fault = FaultPlan{};
        ChaosRun on = run_proc(prog, cfg, wire, b.setup);
        check_value(on.value, b.expect, (b.name + " supervised").c_str());
        on_s.push_back(on.seconds);
      }
      row.sup_on = median(on_s);

      for (std::size_t rep = 0; rep < reps; ++rep) {
        cfg.fault = dormant_plan();
        ChaosRun off = run_proc(prog, cfg, wire, b.setup);
        check_value(off.value, b.expect, (b.name + " unsupervised").c_str());
        off_s.push_back(off.seconds);
      }
      row.sup_off = median(off_s);

      // 35% into the measured run, floored so the kill can't race the
      // spawn grace; a rep whose kill misses, or kills a PE that had
      // already shipped all its work (no respawn), halves the offset and
      // retries so crashed rows recover.
      const std::uint64_t derived = std::max<std::uint64_t>(
          1500, static_cast<std::uint64_t>(row.sup_on * 1e6 * 0.35));
      std::vector<std::uint64_t> offsets, det, replayed, replay_us, restarts;
      for (std::size_t rep = 0; rep < reps; ++rep) {
        std::uint64_t off_us =
            crash_at > 0 ? static_cast<std::uint64_t>(crash_at) : derived;
        ChaosRun hit;
        bool landed = false;
        for (int attempt = 0; attempt < 8; ++attempt) {
          FaultPlan crash;
          crash.crash_pe = b.crash_pe;
          crash.crash_at = off_us;
          crash.restart_max = 5;
          cfg.fault = crash;
          hit = run_proc(prog, cfg, wire, b.setup);
          check_value(hit.value, b.expect, (b.name + " crashed").c_str());
          landed = hit.faults.crashes > 0 && hit.faults.restarts > 0;
          if (landed || crash_at > 0) break;
          off_us = std::max<std::uint64_t>(250, off_us / 2);
        }
        crash_s.push_back(hit.seconds);
        offsets.push_back(off_us);
        if (landed) {
          row.crashed_reps++;
          det.push_back(hit.faults.detect_us);
          replayed.push_back(hit.faults.replayed);
          replay_us.push_back(hit.faults.replay_us);
          restarts.push_back(hit.faults.restarts);
        }
      }
      row.crashed = median(crash_s);
      row.kill_offset_us = median_u64(offsets);
      row.faults.crashes = row.crashed_reps;
      row.faults.detect_us = median_u64(det);
      row.faults.replayed = median_u64(replayed);
      row.faults.replay_us = median_u64(replay_us);
      row.faults.restarts = median_u64(restarts);
      if (row.crashed_reps < reps) {
        missed = true;
        std::fprintf(stderr, "FAIL: %s/%s — only %zu/%zu crash reps landed their "
                     "kill (offset %llu us); medians cover the crashed reps\n",
                     b.name.c_str(), wname.c_str(), row.crashed_reps, reps,
                     static_cast<unsigned long long>(row.kill_offset_us));
      }

      rows.push_back(row);
      std::printf("%-10s %-5s %12.6f %12.6f %12.6f %10llu %10llu %10llu\n",
                  b.name.c_str(), wname.c_str(), row.sup_on, row.sup_off,
                  row.crashed,
                  static_cast<unsigned long long>(row.faults.detect_us),
                  static_cast<unsigned long long>(row.faults.replayed),
                  static_cast<unsigned long long>(row.faults.replay_us));
    }
  }
  write_chaos_json(out_path, rows);
  std::printf("Expected shape: supervision overhead is small (heartbeats are "
              "one tiny frame per ~2ms per PE); a crashed run pays detection "
              "latency (~sub-ms via waitpid) plus recompute+replay, bounded "
              "by the work the dead PE held.\n");
  return missed ? 1 : 0;
}
