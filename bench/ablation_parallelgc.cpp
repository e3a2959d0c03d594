// A7 — parallel-GC ablation: does the parallel collector pay end to end?
//
// Runs three GpH workloads on ThreadedDriver (bytecode engine, work
// stealing, eager black-holing, GHC's 64K-word nursery) at `--caps`
// capabilities (default: the host's cores), once with the sequential
// collector (--gc-threads=1) and once with a team of `--caps` workers —
// the leader plus the capabilities parked at its GC barrier, the only GC
// team the runtime forms. The two settings alternate within each
// repetition, and the one that runs first alternates too, so a stretch
// of host load biases both columns:
//
//   apsp     — GpH all-pairs shortest paths, n = --apsp-n (default 120):
//              a large live distance matrix, so collections are long;
//   apsp     — the same at n = --apsp-small-n (default 48): a small live
//              heap, where the team's assembly costs more than it copies;
//   matmul   — blocked GpH matrix multiply, n = --mat-n (96), --q 4 blocks
//              per side.
//
// Every run's value is checked against the host-side reference. Each cell
// reports the median and quartiles of end-to-end wall seconds, of GC
// seconds (time inside collect()) and of barrier seconds (per collection,
// the wait from the first capability reaching the GC barrier to the
// leader starting collect(); MachineStats::gc_sync_ns), the median
// collection counts, the repetitions, and how many pairs the team won;
// the JSON record also names the host's cores and CPU model.
//
//   ablation_parallelgc [--caps C] [--reps 7] [--apsp-n 120]
//                       [--apsp-small-n 48] [--mat-n 96] [--q 4]
//                       [--nursery 65536] [--out BENCH_gc.json]
//
// The process exits non-zero if a value is wrong or, with --caps > 1, if
// a team run ran no parallel collection. It checks no timing.
//
// JSON schema:
//   { "bench": "parallel_gc", "host": {"cores": 4, "cpu": "..."},
//     "caps": 4, "engine": "bytecode", "nursery_words": 65536, "reps": 7,
//     "workloads": [
//       { "name": "apsp", "n": 120, "value": ..., "team_wins": 7,
//         "cells": [
//           { "gc_threads": 1, "reps": 7,
//             "wall_s": {"median": ..., "q1": ..., "q3": ...},
//             "gc_s": {"median": ..., "q1": ..., "q3": ...},
//             "sync_s": {"median": ..., "q1": ..., "q3": ...},
//             "collections": ..., "parallel_collections": 0 }, ... ] }, ... ] }
// (collection counts are medians over the repetitions).
#include <sched.h>

#include <algorithm>
#include <fstream>

#include "rts/threaded.hpp"
#include "support.hpp"

using namespace ph;
using namespace ph::bench;

namespace {

std::uint32_t online_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<std::uint32_t>(std::max(1, CPU_COUNT(&set)));
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) break;
    const auto b = line.find_first_not_of(' ', colon + 1);
    return b == std::string::npos ? "unknown" : line.substr(b);
  }
  return "unknown";
}

/// Linear-interpolated quantile of an unsorted sample.
double quantile(std::vector<double> xs, double q) {
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (xs[hi] - xs[lo]) * (pos - static_cast<double>(lo));
}

struct Run {
  double wall_s = 0.0;
  double gc_s = 0.0;
  double sync_s = 0.0;
  double collections = 0.0;
  double parallel_collections = 0.0;
  std::int64_t value = 0;
};

struct Cell {
  std::uint32_t gc_threads = 1;
  std::vector<Run> runs;
  std::vector<double> column(double Run::*field) const {
    std::vector<double> xs;
    for (const Run& r : runs) xs.push_back(r.*field);
    return xs;
  }
};

struct Workload {
  std::string name;
  std::int64_t n = 0;
  std::int64_t expect = 0;
  std::function<Tso*(Machine&)> setup;
  Cell seq, team;
  int team_wins = 0;
};

Run run_once(const Program& prog, const RtsConfig& cfg,
             const std::function<Tso*(Machine&)>& setup) {
  Machine m(prog, cfg);
  Tso* root = setup(m);
  ThreadedDriver d(m);
  ThreadedResult r = d.run(root);
  if (r.deadlocked) {
    std::fprintf(stderr, "FATAL: threaded run deadlocked\n%s\n",
                 r.diagnosis.describe().c_str());
    std::exit(1);
  }
  const GcStats& gs = m.heap().stats();
  Run run;
  run.wall_s = r.seconds;
  run.gc_s = static_cast<double>(gs.gc_elapsed_ns) / 1e9;
  run.sync_s = static_cast<double>(m.stats().gc_sync_ns) / 1e9;
  run.collections = static_cast<double>(gs.minor_collections + gs.major_collections);
  run.parallel_collections = static_cast<double>(gs.parallel_collections);
  run.value = read_int(r.value);
  return run;
}

std::string stat_json(const std::vector<double>& xs) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "{\"median\": %.6f, \"q1\": %.6f, \"q3\": %.6f}",
                quantile(xs, 0.5), quantile(xs, 0.25), quantile(xs, 0.75));
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint32_t cores = online_cores();
  const std::uint32_t caps =
      static_cast<std::uint32_t>(std::max<std::int64_t>(1, arg_int(argc, argv, "--caps", cores)));
  const int reps = static_cast<int>(std::max<std::int64_t>(1, arg_int(argc, argv, "--reps", 7)));
  const std::int64_t apsp_n = arg_int(argc, argv, "--apsp-n", 120);
  const std::int64_t apsp_small_n = arg_int(argc, argv, "--apsp-small-n", 48);
  const std::int64_t mat_n = arg_int(argc, argv, "--mat-n", 96);
  const std::int64_t q = arg_int(argc, argv, "--q", 4);
  const std::int64_t nursery = arg_int(argc, argv, "--nursery", 64 * 1024);
  std::string out_path = "BENCH_gc.json";
  for (int i = 1; i + 1 < argc; ++i)
    if (std::string(argv[i]) == "--out") out_path = argv[i + 1];
  const std::string cpu = cpu_model();

  Program prog = make_full_program();

  std::vector<Workload> work;
  for (std::int64_t n : {apsp_n, apsp_small_n}) {
    auto dist = std::make_shared<DistMat>(random_graph(static_cast<std::size_t>(n), 4242));
    Workload w;
    w.name = "apsp";
    w.n = n;
    w.expect = apsp_checksum(floyd_warshall(*dist));
    w.setup = [&prog, dist, n](Machine& m) {
      Obj* nv = make_int(m, 0, n);
      Obj* mo = make_int_matrix(m, 0, *dist);
      return m.spawn_apply(prog.find("apspChecksum"), {nv, mo}, 0);
    };
    work.push_back(std::move(w));
  }
  {
    auto a = std::make_shared<Mat>(random_matrix(static_cast<std::size_t>(mat_n), 11));
    auto bm = std::make_shared<Mat>(random_matrix(static_cast<std::size_t>(mat_n), 12));
    Workload w;
    w.name = "matmul";
    w.n = mat_n;
    w.expect = mat_checksum(matmul_reference(*a, *bm));
    w.setup = [&prog, a, bm, mat_n, q](Machine& m) {
      Obj* ao = make_int_matrix(m, 0, *a);
      std::vector<Obj*> protect{ao};
      RootGuard guard(m, protect);
      protect.push_back(make_int_matrix(m, 0, *bm));
      Obj* mm = make_apply_thunk(m, 0, prog.find("matMulGph"),
                                 {make_int(m, 0, mat_n / q), make_int(m, 0, q),
                                  protect[0], protect[1]});
      std::vector<Obj*> p2{mm};
      RootGuard g2(m, p2);
      Obj* chk = make_apply_thunk(m, 0, prog.find("matSum"), {p2[0]});
      return m.spawn_enter(chk, 0);
    };
    work.push_back(std::move(w));
  }

  std::printf("A7 — parallel GC end to end: ThreadedDriver, bytecode, %u caps, "
              "%lld-word nursery, %d alternating reps\n",
              caps, static_cast<long long>(nursery), reps);
  std::printf("host: %u cores, %s\n\n", cores, cpu.c_str());
  std::printf("%-8s %5s %10s %28s %28s %28s %6s %6s %5s\n", "workload", "n", "gc-threads",
              "wall s: median [q1, q3]", "gc s: median [q1, q3]", "barrier s: median [q1, q3]",
              "GCs", "teamGC", "wins");

  bool values_ok = true;
  bool team_ran = true;
  for (Workload& w : work) {
    w.seq.gc_threads = 1;
    w.team.gc_threads = caps;
    for (int rep = 0; rep < reps; ++rep) {
      for (int k = 0; k < 2; ++k) {
        Cell& c = (k + rep) % 2 == 0 ? w.seq : w.team;
        RtsConfig cfg = config_worksteal_eagerbh(caps);
        cfg.bytecode = true;
        cfg.heap.nursery_words = static_cast<std::size_t>(nursery);
        cfg.gc_threads = c.gc_threads;
        Run r = run_once(prog, cfg, w.setup);
        if (r.value != w.expect) {
          std::printf("CHECK %s n=%lld gc-threads=%u FAILED: got %lld, want %lld\n",
                      w.name.c_str(), static_cast<long long>(w.n), c.gc_threads,
                      static_cast<long long>(r.value), static_cast<long long>(w.expect));
          values_ok = false;
        }
        c.runs.push_back(r);
      }
      if (w.team.runs.back().wall_s < w.seq.runs.back().wall_s) w.team_wins++;
    }
    for (const Run& r : w.team.runs)
      if (caps > 1 && r.parallel_collections == 0) team_ran = false;
    for (const Cell* c : {&w.seq, &w.team}) {
      const std::vector<double> wall = c->column(&Run::wall_s);
      const std::vector<double> gc = c->column(&Run::gc_s);
      const std::vector<double> sync = c->column(&Run::sync_s);
      char wall_s[64], gc_s[64], sync_s[64];
      std::snprintf(wall_s, sizeof(wall_s), "%.4f [%.4f, %.4f]", quantile(wall, 0.5),
                    quantile(wall, 0.25), quantile(wall, 0.75));
      std::snprintf(gc_s, sizeof(gc_s), "%.4f [%.4f, %.4f]", quantile(gc, 0.5),
                    quantile(gc, 0.25), quantile(gc, 0.75));
      std::snprintf(sync_s, sizeof(sync_s), "%.4f [%.4f, %.4f]", quantile(sync, 0.5),
                    quantile(sync, 0.25), quantile(sync, 0.75));
      std::printf("%-8s %5lld %10u %28s %28s %28s %6.0f %6.0f", w.name.c_str(),
                  static_cast<long long>(w.n), c->gc_threads, wall_s, gc_s, sync_s,
                  quantile(c->column(&Run::collections), 0.5),
                  quantile(c->column(&Run::parallel_collections), 0.5));
      if (c == &w.team) std::printf(" %2d/%d", w.team_wins, reps);
      std::printf("\n");
    }
  }

  std::ofstream json(out_path);
  json << "{\n  \"bench\": \"parallel_gc\",\n  \"host\": {\"cores\": " << cores
       << ", \"cpu\": \"" << cpu << "\"},\n  \"caps\": " << caps
       << ", \"engine\": \"bytecode\", \"nursery_words\": " << nursery
       << ", \"reps\": " << reps << ",\n  \"workloads\": [\n";
  for (std::size_t i = 0; i < work.size(); ++i) {
    const Workload& w = work[i];
    json << "    {\"name\": \"" << w.name << "\", \"n\": " << w.n
         << ", \"value\": " << w.expect << ", \"team_wins\": " << w.team_wins
         << ", \"cells\": [\n";
    for (const Cell* c : {&w.seq, &w.team}) {
      json << "      {\"gc_threads\": " << c->gc_threads << ", \"reps\": " << c->runs.size()
           << ", \"wall_s\": " << stat_json(c->column(&Run::wall_s))
           << ", \"gc_s\": " << stat_json(c->column(&Run::gc_s))
           << ", \"sync_s\": " << stat_json(c->column(&Run::sync_s))
           << ", \"collections\": " << quantile(c->column(&Run::collections), 0.5)
           << ", \"parallel_collections\": "
           << quantile(c->column(&Run::parallel_collections), 0.5) << "}"
           << (c == &w.seq ? "," : "") << "\n";
    }
    json << "    ]}" << (i + 1 < work.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  json.close();
  std::printf("\nwrote %s\n", out_path.c_str());
  std::printf("CHECK %-28s %s\n", "values match the host oracle", values_ok ? "OK" : "FAILED");
  if (caps > 1)
    std::printf("CHECK %-28s %s\n", "team cells ran the team path", team_ran ? "OK" : "FAILED");
  return values_ok && team_ran ? 0 : 1;
}
