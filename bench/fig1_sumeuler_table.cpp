// E1 — Fig. 1 (table): "Parallel runtimes of the sumEuler program".
//
// Paper (8 cores, [1..15000]):
//   GpH in plain GHC-6.9                        2.75 s
//   GpH, big allocation area                    2.58 s
//   GpH, above + improved GC synchronisation    2.44 s
//   GpH, above + work stealing for sparks       2.30 s
//   Eden-6.8.3, 8 PEs running under PVM         2.24 s
//
// Expected shape: monotone improvement down the ladder, Eden best by a
// small margin. We time the parallel computation itself (the paper's
// sequential result check is shown separately in the Fig. 2 traces; in an
// interpreter its relative cost would drown the runtime-system effects
// this table isolates). Results are checked against the host reference.
#include "support.hpp"

using namespace ph;
using namespace ph::bench;

int main(int argc, char** argv) {
  const std::int64_t n = arg_int(argc, argv, "--n", 300);
  const std::int64_t chunk = arg_int(argc, argv, "--chunk", 10);
  const std::uint32_t cores = static_cast<std::uint32_t>(arg_int(argc, argv, "--cores", 8));
  const std::int64_t expect = sum_euler_reference(n);
  Program prog = make_full_program();

  std::printf("Fig.1 — sumEuler [1..%lld], chunk %lld, %u cores (virtual time)\n\n",
              static_cast<long long>(n), static_cast<long long>(chunk), cores);

  const std::int64_t nchunks = (n + chunk - 1) / chunk;
  auto gph_setup = [&](Machine& m) {
    // Round-robin splitting balances the chunks (phi's cost grows with k).
    return m.spawn_apply(prog.find("sumEulerParRR"),
                         {make_int(m, 0, nchunks), make_int(m, 0, n)}, 0);
  };

  std::printf("%-36s %14s %8s %10s\n", "Program version and runtime system",
              "runtime (vt)", "GCs", "gc pause");
  std::vector<std::uint64_t> times;
  for (const LadderRow& row : gph_ladder(cores)) {
    RunStats s = run_gph(prog, row.cfg, gph_setup);
    check_value(s.value, expect, row.name);
    std::printf("%-36s %14llu %8llu %10llu\n", row.name,
                static_cast<unsigned long long>(s.makespan),
                static_cast<unsigned long long>(s.gc_count),
                static_cast<unsigned long long>(s.gc_pause));
    times.push_back(s.makespan);
  }

  // Eden: the paper's parMapReduce uses one process per PE
  // (splitIntoN noPE); inputs are balanced round-robin shares.
  RunStats es = run_eden(prog, eden_config(cores, cores), [&](EdenSystem& sys) {
    std::vector<Obj*> chunks = rr_inputs(sys.pe(0), n, cores);
    Obj* partials = skel::par_map_reduce(sys, prog.find("sumPhi"), chunks);
    return skel::root_apply(sys, prog.find("sum"), {partials});
  });
  check_value(es.value, expect, "Eden parMapReduce");
  std::printf("%-36s %14llu %8llu %10llu   (%llu messages)\n",
              "Eden, one PE per core (PVM role)",
              static_cast<unsigned long long>(es.makespan),
              static_cast<unsigned long long>(es.gc_count),
              static_cast<unsigned long long>(es.gc_pause),
              static_cast<unsigned long long>(es.messages));
  times.push_back(es.makespan);

  std::printf("\nShape check (paper: each row at least as fast as the previous):\n");
  bool monotone = true;
  for (std::size_t i = 1; i < times.size(); ++i)
    if (times[i] > times[i - 1] * 103 / 100) monotone = false;  // 3% tolerance
  std::printf("  monotone improvement down the ladder: %s\n", monotone ? "YES" : "NO");
  std::printf("  plain vs best ratio: %.2fx (paper: 2.75/2.24 = 1.23x)\n",
              static_cast<double>(times.front()) /
                  static_cast<double>(*std::min_element(times.begin(), times.end())));
  return 0;
}
