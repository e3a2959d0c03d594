// Shared support for the figure-reproduction harnesses: run helpers,
// table formatting, speedup computation, argv handling.
//
// Every harness prints (a) the parameters it ran with, (b) a table shaped
// like the paper's figure, and (c) a PASS/CHECK line comparing the result
// against the host-side reference. Absolute values are virtual-time
// cycles, not seconds — only the *shape* (ordering, ratios, crossovers)
// is compared with the paper (see EXPERIMENTS.md).
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "eden/eden.hpp"
#include "progs/all.hpp"
#include "sim/sim_driver.hpp"
#include "skel/skeletons.hpp"
#include "trace/trace.hpp"

namespace ph::bench {

/// `--flag value` style lookup with default.
inline std::int64_t arg_int(int argc, char** argv, const char* flag, std::int64_t dflt) {
  for (int i = 1; i + 1 < argc; ++i)
    if (std::strcmp(argv[i], flag) == 0) return std::atoll(argv[i + 1]);
  return dflt;
}

struct RunStats {
  std::uint64_t makespan = 0;
  std::uint64_t gc_count = 0;
  std::uint64_t gc_pause = 0;
  std::uint64_t steps = 0;
  std::uint64_t dup_updates = 0;
  std::uint64_t messages = 0;
  SparkStats sparks;
  std::int64_t value = 0;
};

/// Runs `setup(machine)`'s TSO to completion on a fresh shared-heap
/// machine under the virtual-time driver.
inline RunStats run_gph(const Program& prog, RtsConfig cfg,
                        const std::function<Tso*(Machine&)>& setup,
                        TraceLog* trace = nullptr, CostModel cost = {}) {
  Machine m(prog, cfg);
  Tso* root = setup(m);
  SimDriver d(m, cost, trace);
  SimResult r = d.run(root);
  if (r.deadlocked) {
    std::fprintf(stderr, "FATAL: GpH run deadlocked (config %s)\n", cfg.name.c_str());
    std::exit(1);
  }
  RunStats s;
  s.makespan = r.makespan;
  s.gc_count = r.gc_count;
  s.gc_pause = r.gc_pause_total;
  s.steps = r.mutator_steps;
  s.dup_updates = m.stats().duplicate_updates.load();
  s.sparks = m.total_spark_stats();
  s.value = read_int(r.value);
  return s;
}

/// Runs an Eden system: `setup(sys)` wires the process network and returns
/// the root TSO on PE 0.
inline RunStats run_eden(const Program& prog, EdenConfig cfg,
                         const std::function<Tso*(EdenSystem&)>& setup,
                         TraceLog* trace = nullptr) {
  EdenSystem sys(prog, cfg);
  Tso* root = setup(sys);
  EdenSimDriver d(sys, trace);
  EdenSimResult r = d.run(root);
  if (r.deadlocked) {
    std::fprintf(stderr, "FATAL: Eden run deadlocked\n");
    std::exit(1);
  }
  RunStats s;
  s.makespan = r.makespan;
  s.gc_count = r.gc_count;
  s.gc_pause = r.gc_pause_total;
  s.messages = r.messages;
  s.value = read_int(r.value);
  return s;
}

/// The Fig. 1/2 configuration ladder with allocation areas scaled to our
/// problem sizes: the paper ran [1..15000] against GHC's 0.5MB areas; our
/// interpreted problems are ~2500x smaller, so "default" and "big"
/// become 4k and 32k words (the same 8x ratio the paper used). See
/// EXPERIMENTS.md ("scaling the allocation area").
struct LadderRow {
  const char* name;
  RtsConfig cfg;
};
inline std::vector<LadderRow> gph_ladder(std::uint32_t cores) {
  RtsConfig plain = config_plain(cores);
  plain.heap.nursery_words = 4 * 1024;
  RtsConfig big = config_bigalloc(cores);
  big.heap.nursery_words = 32 * 1024;
  RtsConfig sync = config_gcsync(cores);
  sync.heap.nursery_words = 32 * 1024;
  RtsConfig steal = config_worksteal(cores);
  steal.heap.nursery_words = 32 * 1024;
  return {
      {"GpH in plain GHC-6.9", plain},
      {"GpH, big allocation area", big},
      {"GpH, + improved GC sync", sync},
      {"GpH, + work stealing", steal},
  };
}

inline EdenConfig eden_config(std::uint32_t n_pes, std::uint32_t n_cores) {
  EdenConfig cfg;
  cfg.n_pes = n_pes;
  cfg.n_cores = n_cores;
  cfg.pe_rts = config_worksteal_eagerbh(1);
  // Eden-6.8.3 ran with GHC's default allocation area per PE (scaled).
  cfg.pe_rts.heap.nursery_words = 4 * 1024;
  return cfg;
}

/// Builds [1..n] chunked into `chunk`-sized pieces, marshalled on `m`.
inline std::vector<Obj*> chunk_inputs(Machine& m, std::int64_t n, std::int64_t chunk) {
  std::vector<Obj*> chunks;
  for (std::int64_t lo = 1; lo <= n; lo += chunk) {
    std::vector<std::int64_t> xs;
    for (std::int64_t k = lo; k < lo + chunk && k <= n; ++k) xs.push_back(k);
    chunks.push_back(make_int_list(m, 0, xs));
  }
  return chunks;
}

/// Round-robin split of [1..n] into `pieces` balanced sublists (the
/// host-side counterpart of the prelude's `unshuffle`).
inline std::vector<Obj*> rr_inputs(Machine& m, std::int64_t n, std::int64_t pieces) {
  std::vector<std::vector<std::int64_t>> split(static_cast<std::size_t>(pieces));
  for (std::int64_t k = 1; k <= n; ++k)
    split[static_cast<std::size_t>((k - 1) % pieces)].push_back(k);
  std::vector<Obj*> out;
  for (const auto& xs : split) out.push_back(make_int_list(m, 0, xs));
  return out;
}

inline void check_value(std::int64_t got, std::int64_t want, const char* what) {
  if (got == want)
    std::printf("CHECK %-28s OK (%lld)\n", what, static_cast<long long>(got));
  else {
    std::printf("CHECK %-28s FAILED: got %lld want %lld\n", what,
                static_cast<long long>(got), static_cast<long long>(want));
    std::exit(1);
  }
}

/// Prints a paper-style relative speedup table: one line per version, one
/// column per core count, speedup = T(version,1) / T(version,c).
inline void print_speedup_table(
    const std::string& title, const std::vector<std::string>& versions,
    const std::vector<std::uint32_t>& cores,
    const std::function<std::uint64_t(std::size_t version, std::uint32_t cores)>& run) {
  std::printf("\n== %s — relative speedup ==\n%-26s", title.c_str(), "version \\ cores");
  for (std::uint32_t c : cores) std::printf("%8u", c);
  std::printf("\n");
  for (std::size_t v = 0; v < versions.size(); ++v) {
    std::vector<std::uint64_t> t;
    for (std::uint32_t c : cores) t.push_back(run(v, c));
    std::printf("%-26s", versions[v].c_str());
    for (std::size_t i = 0; i < cores.size(); ++i)
      std::printf("%8.2f", static_cast<double>(t[0]) / static_cast<double>(t[i]));
    std::printf("   (T1=%llu)\n", static_cast<unsigned long long>(t[0]));
  }
}

}  // namespace ph::bench
