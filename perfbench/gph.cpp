// gph_sumeuler: sumEulerPar on one shared heap under ThreadedDriver, with
// work stealing and eager black-holing, bytecode engine, fine chunks.
//
// sumEulerPar takes only its chunk size and n, so --seed changes nothing
// here: every run evaluates the same program on the same input.
#include <memory>

#include "progs/all.hpp"
#include "rts/marshal.hpp"
#include "rts/threaded.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace ph;

namespace {

constexpr std::int64_t kN = 800;
constexpr std::int64_t kChunk = 10;

RtsConfig gph_config(std::uint32_t caps) {
  RtsConfig cfg = config_worksteal_eagerbh(caps);
  cfg.bytecode = true;
  return cfg;
}

/// Spawns sumEulerPar kChunk kN. Both arguments are small ints, which the
/// Machine keeps outside its collected heap, so neither needs rooting.
Tso* spawn_sum_euler(Machine& m, const Program& prog) {
  return m.spawn_apply(prog.find("sumEulerPar"), {make_int(m, 0, kChunk), make_int(m, 0, kN)},
                       0);
}

}  // namespace

Report run_gph_sumeuler(const Options& o, Tracer& tracer) {
  Report r;
  r.notes.push_back("--seed is unused on gph_sumeuler: sumEulerPar takes only chunk " +
                    std::to_string(kChunk) + " and n " + std::to_string(kN));
  const std::int64_t expect = sum_euler_reference(kN);
  std::unique_ptr<Program> prog;

  Batch b;
  b.full_width = o.cores;
  b.setup = [&](Tracer& t) {
    prog = std::make_unique<Program>(make_full_program());
    compile_fresh(t, *prog);
    Scope s(t, "rts.Machine", 0);
    Machine m(*prog, gph_config(o.cores));
    spawn_sum_euler(m, *prog);
  };
  b.evaluate = [&](std::uint32_t caps, Tracer& t, std::uint64_t op) {
    Evaluation e;
    const RtsConfig cfg = gph_config(caps);
    // Machine and driver live on the heap, not on this stack: the stack
    // address moves with ASLR, and with it which of their hot fields share
    // a cache line. On the stack, 4-capability wall time differed by up to
    // 2x between otherwise identical processes.
    const std::uint32_t ctor = t.begin("rts.Machine", op);
    auto mp = std::make_unique<Machine>(*prog, cfg);
    Machine& m = *mp;
    t.end(ctor);
    Tso* root = nullptr;
    {
      Scope s(t, "rts.marshal", op);
      root = spawn_sum_euler(m, *prog);
    }
    auto d = std::make_unique<ThreadedDriver>(m);
    ThreadedResult res;
    {
      Scope s(t, "rts.ThreadedDriver.run", op);
      res = d->run(root);
    }
    e.wall_s = res.seconds;
    if (res.deadlocked) {
      e.failure = "deadlock: " + res.diagnosis.describe();
      return e;
    }
    const std::int64_t got = res.value != nullptr ? read_int(res.value) : -1;
    if (got != expect || res.heap_overflows != 0) {
      e.failure = "sumEuler " + std::to_string(kN) + " = " + std::to_string(got) +
                  ", want " + std::to_string(expect);
      return e;
    }
    e.ok = true;

    const GcStats& gs = m.heap().stats();
    const SparkStats sp = m.total_spark_stats();
    const double gc_s = static_cast<double>(gs.gc_elapsed_ns) / 1e9;
    const std::uint32_t team = cfg.gc_threads == 0 ? caps : cfg.gc_threads;
    e.layer = {
        {"rts.mutator_s", res.seconds - gc_s},
        {"rts.dup_updates", static_cast<double>(m.stats().duplicate_updates.load())},
        {"rts.blocked_on_blackhole", static_cast<double>(m.stats().blocked_on_blackhole)},
        {"rts.sparks_created", static_cast<double>(sp.created)},
        {"rts.sparks_converted", static_cast<double>(sp.converted)},
        {"rts.sparks_stolen", static_cast<double>(sp.stolen)},
        {"rts.sparks_fizzled", static_cast<double>(sp.fizzled)},
        {"rts.sparks_dud", static_cast<double>(sp.dud)},
        {"rts.sparks_overflowed", static_cast<double>(sp.overflowed)},
        {"rts.spark_useful_frac",
         sp.created ? static_cast<double>(sp.converted) / static_cast<double>(sp.created) : 0.0},
        {"heap.gc_s", gc_s},
        {"heap.minor_gcs", static_cast<double>(gs.minor_collections)},
        {"heap.major_gcs", static_cast<double>(gs.major_collections)},
        {"heap.parallel_gcs", static_cast<double>(gs.parallel_collections)},
        {"heap.words_copied", static_cast<double>(gs.words_copied_minor + gs.words_copied_major)},
        {"heap.words_allocated", static_cast<double>(gs.words_allocated)},
        {"heap.gc_worker_busy_frac",
         gs.gc_elapsed_ns ? static_cast<double>(gs.gc_worker_ns) /
                                (static_cast<double>(gs.gc_elapsed_ns) * team)
                          : 0.0},
        {"heap.copy_balance", gs.last_gc_balance},
    };
    return e;
  };
  b.probe = [&](Tracer& t, LayerSamples& layer) {
    probe_lint(t, *prog, layer);
    add_span_samples(t, "eval.compile_program", "eval.bc_compile_us", layer);
    // Full-width evaluations only (odd ops), whose bytecode cache is warm
    // as it is for every request a serving worker runs.
    for (const Tracer::Span& s : t.spans())
      if (s.op % 2 == 1 && std::string(s.name) == "rts.Machine")
        layer["rts.machine_ctor_us"].push_back(static_cast<double>(s.t1_ns - s.t0_ns) / 1e3);
  };
  measure_batch(o, tracer, b, r);
  return r;
}

}  // namespace perfbench
