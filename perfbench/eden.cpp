// eden_apsp: the Eden ring all-pairs shortest paths on EdenThreadedDriver
// over the shm transport, bytecode engine. Full width is nproc-1 ring
// nodes plus the root PE; width 1 is one ring node plus the root PE. The
// seed picks the random graph; the host Floyd–Warshall checksum is the
// oracle.
#include <memory>

#include "eden/eden_rt.hpp"
#include "eden/pack.hpp"
#include "progs/all.hpp"
#include "rts/marshal.hpp"
#include "skel/skeletons.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace ph;

namespace {

constexpr std::size_t kNodes = 60;  // rounded up to a multiple of the ring size
constexpr int kProbeReps = 50;

EdenConfig eden_config(std::uint32_t ring) {
  EdenConfig cfg;
  cfg.n_pes = ring + 1;
  cfg.n_cores = ring + 1;
  cfg.pe_rts = config_worksteal_eagerbh(1);
  cfg.pe_rts.bytecode = true;
  cfg.transport = EdenTransportKind::Shm;
  return cfg;
}

/// Marshals the row bundles onto PE 0 and wires the ring; returns the root.
Tso* wire_ring(EdenSystem& sys, const Program& prog, const DistMat& d, std::uint32_t ring) {
  Machine& pe0 = sys.pe(0);
  const std::size_t nb = d.size() / ring;
  std::vector<Obj*> bundles;
  RootGuard guard(pe0, bundles);
  for (std::uint32_t i = 0; i < ring; ++i) {
    DistMat bundle(d.begin() + static_cast<std::ptrdiff_t>(i * nb),
                   d.begin() + static_cast<std::ptrdiff_t>((i + 1) * nb));
    bundles.push_back(make_int_matrix(pe0, 0, bundle));
  }
  Obj* outs = skel::ring(sys, prog.find("apspRingNode"), bundles,
                         {static_cast<std::int64_t>(ring), static_cast<std::int64_t>(nb)});
  return skel::root_apply(sys, prog.find("apspCollect"), {outs});
}

}  // namespace

Report run_eden_apsp(const Options& o, Tracer& tracer) {
  Report r;
  const std::uint32_t ring = std::max<std::uint32_t>(1, o.cores - 1);
  const std::size_t n = (kNodes + ring - 1) / ring * ring;
  const DistMat graph = random_graph(n, mix(o.seed));
  const std::int64_t expect = apsp_checksum(floyd_warshall(graph));
  std::unique_ptr<Program> prog;

  Batch b;
  b.full_width = ring;
  b.setup = [&](Tracer& t) {
    prog = std::make_unique<Program>(make_full_program());
    compile_fresh(t, *prog);
    Scope s(t, "eden.EdenSystem", 0);
    EdenSystem sys(*prog, eden_config(ring));
    wire_ring(sys, *prog, graph, ring);
  };
  b.evaluate = [&](std::uint32_t width, Tracer& t, std::uint64_t op) {
    Evaluation e;
    // On the heap for a layout that does not move with ASLR (see gph.cpp).
    const std::uint32_t ctor = t.begin("eden.EdenSystem", op);
    auto sysp = std::make_unique<EdenSystem>(*prog, eden_config(width));
    EdenSystem& sys = *sysp;
    t.end(ctor);
    Tso* root = nullptr;
    {
      Scope s(t, "eden.marshal", op);
      root = wire_ring(sys, *prog, graph, width);
    }
    auto d = std::make_unique<EdenThreadedDriver>(sys);
    EdenRtResult res;
    {
      Scope s(t, "eden.EdenThreadedDriver.run", op);
      res = d->run(root);
    }
    e.wall_s = res.seconds;
    if (res.deadlocked) {
      e.failure = "deadlock: " + res.diagnosis.describe();
      return e;
    }
    const std::int64_t got = res.value != nullptr ? read_int(res.value) : -1;
    if (got != expect || res.heap_overflows != 0) {
      e.failure = "apsp checksum " + std::to_string(got) + ", want " + std::to_string(expect);
      return e;
    }
    e.ok = true;

    double gc_max = 0.0, gc_sum = 0.0;
    double minor = 0, major = 0, copied = 0, allocated = 0, dup = 0, blocked = 0;
    SparkStats sp;
    for (std::uint32_t i = 0; i < sys.n_pes(); ++i) {
      Machine& m = sys.pe(i);
      const GcStats& gs = m.heap().stats();
      const double gc = static_cast<double>(gs.gc_elapsed_ns) / 1e9;
      gc_max = std::max(gc_max, gc);
      gc_sum += gc;
      minor += static_cast<double>(gs.minor_collections);
      major += static_cast<double>(gs.major_collections);
      copied += static_cast<double>(gs.words_copied_minor + gs.words_copied_major);
      allocated += static_cast<double>(gs.words_allocated);
      dup += static_cast<double>(m.stats().duplicate_updates.load());
      blocked += static_cast<double>(m.stats().blocked_on_blackhole);
      const SparkStats s = m.total_spark_stats();
      sp.created += s.created;
      sp.stolen += s.stolen;
    }
    e.layer = {
        {"rts.mutator_s", res.seconds - gc_max},  // PEs collect independently
        {"eden.pe_gc_s_max", gc_max},
        {"eden.gc_count", static_cast<double>(res.gc_count)},
        {"net.frames", static_cast<double>(res.messages)},
        {"net.bytes", static_cast<double>(res.bytes_sent)},
        {"eden.crc_errors", static_cast<double>(res.crc_errors)},
        {"heap.gc_s", gc_sum},
        {"heap.minor_gcs", minor},
        {"heap.major_gcs", major},
        {"heap.words_copied", copied},
        {"heap.words_allocated", allocated},
        {"rts.dup_updates", dup},
        {"rts.blocked_on_blackhole", blocked},
        {"rts.sparks_created", static_cast<double>(sp.created)},
        {"rts.sparks_stolen", static_cast<double>(sp.stolen)},
    };
    return e;
  };
  b.probe = [&](Tracer& t, LayerSamples& layer) {
    probe_lint(t, *prog, layer);
    add_span_samples(t, "eval.compile_program", "eval.bc_compile_us", layer);
    // One PE's Machine, constructed on its own: the EdenSystem constructor
    // also sets up the transport, so its time is not a Machine's.
    const RtsConfig pe_rts = eden_config(ring).pe_rts;
    for (int i = 0; i < kProbeReps; ++i) {
      const std::uint32_t ctor = t.begin("rts.Machine", 0);
      Machine m(*prog, pe_rts);
      t.end(ctor);
    }
    add_span_samples(t, "rts.Machine", "rts.machine_ctor_us", layer);
    // Pack and unpack the workload's real first row bundle between two PE
    // heaps, with no driver running (mutators stopped, as the API needs).
    EdenSystem sys(*prog, eden_config(ring));
    Machine& pe0 = sys.pe(0);
    const std::size_t nb = n / ring;
    std::vector<Obj*> held{
        make_int_matrix(pe0, 0, DistMat(graph.begin(), graph.begin() + static_cast<std::ptrdiff_t>(nb)))};
    RootGuard guard(pe0, held);
    for (int i = 0; i < kProbeReps; ++i) {
      const std::uint32_t ps = t.begin("eden.pack_graph", 0);
      Packet p = pack_graph(held[0]);
      t.end(ps);
      Scope s(t, "eden.unpack_graph", 0);
      unpack_graph(sys.pe(1), 0, p);
    }
    add_span_samples(t, "eden.pack_graph", "eden.pack_us", layer);
    add_span_samples(t, "eden.unpack_graph", "eden.unpack_us", layer);
  };
  measure_batch(o, tracer, b, r);
  return r;
}

}  // namespace perfbench
