// Parallel-GC torture and regression suite (DESIGN.md §10).
//
// The collector under test is the GHC 6.10-style parallel stop-the-world
// copying GC: block-structured to-space, CAS-claimed forwarding, per-worker
// scavenge deques with work stealing, busy-counter termination. The heap
// starts no thread of its own: a team is the leader plus whoever joins
// through try_help_collect() — in the runtime, ThreadedDriver's parked
// capabilities; here, donor threads. The tests attack it from four sides:
//
//   * randomized object-graph torture: seeded graphs with shared subgraphs,
//     cycles, long chains and large arrays, collected by teams of 1..8;
//     the surviving graph must be isomorphic to what the sequential oracle
//     (gc_threads == 1, the unchanged baseline collector) produces, and the
//     heap must pass a -DS-grade audit after every collection;
//   * a seeded schedule-exploration case proving BOTH outcomes of the
//     evacuation CAS race (leader copies / helper copies) are reachable and
//     benign — exactly one copy, value intact, aliased slots agree;
//   * a Machine-level torture run, driven by hand and so collected
//     sequentially, with the real -DS sanity auditor active after every
//     collection;
//   * a ThreadedDriver hammer (many concurrent collections under mutation —
//     the TSan target via the gc/sanitize-gc CTest label), with and without
//     the real -DS sanity auditor after every collection, checking the
//     per-worker single-writer counters sum coherently.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "progs/sumeuler.hpp"
#include "rig.hpp"
#include "rts/schedtest.hpp"
#include "rts/threaded.hpp"

namespace ph::test {
namespace {

// splitmix64: same counter-hash idiom as the fault injector, so every
// graph is a pure function of its seed.
std::uint64_t mix(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// --- seeded graph builder ---------------------------------------------------
// All decisions are index-based (never pointer-based) so the same seed
// builds isomorphic graphs on two different heaps.

Obj* build_node(Heap& h, std::uint64_t& rng, const std::vector<Obj*>& pool) {
  auto pick = [&]() -> Obj* { return pool[mix(rng) % pool.size()]; };
  const std::uint64_t kind = mix(rng) % 100;
  if (pool.empty() || kind < 25) {  // Int leaf
    Obj* o = h.alloc(0, ObjKind::Int, 0, 1);
    EXPECT_NE(o, nullptr);
    o->payload()[0] = mix(rng);
    return o;
  }
  if (kind < 60) {  // Con, 1..6 fields (shared subgraphs arise naturally)
    const std::uint32_t n = 1 + static_cast<std::uint32_t>(mix(rng) % 6);
    Obj* o = h.alloc(0, ObjKind::Con, static_cast<std::uint16_t>(mix(rng) % 16), n);
    EXPECT_NE(o, nullptr);
    for (std::uint32_t i = 0; i < n; ++i) o->ptr_payload()[i] = pick();
    return o;
  }
  if (kind < 80) {  // Thunk: raw ExprId + env pointers (chains grow deep)
    const std::uint32_t env = 1 + static_cast<std::uint32_t>(mix(rng) % 3);
    Obj* o = h.alloc(0, ObjKind::Thunk, 0, 1 + env);
    EXPECT_NE(o, nullptr);
    o->payload()[0] = mix(rng) % 1000;
    for (std::uint32_t i = 0; i < env; ++i) o->ptr_payload()[1 + i] = pick();
    return o;
  }
  if (kind < 90) {  // Ind (must be short-circuited by every collector)
    Obj* o = h.alloc(0, ObjKind::Ind, 0, 1);
    EXPECT_NE(o, nullptr);
    o->ptr_payload()[0] = pick();
    return o;
  }
  if (kind < 96) {  // Pap: raw GlobalId + arg pointers
    const std::uint32_t args = static_cast<std::uint32_t>(mix(rng) % 3);
    Obj* o = h.alloc(0, ObjKind::Pap, 0, 1 + args);
    EXPECT_NE(o, nullptr);
    o->payload()[0] = mix(rng) % 50;
    for (std::uint32_t i = 0; i < args; ++i) o->ptr_payload()[1 + i] = pick();
    return o;
  }
  // Large array: goes through the large-object path into the old gen.
  const std::uint32_t n = 200 + static_cast<std::uint32_t>(mix(rng) % 100);
  Obj* o = h.alloc(0, ObjKind::Con, 7, n);
  EXPECT_NE(o, nullptr);
  for (std::uint32_t i = 0; i < n; ++i) o->ptr_payload()[i] = pick();
  return o;
}

std::vector<Obj*> build_graph(Heap& h, std::uint64_t seed, std::size_t n_nodes) {
  std::uint64_t rng = seed;
  std::vector<Obj*> nodes;
  nodes.reserve(n_nodes);
  for (std::size_t i = 0; i < n_nodes; ++i) nodes.push_back(build_node(h, rng, nodes));
  // Tie cycles: rewrite fields of some Con nodes to point FORWARD.
  for (std::size_t i = 0; i + 1 < nodes.size(); i += 1 + mix(rng) % 9) {
    Obj* o = nodes[i];
    if (o->kind != ObjKind::Con || o->size == 0 || o->tag == 7) continue;
    const std::size_t j = i + 1 + mix(rng) % (nodes.size() - i - 1);
    o->ptr_payload()[mix(rng) % o->size] = nodes[j];
  }
  // Roots: a seeded subset (the rest must survive only if reachable, or
  // die — garbage is part of the torture).
  std::vector<Obj*> roots;
  for (Obj* o : nodes)
    if (mix(rng) % 4 == 0) roots.push_back(o);
  roots.push_back(nodes.back());
  return roots;
}

// --- isomorphism oracle ------------------------------------------------------

void expect_isomorphic(Obj* a, Obj* b, std::unordered_map<const Obj*, const Obj*>& map) {
  std::vector<std::pair<Obj*, Obj*>> stack{{a, b}};
  while (!stack.empty()) {
    auto [x, y] = stack.back();
    stack.pop_back();
    while (x->kind == ObjKind::Ind) x = x->ind_target();
    while (y->kind == ObjKind::Ind) y = y->ind_target();
    auto it = map.find(x);
    if (it != map.end()) {
      ASSERT_EQ(it->second, y) << "sharing differs between the two heaps";
      continue;
    }
    map.emplace(x, y);
    ASSERT_EQ(x->kind, y->kind);
    ASSERT_EQ(x->tag, y->tag);
    ASSERT_EQ(x->size, y->size);
    const std::uint32_t pf = x->ptrs_first(), pl = x->ptrs_last();
    for (std::uint32_t i = 0; i < x->size; ++i) {
      if (i >= pf && i < pl) {
        stack.emplace_back(x->ptr_payload()[i], y->ptr_payload()[i]);
      } else {
        ASSERT_EQ(x->payload()[i], y->payload()[i]) << "raw word " << i << " differs";
      }
    }
  }
}

// A -DS-grade heap audit at the Heap level: every object inside a live
// chunk, headers sane, no stale Fwd, no torn forwarding (GC-busy flag),
// every pointer field landing in a live region.
void audit_heap(Heap& h) {
  h.walk_objects([&](Obj* o, const char* region, std::uint32_t ridx, const Word* limit) {
    ASSERT_LE(static_cast<std::uint8_t>(o->kind), static_cast<std::uint8_t>(ObjKind::Fwd));
    ASSERT_NE(o->kind, ObjKind::Fwd) << "stale forwarding pointer in " << region << ridx;
    ASSERT_EQ(o->flags & kFlagGcBusy, 0) << "torn forwarding in " << region << ridx;
    ASSERT_FALSE(o->is_static());
    const std::size_t span = 1 + std::max<std::uint32_t>(1, o->size);
    ASSERT_LE(reinterpret_cast<const Word*>(o) + span, limit);
    for (std::uint32_t i = o->ptrs_first(); i < o->ptrs_last(); ++i) {
      const Obj* q = o->ptr_payload()[i];
      ASSERT_NE(q, nullptr);
      ASSERT_TRUE(h.in_live_old(q) || h.in_nursery(q) || h.in_static(q))
          << "field " << i << " points outside every live region";
    }
  });
}

// Splits the root list into `k` shards for the sharded collect overload.
std::vector<Heap::RootWalker> shard_roots(std::vector<Obj*>& roots, std::size_t k) {
  std::vector<Heap::RootWalker> shards;
  for (std::size_t s = 0; s < k; ++s) {
    shards.push_back([&roots, s, k](Gc& gc) {
      for (std::size_t i = s; i < roots.size(); i += k) gc.evacuate(roots[i]);
    });
  }
  return shards;
}

// Donor threads polling try_help_collect() for as long as they live, the
// way ThreadedDriver's parked capabilities poll it at its GC barrier.
class Donors {
 public:
  Donors(Heap& h, std::uint32_t n) {
    for (std::uint32_t i = 0; i < n; ++i)
      threads_.emplace_back([this, &h] {
        while (!stop_.load(std::memory_order_acquire)) {
          h.try_help_collect();
          std::this_thread::yield();
        }
      });
  }
  ~Donors() {
    stop_.store(true, std::memory_order_release);
    for (std::thread& t : threads_) t.join();
  }
  Donors(const Donors&) = delete;
  Donors& operator=(const Donors&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

// --- the torture test --------------------------------------------------------

class GcTorture : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(GcTorture, RandomGraphsMatchSequentialOracle) {
  const std::uint32_t threads = GetParam();
  for (std::uint64_t seed : {1ull, 7ull, 42ull, 1234ull}) {
    HeapConfig base;
    base.n_nurseries = 1;
    base.nursery_words = 1 << 16;
    base.old_words = 1 << 17;
    base.gc_block_words = 512;  // small blocks: force many refills
    HeapConfig oracle_cfg = base;
    oracle_cfg.gc_threads = 1;
    HeapConfig subject_cfg = base;
    subject_cfg.gc_threads = threads;
    Heap oracle(oracle_cfg);
    Heap subject(subject_cfg);

    std::vector<Obj*> oroots = build_graph(oracle, seed, 1200);
    std::vector<Obj*> sroots = build_graph(subject, seed, 1200);
    ASSERT_EQ(oroots.size(), sroots.size());

    auto collect_both = [&](bool major) {
      const std::uint64_t oc = oracle.collect(
          [&](Gc& gc) {
            for (Obj*& r : oroots) gc.evacuate(r);
          },
          major);
      std::uint64_t sc;
      {
        Donors donors(subject, threads - 1);  // the team: this thread leads
        sc = subject.collect(shard_roots(sroots, 4), major);
      }
      // The live set is schedule-independent: both collectors must copy
      // exactly the same number of words.
      EXPECT_EQ(oc, sc);
      audit_heap(subject);
      audit_heap(oracle);
      std::unordered_map<const Obj*, const Obj*> map;
      for (std::size_t i = 0; i < oroots.size(); ++i)
        expect_isomorphic(oroots[i], sroots[i], map);
    };

    collect_both(/*major=*/false);  // minor: nursery evacuation
    collect_both(/*major=*/true);   // major: block-structured semispace flip

    // Mutate: a second wave of allocation referencing survivors (remsets
    // stay empty — these are young-to-old edges), then another round.
    std::uint64_t rng_o = seed ^ 0xabcdef, rng_s = seed ^ 0xabcdef;
    for (int i = 0; i < 300; ++i) {
      oroots.push_back(build_node(oracle, rng_o, oroots));
      sroots.push_back(build_node(subject, rng_s, sroots));
    }
    collect_both(/*major=*/false);
    collect_both(/*major=*/true);

    if (threads > 1) {
      EXPECT_GE(subject.stats().parallel_collections, 4u);
      EXPECT_EQ(oracle.stats().parallel_collections, 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Teams, GcTorture, ::testing::Values(1u, 2u, 3u, 4u, 8u));

// --- evacuation CAS race: both outcomes reachable and benign -----------------
// Two root shards alias the same young object; the leader and one donated
// helper race their header CAS on it. Schedule exploration (serial mode,
// seeded) must reach BOTH winners across seeds, and every schedule must
// leave exactly one copy with the value intact.

TEST(GcParallelSched, EvacuationCasRaceBothOutcomesBenign) {
  std::set<std::uint32_t> winners;
  for (std::uint64_t seed = 1; seed <= 40 && winners.size() < 2; ++seed) {
    SchedPlan plan;
    plan.strategy = SchedPlan::Strategy::Random;
    plan.serial = true;
    plan.seed = seed;
    plan.schedules = 1;
    SchedController ctl(plan);
    std::uint32_t winner = ~0u;
    ctl.explore(2, [&] {
      HeapConfig hc;
      hc.n_nurseries = 1;
      hc.nursery_words = 1024;
      hc.old_words = 32 * 1024;
      hc.gc_threads = 2;
      Heap h(hc);  // the team: the leader and the helper below
      Obj* v = h.alloc(0, ObjKind::Int, 0, 1);
      ASSERT_NE(v, nullptr);
      v->payload()[0] = 42;
      std::vector<Obj*> slots{v, v};  // aliased roots in two different shards
      std::atomic<bool> done{false};
      std::thread leader([&] {
        SchedArena a(ctl, 0);
        std::vector<Heap::RootWalker> shards;
        shards.push_back([&slots](Gc& gc) { gc.evacuate(slots[0]); });
        shards.push_back([&slots](Gc& gc) { gc.evacuate(slots[1]); });
        h.collect(std::move(shards));
        done.store(true, std::memory_order_release);
      });
      std::thread helper([&] {
        SchedArena a(ctl, 1);
        while (!done.load(std::memory_order_acquire)) {
          h.try_help_collect();
          sched_hook::point(SchedPoint::Custom, 1);
        }
      });
      leader.join();
      helper.join();
      // Benign under every interleaving: one copy, aliases agree, value
      // intact, object promoted out of the nursery.
      ASSERT_EQ(slots[0], slots[1]);
      ASSERT_EQ(slots[0]->kind, ObjKind::Int);
      ASSERT_EQ(slots[0]->int_value(), 42);
      ASSERT_FALSE(h.in_nursery(slots[0]));
      ASSERT_EQ(slots[0]->flags & kFlagGcBusy, 0);
      for (const GcWorkerSpan& sp : h.last_gc_spans())
        if (sp.words_copied > 0) winner = sp.worker;
      ASSERT_NE(winner, ~0u) << "nobody copied the object";
    });
    winners.insert(winner);
  }
  EXPECT_EQ(winners.size(), 2u)
      << "only one side of the evacuation CAS race was ever reached";
}

// --- Machine-level torture under the real -DS auditor ------------------------
// A Machine driven by hand has no parked capabilities to recruit, so every
// collection takes the sequential path whatever --gc-threads says; the
// auditor runs after each one. (The audit of team collections is the -DS
// input of ThreadedSumEulerUnderParallelGcPressure below.)

TEST(GcParallel, MachineTortureUnderSanityAuditor) {
  for (std::uint32_t threads : {2u, 4u}) {
    SCOPED_TRACE("--gc-threads=" + std::to_string(threads));
    RtsConfig cfg = config_plain(threads);
    cfg.sanity = true;  // -DS: full audit after every collection
    cfg.gc_threads = threads;
    cfg.heap.nursery_words = 4096;
    cfg.heap.old_words = 32 * 1024;
    Rig r(nullptr, cfg);
    Machine& m = *r.m;
    std::vector<Obj*> protect{nullptr};
    RootGuard guard(m, protect);
    // A long cons list built through alloc_with_gc: every allocation may
    // trigger a collection with the auditor behind it.
    std::int64_t sum = 0;
    Obj* list = m.alloc_with_gc(0, ObjKind::Con, 0, 0);  // nil
    protect[0] = list;
    for (std::int64_t i = 0; i < 4000; ++i) {
      Obj* v = m.alloc_with_gc(0, ObjKind::Int, 0, 1);
      v->payload()[0] = static_cast<Word>(i);
      std::vector<Obj*> tmp{v};
      RootGuard g2(m, tmp);
      Obj* cell = m.alloc_with_gc(0, ObjKind::Con, 1, 2);
      cell->ptr_payload()[0] = tmp[0];
      cell->ptr_payload()[1] = protect[0];
      protect[0] = cell;
      sum += i;
    }
    m.collect(/*force_major=*/true);  // audited
    // Verify the list end to end.
    std::int64_t got = 0;
    std::size_t len = 0;
    for (Obj* p = follow(protect[0]); p->tag == 1; p = follow(p->ptr_payload()[1])) {
      got += follow(p->ptr_payload()[0])->int_value();
      len++;
    }
    EXPECT_EQ(len, 4000u);
    EXPECT_EQ(got, sum);
    const GcStats& s = m.heap().stats();
    EXPECT_GT(s.minor_collections, 0u);
    EXPECT_GT(s.major_collections, 0u);
    EXPECT_EQ(s.parallel_collections, 0u);
    EXPECT_EQ(m.heap().gc_threads(), threads);
  }
}

// --- ThreadedDriver hammer (the TSan target) ---------------------------------
// Real mutator threads, frequent collections, capabilities donated as GC
// workers. The per-worker words_copied counters are single-writer and
// summed by the leader — TSan (via the sanitize-gc label) checks exactly
// that discipline; here we check the sums stay coherent. The -DS input
// has the auditor walk the block-structured heap after every team
// collection, at shutdown, and after one more collection by hand —
// sequential, since no driver runs the machine any more. --gc-threads
// beyond -N asks for helpers that cannot exist (only parked capabilities
// join), so the team stays at -N.

TEST(GcParallel, ThreadedSumEulerUnderParallelGcPressure) {
  struct Input {
    bool sanity;
    std::uint32_t gc_threads;
  };
  for (Input in : {Input{false, 4}, Input{true, 4}, Input{false, 8}}) {
    SCOPED_TRACE(std::string(in.sanity ? "-DS" : "no audit") +
                 ", --gc-threads=" + std::to_string(in.gc_threads));
    RtsConfig cfg = config_worksteal(4);
    cfg.heap.nursery_words = 2048;  // many stop-the-world collections
    cfg.gc_threads = in.gc_threads;
    cfg.sanity = in.sanity;
    Rig r([](Builder& b) { build_sumeuler(b); }, cfg);
    Tso* t = r.m->spawn_apply(r.prog.find("sumEulerPar"),
                              {make_int(*r.m, 0, 8), make_int(*r.m, 0, 80)}, 0);
    ThreadedDriver d(*r.m);
    ThreadedResult res = d.run(t);
    ASSERT_FALSE(res.deadlocked);
    EXPECT_EQ(read_int(res.value), sum_euler_reference(80));
    EXPECT_EQ(r.m->heap().gc_threads(), 4u);
    const GcStats& s = r.m->heap().stats();
    EXPECT_GT(s.parallel_collections, 0u);
    EXPECT_EQ(s.parallel_collections, s.minor_collections + s.major_collections);
    EXPECT_GT(s.words_copied_minor + s.words_copied_major, 0u);
    EXPECT_GE(s.last_gc_workers, 1u);
    EXPECT_LE(s.last_gc_workers, 4u);
    EXPECT_GE(s.last_gc_balance, 1.0);
    EXPECT_GT(s.gc_elapsed_ns, 0u);
    const std::uint64_t team = s.parallel_collections;
    std::vector<Obj*> keep{res.value};
    RootGuard guard(*r.m, keep);
    r.m->collect(/*force_major=*/true);  // audited when sanity is on
    EXPECT_EQ(s.parallel_collections, team);
    EXPECT_EQ(read_int(keep[0]), sum_euler_reference(80));
  }
}

// --- sequential-path equivalence ---------------------------------------------
// --gc-threads=1 must keep the baseline collector: no team, no spans, no
// parallel bookkeeping, and byte-identical results on the same program.
// (A SimDriver run collects sequentially whatever --gc-threads says;
// Determinism.SameSeedSameTraceAcrossRuns checks that.)

TEST(GcParallel, SingleGcThreadKeepsSequentialPath) {
  RtsConfig cfg = config_worksteal(2);
  cfg.gc_threads = 1;
  cfg.heap.nursery_words = 2048;
  Rig r([](Builder& b) { build_sumeuler(b); }, cfg);
  const SimResult res = r.run("sumEulerPar", {8, 40});
  EXPECT_EQ(read_int(res.value), sum_euler_reference(40));
  const GcStats& s = r.m->heap().stats();
  EXPECT_GT(s.minor_collections + s.major_collections, 0u);
  EXPECT_EQ(s.parallel_collections, 0u);
  EXPECT_EQ(s.tospace_overflows, 0u);
  EXPECT_TRUE(r.m->heap().last_gc_spans().empty());
  EXPECT_EQ(r.m->heap().gc_threads(), 1u);
}

}  // namespace
}  // namespace ph::test
