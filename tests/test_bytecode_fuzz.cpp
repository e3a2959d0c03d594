// Differential property fuzzer for the bytecode backend (DESIGN.md §15).
//
// A seeded generator produces random lint-clean supercombinator programs
// and runs each one twice — tree-walking interpreter vs --bytecode — on
// the deterministic sim driver and on the real OS-thread driver. The two
// engines must agree on the final value AND on the spark accounting
// (created / dud / fizzled), which pins the compiler's compile-time atom
// classification to the interpreter's runtime one. Failures print the
// splitmix64 seed: re-running with that seed rebuilds a byte-identical
// program (the generator re-seeds itself on every build), in the style of
// test_pack_fuzz.cpp.
//
// The same binary carries the code-cache robustness suite: round-trip,
// truncation, bit rot, stale version/program and unwritable paths — every
// defective file is rejected with a structured CacheError and compilation
// falls back to a fresh translation; stale code is never executed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "eden/eden_rt.hpp"
#include "eval/bytecode.hpp"
#include "progs/matmul.hpp"
#include "progs/sumeuler.hpp"
#include "rig.hpp"
#include "rts/threaded.hpp"
#include "skel/skeletons.hpp"

namespace ph::test {
namespace {

// --- the program generator --------------------------------------------------

/// Random lint-clean programs over the Int fragment: arithmetic, branches
/// on comparisons, let/letrec (including a cyclic cons knot consumed by a
/// head match), saturated and generic (function-variable) applications, a
/// shared CAF and GpH `par`. Every call graph is a DAG (a global only
/// calls strictly earlier globals), so every program terminates.
///
/// Counter-equality discipline: the spark expression under `par` is
/// always a *fresh* application of the par-free leaf global — never an
/// atom, never referenced elsewhere — so `created` counts exactly the par
/// executions and `fizzled`/`dud` stay zero in both engines. The rigs run
/// eager black-holing so a shared thunk is never evaluated twice (lazy
/// black-holing would let the two engines' different step counts change
/// the duplication pattern and hence the counters).
class Gen {
 public:
  explicit Gen(std::uint64_t seed) : seed_(seed) {}

  /// Builder-extra callback. Deterministic per seed: the RNG state is
  /// reset on every call, so the interpreter rig and the bytecode rig see
  /// byte-identical programs.
  void operator()(Builder& b) {
    s_ = seed_;
    fresh_ = 0;
    // Global 0: the designated par-free spark target.
    b.fun("fzLeaf", {"a", "b"}, [](Ctx& c) {
      return c.prim(PrimOp::Add, c.prim(PrimOp::Mul, c.var("a"), c.lit(3)),
                    c.prim(PrimOp::Sub, c.lit(7), c.var("b")));
    });
    avail_ = {{"fzLeaf", 2}};
    // A shared CAF: forced from many sites, exercising update frames and
    // black holes under both engines.
    caf_ok_ = false;
    allow_par_ = false;
    b.caf("fzCaf", [this](Ctx& c) {
      ints_.clear();
      return gen(c, 2);
    });
    caf_ok_ = true;
    allow_par_ = true;
    const int n_globals = 2 + static_cast<int>(rnd(4));
    for (int i = 0; i < n_globals; ++i) {
      std::string name = "fzG";
      name += std::to_string(i);
      const int arity = 1 + static_cast<int>(rnd(3));
      std::vector<std::string> ps;
      for (int k = 0; k < arity; ++k) {
        std::string pn = "p";
        pn += std::to_string(k);
        ps.push_back(std::move(pn));
      }
      const int depth = 3 + static_cast<int>(rnd(2));
      b.fun(name, ps, [this, ps, depth](Ctx& c) {
        ints_.assign(ps.begin(), ps.end());
        return gen(c, depth);
      });
      avail_.push_back({name, arity});
    }
    b.fun("fzMain", {"n"}, [this](Ctx& c) {
      ints_ = {"n"};
      return gen(c, 4);
    });
  }

 private:
  std::uint64_t seed_;
  std::uint64_t s_ = 0;
  int fresh_ = 0;
  bool allow_par_ = true;
  bool caf_ok_ = true;
  // The machine evaluates *every* Let right-hand side in the extended
  // (letrec) environment, while Ctx::let1 numbers its RHS in the outer
  // scope; an RHS that introduces binders of its own would therefore
  // shift de Bruijn levels and can close an accidental knot. Generated
  // let1 RHSes stay binder-free — the same discipline the prelude and
  // the progs/ kernels follow. (Ctx::letrec numbers RHSes in the
  // extended scope, so binders under a letrec RHS stay fair game.)
  bool in_let_rhs_ = false;
  std::vector<std::string> ints_;  // in-scope Int-typed names
  std::vector<std::pair<std::string, int>> avail_;  // callable globals

  std::uint64_t splitmix() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::uint64_t rnd(std::uint64_t n) { return splitmix() % n; }

  std::string fresh() {
    std::string n = "v";
    n += std::to_string(fresh_++);
    return n;
  }

  E leaf(Ctx& c) {
    if (caf_ok_ && rnd(8) == 0) return c.global("fzCaf");
    if (ints_.empty() || rnd(2) == 0)
      return c.lit(static_cast<std::int64_t>(rnd(19)) - 9);
    return c.var(ints_[rnd(ints_.size())]);
  }

  /// Mul and Neg are rare so values stay far from int64 overflow.
  PrimOp arith() {
    switch (rnd(8)) {
      case 0: case 1: case 2: return PrimOp::Add;
      case 3: case 4: return PrimOp::Sub;
      case 5: return PrimOp::Min;
      case 6: return PrimOp::Max;
      default: return rnd(2) != 0 ? PrimOp::Mul : PrimOp::Neg;
    }
  }

  E gen(Ctx& c, int depth) {
    if (depth <= 0) return leaf(c);
    switch (rnd(10)) {
      case 0:
      case 1:
        return leaf(c);
      case 2: {
        const PrimOp op = arith();
        if (op == PrimOp::Neg) return c.prim(op, gen(c, depth - 1));
        return c.prim(op, gen(c, depth - 1), gen(c, depth - 1));
      }
      case 3: {  // branch on a comparison (Bool only ever feeds iff)
        static const PrimOp cmps[] = {PrimOp::Eq, PrimOp::Ne, PrimOp::Lt,
                                      PrimOp::Le, PrimOp::Gt, PrimOp::Ge};
        E cond = c.prim(cmps[rnd(6)], gen(c, depth - 1), gen(c, depth - 1));
        return c.iff(
            cond, [&] { return gen(c, depth - 1); },
            [&] { return gen(c, depth - 1); });
      }
      case 4: {
        if (in_let_rhs_) return c.seq(gen(c, depth - 1), gen(c, depth - 1));
        const std::string nm = fresh();
        in_let_rhs_ = true;
        E rhs = gen(c, depth - 1);
        in_let_rhs_ = false;
        ints_.push_back(nm);
        E r = c.let1(nm, rhs, [&] { return gen(c, depth - 1); });
        ints_.pop_back();
        return r;
      }
      case 5:
        return c.seq(gen(c, depth - 1), gen(c, depth - 1));
      case 6: {  // saturated call to an earlier global
        const auto& [g, ar] = avail_[rnd(avail_.size())];
        std::vector<E> args;
        for (int i = 0; i < ar; ++i) args.push_back(gen(c, depth - 1));
        return c.app(g, std::move(args));
      }
      case 7: {  // par: the spark target is always a fresh application of
                 // the par-free leaf, so the counters are exact
        if (!allow_par_) return leaf(c);
        E sp = c.app("fzLeaf", {leaf(c), leaf(c)});
        return c.par(sp, gen(c, depth - 1));
      }
      case 8: {  // cyclic cons knot, consumed by a head match
        if (in_let_rhs_) return leaf(c);
        const std::string xs = fresh();
        return c.letrec(
            {xs},
            [&] { return std::vector<E>{c.cons(gen(c, 1), c.var(xs))}; },
            [&] {
              const std::string h = fresh(), t = fresh();
              Ctx::AltSpec alt;
              alt.tag = 1;
              alt.binders = {h, t};
              alt.body = [&, h] {
                ints_.push_back(h);
                E e = gen(c, depth - 1);
                ints_.pop_back();
                return e;
              };
              return c.match(c.var(xs), {alt}, [&c] { return c.lit(0); });
            });
      }
      default: {  // generic application through a bound function variable
        const auto& [g, ar] = avail_[rnd(avail_.size())];
        if (in_let_rhs_) {  // saturated call instead: no binder introduced
          std::vector<E> args;
          for (int i = 0; i < ar; ++i) args.push_back(gen(c, depth - 1));
          return c.app(g, std::move(args));
        }
        const std::string fv = fresh();
        return c.let1(fv, c.global(g), [&] {
          std::vector<E> args;
          for (int i = 0; i < ar; ++i) args.push_back(gen(c, depth - 1));
          return c.app(c.var(fv), std::move(args));
        });
      }
    }
  }
};

RtsConfig sim_cfg(bool bytecode) {
  RtsConfig cfg = config_plain(1);
  cfg.blackhole = BlackholePolicy::Eager;  // see Gen's class comment
  cfg.bytecode = bytecode;
  return cfg;
}

RtsConfig threaded_cfg(bool bytecode) {
  RtsConfig cfg = config_worksteal_eagerbh(2);
  cfg.bytecode = bytecode;
  return cfg;
}

/// The sim differential under GC pressure. Many generated programs
/// allocate nothing on one input (their values stay within the static
/// small-int cache), so that suite sweeps fzMain over a range of inputs:
/// fzSweep lo hi = sum (map fzMain (enumFromTo lo hi)). A nursery this
/// small makes every sweep of seeds 1-16 collect on both engines, so
/// programs are collected while their frames hold saved values, and no
/// step of any of them needs more than the nursery.
constexpr std::size_t kPressureNurseryWords = 256;

RtsConfig pressure_cfg(bool bytecode) {
  RtsConfig cfg = sim_cfg(bytecode);
  cfg.heap.nursery_words = kPressureNurseryWords;
  cfg.sanity = true;  // -DS audits every collection
  return cfg;
}

void build_sweep(Builder& b) {
  b.fun("fzSweep", {"lo", "hi"}, [](Ctx& c) {
    return c.app("sum", {c.app("map", {c.global("fzMain"),
                                       c.app("enumFromTo", {c.var("lo"), c.var("hi")})})});
  });
}

struct EngineRun {
  std::int64_t value = 0;
  SparkStats sparks;
  /// Fewest minor collections any one evaluation of the run crossed.
  std::uint64_t min_minor_gcs = ~std::uint64_t{0};
};

/// Runs seed's program under `cfg` on the sim driver: fzMain on 5 and
/// -3, or with `sweep`, fzSweep over [-40, -1] and [0, 40].
EngineRun run_sim(std::uint64_t seed, const RtsConfig& cfg, bool sweep = false) {
  Gen g(seed);
  Rig r([&g, sweep](Builder& b) {
          g(b);
          if (sweep) build_sweep(b);
        },
        cfg);
  using Calls = std::vector<std::vector<std::int64_t>>;
  const Calls calls = sweep ? Calls{{-40, -1}, {0, 40}} : Calls{{5}, {-3}};
  EngineRun out;
  for (const std::vector<std::int64_t>& args : calls) {
    const std::uint64_t gcs_before = r.m->heap().stats().minor_collections;
    SimResult res = r.run(sweep ? "fzSweep" : "fzMain", args);
    EXPECT_FALSE(res.deadlocked)
        << (cfg.bytecode ? "bytecode" : "interpreter") << " deadlocked: "
        << res.diagnosis.describe();
    EXPECT_EQ(res.heap_overflows, 0u);
    const bool ok = !res.deadlocked && res.value != nullptr;
    out.value = out.value * 31 + (ok ? read_int(res.value) : 0);
    out.min_minor_gcs = std::min(out.min_minor_gcs,
                                 r.m->heap().stats().minor_collections - gcs_before);
  }
  out.sparks = r.m->total_spark_stats();
  return out;
}

EngineRun run_threaded(std::uint64_t seed, bool bytecode) {
  Gen g(seed);
  Rig r([&g](Builder& b) { g(b); }, threaded_cfg(bytecode));
  EngineRun out;
  for (std::int64_t a : {std::int64_t{5}, std::int64_t{-3}}) {
    Tso* t = r.m->spawn_apply(r.prog.find("fzMain"), {make_int(*r.m, 0, a)}, 0);
    ThreadedDriver d(*r.m);
    ThreadedResult res = d.run(t);
    EXPECT_FALSE(res.deadlocked) << res.diagnosis.describe();
    out.value = out.value * 31 + read_int(res.value);
  }
  out.sparks = r.m->total_spark_stats();
  return out;
}

class BytecodeFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BytecodeFuzz, SimInterpreterAndBytecodeAgree) {
  const std::uint64_t seed = GetParam();
  SCOPED_TRACE("replay seed = " + std::to_string(seed));
  const EngineRun interp = run_sim(seed, sim_cfg(false));
  const EngineRun byte = run_sim(seed, sim_cfg(true));
  EXPECT_EQ(interp.value, byte.value);
  EXPECT_EQ(interp.sparks.created, byte.sparks.created);
  EXPECT_EQ(interp.sparks.dud, 0u);
  EXPECT_EQ(byte.sparks.dud, 0u);
  EXPECT_EQ(interp.sparks.fizzled, 0u);
  EXPECT_EQ(byte.sparks.fizzled, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BytecodeFuzz,
                         ::testing::Range(std::uint64_t{1}, std::uint64_t{49}));

// The same differential with every evaluation crossing collections and
// the -DS auditor checking each one (a failed audit throws out of run).
class BytecodeFuzzGcPressure : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BytecodeFuzzGcPressure, AuditedCollectionsKeepTheEnginesInAgreement) {
  const std::uint64_t seed = GetParam();
  SCOPED_TRACE("replay seed = " + std::to_string(seed));
  const EngineRun interp = run_sim(seed, pressure_cfg(false), /*sweep=*/true);
  const EngineRun byte = run_sim(seed, pressure_cfg(true), /*sweep=*/true);
  EXPECT_GT(interp.min_minor_gcs, 0u) << "an interpreter run never collected";
  EXPECT_GT(byte.min_minor_gcs, 0u) << "a bytecode run never collected";
  EXPECT_EQ(interp.value, byte.value);
  EXPECT_EQ(interp.sparks.created, byte.sparks.created);
  EXPECT_EQ(interp.sparks.dud, 0u);
  EXPECT_EQ(byte.sparks.dud, 0u);
  EXPECT_EQ(interp.sparks.fizzled, 0u);
  EXPECT_EQ(byte.sparks.fizzled, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BytecodeFuzzGcPressure,
                         ::testing::Range(std::uint64_t{1}, std::uint64_t{17}));

class BytecodeFuzzThreaded : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BytecodeFuzzThreaded, ThreadedInterpreterAndBytecodeAgree) {
  const std::uint64_t seed = GetParam();
  SCOPED_TRACE("replay seed = " + std::to_string(seed));
  const EngineRun interp = run_threaded(seed, false);
  const EngineRun byte = run_threaded(seed, true);
  EXPECT_EQ(interp.value, byte.value);
  // No spark-creation equality here: under the wall-clock driver a sparked
  // task may never be activated before the root finishes, and only an
  // activated task executes the `par`s nested in its body — so `created`
  // depends on machine-load timing for either engine. The deterministic
  // sim differential above pins the counter equality; this test pins the
  // wall-clock values and that neither engine fizzles (spark targets are
  // referenced nowhere else, so a fizzle would mean a duplicated eval).
  EXPECT_EQ(interp.sparks.fizzled, 0u);
  EXPECT_EQ(byte.sparks.fizzled, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BytecodeFuzzThreaded,
                         ::testing::Range(std::uint64_t{1}, std::uint64_t{17}));

// --- real-program differentials ---------------------------------------------

TEST(BytecodeDiff, SumEulerMatchesInterpreterOnSim) {
  auto extra = [](Builder& b) { build_sumeuler(b); };
  Rig interp(extra, sim_cfg(false));
  Rig byte(extra, sim_cfg(true));
  ASSERT_NE(byte.m->bytecode(), nullptr);
  EXPECT_EQ(interp.run_int("sumEulerSeq", {60}), sum_euler_reference(60));
  EXPECT_EQ(byte.run_int("sumEulerSeq", {60}), sum_euler_reference(60));
  EXPECT_EQ(interp.run_int("sumEulerPar", {10, 60}),
            byte.run_int("sumEulerPar", {10, 60}));
  // The demand-driven call-by-value optimisation must actually fire on a
  // real program (provably-strict arithmetic arguments skip the thunk).
  EXPECT_GT(byte.m->bytecode()->cbv_args, 0u);
}

TEST(BytecodeDiff, MatMulMatchesReferenceOnSim) {
  auto extra = [](Builder& b) { build_matmul(b); };
  const Mat a = random_matrix(6, 11), bm = random_matrix(6, 12);
  const Mat want = matmul_reference(a, bm);
  for (bool bytecode : {false, true}) {
    Rig r(extra, sim_cfg(bytecode));
    Obj* oa = make_int_matrix(*r.m, 0, a);
    Obj* ob = make_int_matrix(*r.m, 0, bm);
    SimResult res = r.run_forced("matMul", {oa, ob});
    ASSERT_FALSE(res.deadlocked);
    EXPECT_EQ(read_int_matrix(res.value), want) << "bytecode=" << bytecode;
  }
}

TEST(BytecodeDiff, EdenRtSumEulerValueEqualUnderBytecodePes) {
  // Every PE of a real-transport Eden system runs the bytecode engine;
  // packing/unpacking and the wire protocol must not notice.
  Program prog;
  Builder b(prog);
  build_prelude(b);
  build_sumeuler(b);
  prog.validate();
  EdenConfig cfg;
  cfg.n_pes = 2;
  cfg.n_cores = 2;
  cfg.pe_rts = config_worksteal_eagerbh(1);
  cfg.pe_rts.bytecode = true;
  cfg.transport = EdenTransportKind::Shm;
  EdenSystem sys(prog, cfg);
  Machine& pe0 = sys.pe(0);
  std::vector<Obj*> chunks;
  for (std::int64_t lo = 1; lo <= 60; lo += 10) {
    std::vector<std::int64_t> chunk;
    for (std::int64_t k = lo; k < lo + 10; ++k) chunk.push_back(k);
    chunks.push_back(make_int_list(pe0, 0, chunk));
  }
  Obj* partials = skel::par_map_reduce(sys, prog.find("sumPhi"), chunks);
  Tso* root = skel::root_apply(sys, prog.find("sum"), {partials});
  EdenThreadedDriver d(sys);
  EdenRtResult res = d.run(root);
  ASSERT_FALSE(res.deadlocked) << res.diagnosis.describe();
  EXPECT_EQ(read_int(res.value), sum_euler_reference(60));
  EXPECT_EQ(res.crc_errors, 0u);
}

// --- code-cache robustness --------------------------------------------------

Program cache_prog() {
  Program p;
  Builder b(p);
  b.fun("inc", {"x"}, [](Ctx& c) { return c.prim(PrimOp::Add, c.var("x"), c.lit(1)); });
  b.fun("twice", {"x"}, [](Ctx& c) { return c.app("inc", {c.app("inc", {c.var("x")})}); });
  p.validate();
  return p;
}

bc::CacheDefect defect_of(const std::function<void()>& f) {
  try {
    f();
  } catch (const bc::CacheError& e) {
    return e.defect;
  }
  ADD_FAILURE() << "expected a CacheError";
  return bc::CacheDefect::Io;
}

TEST(BytecodeCacheFile, SerializedBlobRoundTrips) {
  const Program p = cache_prog();
  auto blob = bc::compile_program(p);
  const std::vector<std::uint8_t> bytes = bc::serialize_blob(*blob);
  auto rt = bc::deserialize_blob(bytes.data(), bytes.size(), blob->prog_hash);
  EXPECT_EQ(rt->entries, blob->entries);
  EXPECT_EQ(rt->code, blob->code);
  EXPECT_EQ(rt->lits, blob->lits);
  EXPECT_EQ(rt->prog_hash, blob->prog_hash);
  bc::verify_blob(*rt, p.global_count());
}

TEST(BytecodeCacheFile, EveryDefectIsStructurallyRejected) {
  const Program p = cache_prog();
  auto blob = bc::compile_program(p);
  const std::vector<std::uint8_t> bytes = bc::serialize_blob(*blob);
  const std::uint64_t h = blob->prog_hash;

  // Shorter than its own header.
  EXPECT_EQ(defect_of([&] { bc::deserialize_blob(bytes.data(), 10, h); }),
            bc::CacheDefect::Truncated);
  // Shorter than its declared body.
  EXPECT_EQ(defect_of([&] { bc::deserialize_blob(bytes.data(), bytes.size() - 3, h); }),
            bc::CacheDefect::Truncated);
  {
    std::vector<std::uint8_t> bad = bytes;
    bad[0] ^= 0xff;  // magic
    EXPECT_EQ(defect_of([&] { bc::deserialize_blob(bad.data(), bad.size(), h); }),
              bc::CacheDefect::BadMagic);
  }
  {
    std::vector<std::uint8_t> bad = bytes;
    bad[4] ^= 0xff;  // format version
    EXPECT_EQ(defect_of([&] { bc::deserialize_blob(bad.data(), bad.size(), h); }),
              bc::CacheDefect::BadVersion);
  }
  // A cache written for a different Program (hash mismatch): stale code
  // must never be executed.
  EXPECT_EQ(defect_of([&] { bc::deserialize_blob(bytes.data(), bytes.size(), h + 1); }),
            bc::CacheDefect::StaleProgram);
  {
    std::vector<std::uint8_t> bad = bytes;
    bad.back() ^= 0x01;  // single body bit flip
    EXPECT_EQ(defect_of([&] { bc::deserialize_blob(bad.data(), bad.size(), h); }),
              bc::CacheDefect::BadCrc);
  }
}

TEST(BytecodeCacheFile, AbsentFileIsNotAnError) {
  EXPECT_EQ(bc::load_blob_file(::testing::TempDir() + "ph_bc_absent.bc", 1), nullptr);
}

TEST(BytecodeCacheFile, CorruptFileFallsBackToFreshCompilation) {
  const Program p = cache_prog();
  const std::string path = ::testing::TempDir() + "ph_bc_corrupt.bc";
  {
    auto blob = bc::compile_program(p);
    bc::save_blob_file(path, *blob);
  }
  {  // truncate the file to simulate a torn write / bit rot
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f << "PHBC";
  }
  bc::shared_cache().clear();
  auto blob = bc::shared_cache().get_or_compile(p, path);
  ASSERT_NE(blob, nullptr);
  bc::CacheStats st = bc::shared_cache().stats();
  EXPECT_EQ(st.rejects, 1u);
  EXPECT_EQ(st.compiles, 1u);
  EXPECT_EQ(st.file_loads, 0u);
  EXPECT_EQ(st.file_saves, 1u);  // the good blob replaced the corrupt file

  // A fresh process (simulated by clear()) now warm-starts from the file.
  bc::shared_cache().clear();
  auto warm = bc::shared_cache().get_or_compile(p, path);
  ASSERT_NE(warm, nullptr);
  st = bc::shared_cache().stats();
  EXPECT_EQ(st.compiles, 0u);
  EXPECT_EQ(st.file_loads, 1u);
  EXPECT_EQ(warm->code, blob->code);
  std::remove(path.c_str());
}

TEST(BytecodeCacheFile, UnwritablePathIsAStructuredError) {
  const Program p = cache_prog();
  auto blob = bc::compile_program(p);
  EXPECT_EQ(defect_of([&] {
              bc::save_blob_file("/nonexistent-dir-ph/cache.bc", *blob);
            }),
            bc::CacheDefect::Unwritable);
  bc::shared_cache().clear();
  EXPECT_EQ(defect_of([&] {
              bc::shared_cache().get_or_compile(p, "/nonexistent-dir-ph/cache.bc");
            }),
            bc::CacheDefect::Unwritable);
}

TEST(BytecodeCacheFile, RegistryIsSharedAcrossMachines) {
  // Two Machines over the same Program share one compiled unit: the
  // phserved precompile-then-fork path relies on this.
  bc::shared_cache().clear();
  auto extra = [](Builder& b) { build_sumeuler(b); };
  Rig a(extra, sim_cfg(true));
  Rig b2(extra, sim_cfg(true));
  EXPECT_EQ(a.m->bytecode(), b2.m->bytecode());
  EXPECT_EQ(bc::shared_cache().stats().compiles, 1u);
}

TEST(BytecodeCacheFile, CopyOfAValidatedProgramSharesItsRecordedFacts) {
  // The content hash and the lint verdict are recorded once on a validated
  // Program and shared by its copies, so a copy's cache lookup is a hash
  // compare that finds the original's blob.
  bc::shared_cache().clear();
  Rig a([](Builder& b) { build_sumeuler(b); }, sim_cfg(true));
  const Program copy = a.prog;
  EXPECT_EQ(copy.content_hash(), a.prog.content_hash());
  EXPECT_EQ(&copy.lint_report(), &a.prog.lint_report());
  Machine m(copy, sim_cfg(true));
  EXPECT_EQ(m.bytecode(), a.m->bytecode());
  EXPECT_EQ(bc::shared_cache().stats().compiles, 1u);
}

}  // namespace
}  // namespace ph::test
