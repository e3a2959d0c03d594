// Core Lint + dataflow analysis suite (DESIGN.md §12): seeded
// malformed-IR corpus pinned to exact rule ids, clean pass over every
// shipped program, demand/spark-usefulness verdicts, and the
// spark-elision property tests (value-equal, spark counters only
// decrease) on the sim and threaded drivers.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/analysis/dataflow.hpp"
#include "core/analysis/demand.hpp"
#include "core/analysis/elide.hpp"
#include "core/analysis/packability.hpp"
#include "core/analysis/sparkuse.hpp"
#include "core/builder.hpp"
#include "core/lint/lint.hpp"
#include "gph/prelude.hpp"
#include "progs/all.hpp"
#include "rts/machine.hpp"
#include "rts/marshal.hpp"
#include "rts/threaded.hpp"
#include "sim/sim_driver.hpp"

namespace {

using namespace ph;

std::size_t count_rule(const LintReport& r, LintRule rule) {
  return static_cast<std::size_t>(
      std::count_if(r.defects.begin(), r.defects.end(),
                    [&](const LintDefect& d) { return d.rule == rule; }));
}

const LintDefect& first_rule(const LintReport& r, LintRule rule) {
  for (const LintDefect& d : r.defects)
    if (d.rule == rule) return d;
  throw std::runtime_error("rule not reported");
}

// ---------------------------------------------------------------------------
// Seeded malformed-IR corpus: every program below is accepted by the raw
// table-building API, and lint must pin each planted defect to its rule id.
// ---------------------------------------------------------------------------

TEST(LintCorpus, OutOfScopeVariableIsL2) {
  Program p;
  Expr v;
  v.tag = ExprTag::Var;
  v.a = 3;  // f has arity 1: only level 0 is in scope
  const ExprId ve = p.add_expr(v);
  const GlobalId f = p.declare("f", 1);
  p.define(f, ve);
  const LintReport r = lint_program(p);
  ASSERT_EQ(r.defects.size(), 1u);
  EXPECT_EQ(r.defects[0].rule, LintRule::L2UnboundVar);
  EXPECT_STREQ(lint_rule_id(r.defects[0].rule), "L2");
  EXPECT_EQ(r.defects[0].global, f);
  EXPECT_EQ(r.defects[0].expr, ve);
  EXPECT_EQ(r.defects[0].path, "body");
  EXPECT_FALSE(r.clean());
}

TEST(LintCorpus, DanglingExprIdIsL1) {
  Program p;
  const GlobalId f = p.declare("f", 0);
  p.define(f, 42);  // table is empty
  const LintReport r = lint_program(p);
  ASSERT_EQ(count_rule(r, LintRule::L1DanglingExpr), 1u);
  EXPECT_EQ(first_rule(r, LintRule::L1DanglingExpr).expr, 42);
}

TEST(LintCorpus, UndefinedSupercombinatorIsL1) {
  Program p;
  p.declare("ghost", 2);  // never defined
  const LintReport r = lint_program(p);
  ASSERT_EQ(count_rule(r, LintRule::L1DanglingExpr), 1u);
  EXPECT_NE(first_rule(r, LintRule::L1DanglingExpr).message.find("no body"),
            std::string::npos);
}

TEST(LintCorpus, CyclicExpressionTableIsL1) {
  Program p;
  Expr l;
  l.tag = ExprTag::Lit;
  l.lit = 1;
  const ExprId lit = p.add_expr(l);
  Expr s;
  s.tag = ExprTag::Seq;
  s.kids = {1, lit};  // kid 1 is this very node
  const ExprId self = p.add_expr(s);
  ASSERT_EQ(self, 1);
  const GlobalId f = p.declare("f", 0);
  p.define(f, self);
  const LintReport r = lint_program(p);
  ASSERT_GE(count_rule(r, LintRule::L1DanglingExpr), 1u);
  EXPECT_NE(first_rule(r, LintRule::L1DanglingExpr).message.find("cyclic"),
            std::string::npos);
}

TEST(LintCorpus, DanglingGlobalReferenceIsL3) {
  Program p;
  Expr g;
  g.tag = ExprTag::Global;
  g.a = 57;
  const ExprId ge = p.add_expr(g);
  const GlobalId f = p.declare("f", 0);
  p.define(f, ge);
  const LintReport r = lint_program(p);
  ASSERT_EQ(count_rule(r, LintRule::L3DanglingGlobal), 1u);
}

TEST(LintCorpus, AppWithoutArgumentsIsL4) {
  Program p;
  Expr l;
  l.tag = ExprTag::Lit;
  const ExprId lit = p.add_expr(l);
  Expr a;
  a.tag = ExprTag::App;
  a.kids = {lit};  // function, no arguments
  const ExprId ae = p.add_expr(a);
  const GlobalId f = p.declare("f", 0);
  p.define(f, ae);
  const LintReport r = lint_program(p);
  ASSERT_EQ(count_rule(r, LintRule::L4AppNoArgs), 1u);
}

TEST(LintCorpus, OverAppliedPrimIsL5) {
  Program p;
  Expr l;
  l.tag = ExprTag::Lit;
  const ExprId lit = p.add_expr(l);
  Expr pr;
  pr.tag = ExprTag::Prim;
  pr.a = static_cast<std::int32_t>(PrimOp::Neg);
  pr.kids = {lit, lit};  // neg# is unary
  const ExprId pe = p.add_expr(pr);
  const GlobalId f = p.declare("f", 0);
  p.define(f, pe);
  const LintReport r = lint_program(p);
  ASSERT_EQ(count_rule(r, LintRule::L5PrimArity), 1u);
  EXPECT_NE(first_rule(r, LintRule::L5PrimArity).message.find("neg#"),
            std::string::npos);
}

TEST(LintCorpus, UnsaturatedConstructorIsL6) {
  Program p;
  Expr l;
  l.tag = ExprTag::Lit;
  const ExprId lit = p.add_expr(l);
  Expr c;
  c.tag = ExprTag::Con;
  c.a = 1;          // Cons carries two fields…
  c.kids = {lit};   // …but only one is supplied
  const ExprId ce = p.add_expr(c);
  const GlobalId f = p.declare("f", 0);
  p.define(f, ce);
  const LintReport r = lint_program(p);
  ASSERT_EQ(count_rule(r, LintRule::L6ConShape), 1u);
}

TEST(LintCorpus, ConTagOverflowingRuntimeFieldIsL6) {
  // Obj::tag is 16-bit; an IR tag above 0xFFFF silently truncates when the
  // constructor is allocated, so lint must refuse it statically.
  Program p;
  Expr c;
  c.tag = ExprTag::Con;
  c.a = 0x10000;
  const ExprId ce = p.add_expr(c);
  const GlobalId f = p.declare("f", 0);
  p.define(f, ce);
  const LintReport r = lint_program(p);
  ASSERT_EQ(count_rule(r, LintRule::L6ConShape), 1u);
  EXPECT_NE(first_rule(r, LintRule::L6ConShape).message.find("16-bit"),
            std::string::npos);
}

TEST(LintCorpus, DuplicateCaseTagsAreL7) {
  Program p;
  Builder b(p);
  b.fun("f", {"x"}, [](Ctx& c) { return c.var("x"); });
  // hand-build: case x of { 0 -> 1; 0 -> 2 }
  Expr v;
  v.tag = ExprTag::Var;
  v.a = 0;
  const ExprId ve = p.add_expr(v);
  Expr l;
  l.tag = ExprTag::Lit;
  const ExprId lit = p.add_expr(l);
  Expr cs;
  cs.tag = ExprTag::Case;
  cs.kids = {ve};
  cs.alts = {{0, 0, lit}, {0, 0, lit}};
  const ExprId ce = p.add_expr(cs);
  const GlobalId g = p.declare("g", 1);
  p.define(g, ce);
  const LintReport r = lint_program(p);
  ASSERT_EQ(count_rule(r, LintRule::L7CaseMalformed), 1u);
  EXPECT_NE(first_rule(r, LintRule::L7CaseMalformed).message.find("duplicate"),
            std::string::npos);
}

TEST(LintCorpus, EmptyCaseIsL7) {
  Program p;
  Expr v;
  v.tag = ExprTag::Var;
  v.a = 0;
  const ExprId ve = p.add_expr(v);
  Expr cs;
  cs.tag = ExprTag::Case;
  cs.kids = {ve};
  const ExprId ce = p.add_expr(cs);
  const GlobalId g = p.declare("g", 1);
  p.define(g, ce);
  const LintReport r = lint_program(p);
  ASSERT_EQ(count_rule(r, LintRule::L7CaseMalformed), 1u);
}

TEST(LintCorpus, ConsProducingScrutineeWithOnlyNilAltIsL8) {
  // The scrutinee is literally `Cons 1 Nil`, but only the Nil alternative
  // exists and there is no default: guaranteed pattern-match failure.
  Program p;
  Builder b(p);
  b.fun("f", {}, [](Ctx& c) {
    return c.match(c.cons(c.lit(1), c.nil()),
                   {Ctx::AltSpec{0, {}, [&] { return c.lit(0); }}});
  });
  const LintReport r = lint_program(p);
  ASSERT_EQ(count_rule(r, LintRule::L8CaseNonExhaustive), 1u);
  EXPECT_NE(first_rule(r, LintRule::L8CaseNonExhaustive).message.find("Con1/2"),
            std::string::npos);
}

TEST(LintCorpus, AltArityMismatchIsL8) {
  // Scrutinee produces Pair (Con0/2) but the alternative binds one field.
  Program p;
  Builder b(p);
  b.fun("f", {}, [](Ctx& c) {
    return c.match(c.pair(c.lit(1), c.lit(2)),
                   {Ctx::AltSpec{0, {"a"}, [&] { return c.var("a"); }}});
  });
  const LintReport r = lint_program(p);
  ASSERT_EQ(count_rule(r, LintRule::L8CaseNonExhaustive), 1u);
  EXPECT_NE(first_rule(r, LintRule::L8CaseNonExhaustive).message.find("binds 1"),
            std::string::npos);
}

TEST(LintCorpus, IntegerScrutineeWithoutDefaultIsL8) {
  Program p;
  Builder b(p);
  b.fun("f", {"x"}, [](Ctx& c) {
    return c.match(c.prim(PrimOp::Add, c.var("x"), c.lit(1)),
                   {Ctx::AltSpec{0, {}, [&] { return c.lit(10); }},
                    Ctx::AltSpec{1, {}, [&] { return c.lit(20); }}});
  });
  const LintReport r = lint_program(p);
  ASSERT_EQ(count_rule(r, LintRule::L8CaseNonExhaustive), 1u);
  EXPECT_NE(first_rule(r, LintRule::L8CaseNonExhaustive).message.find("integer"),
            std::string::npos);
}

TEST(LintCorpus, PartialBoolCoverageOnUnknownScrutineeIsL8) {
  // Unknown (Top) scrutinee, alternatives cover True only, no default:
  // accidental coverage of half of Bool.
  Program p;
  Builder b(p);
  b.fun("f", {"x"}, [](Ctx& c) {
    return c.match(c.var("x"), {Ctx::AltSpec{1, {}, [&] { return c.lit(1); }}});
  });
  const LintReport r = lint_program(p);
  ASSERT_EQ(count_rule(r, LintRule::L8CaseNonExhaustive), 1u);
  EXPECT_NE(first_rule(r, LintRule::L8CaseNonExhaustive).message.find("of 2"),
            std::string::npos);
}

TEST(LintCorpus, AltsMatchingNoDatatypeAreL8) {
  Program p;
  Builder b(p);
  b.fun("f", {"x"}, [](Ctx& c) {
    return c.match(c.var("x"),
                   {Ctx::AltSpec{3, {"a"}, [&] { return c.var("a"); }}});
  });
  const LintReport r = lint_program(p);
  ASSERT_EQ(count_rule(r, LintRule::L8CaseNonExhaustive), 1u);
  EXPECT_NE(
      first_rule(r, LintRule::L8CaseNonExhaustive).message.find("no declared"),
      std::string::npos);
}

TEST(LintCorpus, LetWithoutBodyIsL9) {
  Program p;
  Expr l;
  l.tag = ExprTag::Lit;
  const ExprId lit = p.add_expr(l);
  Expr le;
  le.tag = ExprTag::Let;
  le.kids = {lit};  // one kid: a binding with no body (or vice versa)
  const ExprId id = p.add_expr(le);
  const GlobalId f = p.declare("f", 0);
  p.define(f, id);
  const LintReport r = lint_program(p);
  ASSERT_EQ(count_rule(r, LintRule::L9LetNoBody), 1u);
}

TEST(LintCorpus, LetrecDanglingRhsIsL1) {
  Program p;
  Expr v;
  v.tag = ExprTag::Var;
  v.a = 0;
  const ExprId ve = p.add_expr(v);
  Expr le;
  le.tag = ExprTag::Let;
  le.kids = {777, ve};  // rhs[0] dangles, body is the binder
  const ExprId id = p.add_expr(le);
  const GlobalId f = p.declare("f", 0);
  p.define(f, id);
  const LintReport r = lint_program(p);
  ASSERT_EQ(count_rule(r, LintRule::L1DanglingExpr), 1u);
  EXPECT_EQ(first_rule(r, LintRule::L1DanglingExpr).expr, 777);
  EXPECT_EQ(first_rule(r, LintRule::L1DanglingExpr).path, "body.rhs[0]");
}

TEST(LintCorpus, AccumulatesEveryDefectUnlikeValidate) {
  // validate() throws on the first violation; lint must report all three.
  Program p;
  Expr v;
  v.tag = ExprTag::Var;
  v.a = 9;
  const ExprId ve = p.add_expr(v);
  Expr g;
  g.tag = ExprTag::Global;
  g.a = 44;
  const ExprId ge = p.add_expr(g);
  Expr s;
  s.tag = ExprTag::Seq;
  s.kids = {ve, ge};
  const ExprId se = p.add_expr(s);
  const GlobalId f = p.declare("f", 0);
  p.define(f, se);
  p.declare("ghost", 1);  // never defined
  const LintReport r = lint_program(p);
  EXPECT_EQ(r.error_count(), 3u);
  EXPECT_EQ(count_rule(r, LintRule::L2UnboundVar), 1u);
  EXPECT_EQ(count_rule(r, LintRule::L3DanglingGlobal), 1u);
  EXPECT_EQ(count_rule(r, LintRule::L1DanglingExpr), 1u);
  EXPECT_THROW(p.validate(), ProgramError);
}

TEST(LintCorpus, UnreachableGlobalIsL10Warning) {
  Program p;
  Builder b(p);
  b.fun("used", {"x"}, [](Ctx& c) { return c.var("x"); });
  b.fun("root", {"x"}, [](Ctx& c) { return c.app("used", {c.var("x")}); });
  b.fun("orphan", {"x"}, [](Ctx& c) { return c.var("x"); });
  LintOptions opts;
  opts.roots = {p.find("root")};
  const LintReport r = lint_program(p, opts);
  ASSERT_EQ(count_rule(r, LintRule::L10UnreachableGlobal), 1u);
  const LintDefect& d = first_rule(r, LintRule::L10UnreachableGlobal);
  EXPECT_TRUE(d.warning);
  EXPECT_NE(d.message.find("orphan"), std::string::npos);
  EXPECT_TRUE(r.clean());  // warnings do not dirty the report
}

// ---------------------------------------------------------------------------
// Clean pass over everything we ship, and the -DL load hook.
// ---------------------------------------------------------------------------

TEST(LintClean, AllShippedProgramsPass) {
  Program p;
  Builder b(p);
  build_all_programs(b);
  const LintReport r = lint_program(p);  // unvalidated on purpose
  EXPECT_TRUE(r.clean());
  EXPECT_EQ(r.defects.size(), 0u) << r.render(p, "all");
}

TEST(LintClean, RenderIsGccStyle) {
  Program p;
  Expr v;
  v.tag = ExprTag::Var;
  v.a = 3;
  const ExprId ve = p.add_expr(v);
  const GlobalId f = p.declare("f", 1);
  p.define(f, ve);
  const std::string out = lint_program(p).render(p, "unit");
  EXPECT_NE(out.find("unit:f:body: error[L2]: unbound variable level 3"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("1 error(s), 0 warning(s)"), std::string::npos);
}

TEST(LintMachine, DlFlagRejectsLintDirtyProgramAtLoad) {
  // Con tag 9/0 passes validate() (which knows nothing of datatypes) but
  // fails lint rule L6 — exactly the gap -DL exists to close.
  Program p;
  Builder b(p);
  b.fun("weird", {"u"}, [](Ctx& c) { return c.con(9); });
  p.validate();
  RtsConfig on = config_plain(1);
  on.lint = true;
  std::string listing;
  try {
    Machine m(p, on);
    FAIL() << "expected LintError";
  } catch (const LintError& e) {
    ASSERT_EQ(e.report.defects.size(), 1u);
    EXPECT_EQ(e.report.defects[0].rule, LintRule::L6ConShape);
    EXPECT_NE(std::string(e.what()).find("error[L6]"), std::string::npos);
    listing = e.what();
  }
  // The verdict is recorded on the Program: a second Machine reads it
  // instead of linting again, and must still reject with the same listing.
  try {
    Machine again(p, on);
    FAIL() << "expected LintError from the recorded verdict";
  } catch (const LintError& e) {
    EXPECT_EQ(std::string(e.what()), listing);
    EXPECT_EQ(e.report.defects.size(), 1u);
  }
  RtsConfig off = config_plain(1);
  EXPECT_NO_THROW(Machine m2(p, off));  // without -DL the machine loads
}

TEST(LintMachine, DlFlagAcceptsCleanProgram) {
  Program p = make_full_program();
  RtsConfig cfg = config_plain(1);
  cfg.lint = true;
  EXPECT_NO_THROW(Machine m(p, cfg));
}

// ---------------------------------------------------------------------------
// Dataflow framework + demand analysis.
// ---------------------------------------------------------------------------

TEST(Dataflow, CallGraphRequiresValidatedProgram) {
  Program p;
  Builder b(p);
  b.fun("f", {"x"}, [](Ctx& c) { return c.var("x"); });
  EXPECT_THROW(CallGraph cg(p), std::invalid_argument);
}

TEST(Dataflow, CallGraphEdgesAndReachability) {
  Program p;
  Builder b(p);
  b.fun("leaf", {"x"}, [](Ctx& c) { return c.var("x"); });
  b.fun("mid", {"x"}, [](Ctx& c) { return c.app("leaf", {c.var("x")}); });
  b.fun("top", {"x"}, [](Ctx& c) { return c.app("mid", {c.var("x")}); });
  b.fun("island", {"x"}, [](Ctx& c) { return c.var("x"); });
  p.validate();
  const CallGraph cg(p);
  EXPECT_EQ(cg.callees(p.find("top")), std::vector<GlobalId>{p.find("mid")});
  EXPECT_EQ(cg.callers(p.find("leaf")), std::vector<GlobalId>{p.find("mid")});
  const std::vector<bool> reach = cg.reachable_from({p.find("top")});
  EXPECT_TRUE(reach[static_cast<std::size_t>(p.find("leaf"))]);
  EXPECT_FALSE(reach[static_cast<std::size_t>(p.find("island"))]);
}

TEST(Demand, StrictAndHeadMasks) {
  Program p;
  Builder b(p);
  b.fun("konst", {"x", "y"}, [](Ctx& c) { return c.var("x"); });
  b.fun("add2", {"x", "y"}, [](Ctx& c) {
    return c.prim(PrimOp::Add, c.var("x"), c.var("y"));
  });
  b.fun("ite", {"c", "x", "y"}, [](Ctx& c) {
    return c.iff(c.var("c"), [&] { return c.var("x"); },
                 [&] { return c.var("y"); });
  });
  p.validate();
  const CallGraph cg(p);
  const DemandResult d = analyze_demand(p, cg);
  EXPECT_EQ(d.of(p.find("konst")).strict, 0b01u);
  EXPECT_EQ(d.of(p.find("konst")).head, 0b01u);
  EXPECT_EQ(d.of(p.find("add2")).strict, 0b11u);
  // Branches force x XOR y, so only the condition is surely demanded.
  EXPECT_EQ(d.of(p.find("ite")).strict, 0b001u);
  EXPECT_EQ(d.of(p.find("ite")).head, 0b001u);
}

TEST(Demand, InterproceduralStrictnessFlowsThroughCalls) {
  Program p;
  Builder b(p);
  b.fun("force1", {"x"}, [](Ctx& c) {
    return c.prim(PrimOp::Add, c.var("x"), c.lit(0));
  });
  b.fun("caller", {"a", "b"}, [](Ctx& c) {
    return c.app("force1", {c.var("b")});
  });
  p.validate();
  const DemandResult d = analyze_demand(p, CallGraph(p));
  // force1 is strict in its argument, so caller is strict in b (bit 1)
  // but not in a.
  EXPECT_EQ(d.of(p.find("caller")).strict, 0b10u);
  EXPECT_EQ(d.of(p.find("caller")).head, 0b10u);
}

TEST(Demand, RecursionSettlesToGreatestFixpoint) {
  Program p;
  Builder b(p);
  build_prelude(b);
  p.validate();
  const DemandResult d = analyze_demand(p, CallGraph(p));
  // foldl' forces its accumulator each round: strict in all three params
  // is too strong (f is only entered when the list is a Cons), but the
  // list parameter must be strict — the fold cases on it immediately.
  const DemandInfo& fo = d.of(p.find("foldl'"));
  EXPECT_TRUE(fo.strict & 0b100u);  // xs
  EXPECT_TRUE(fo.head & 0b100u);
  // parList cases on xs at once but only ever applies s lazily.
  const DemandInfo& pl = d.of(p.find("parList"));
  EXPECT_EQ(pl.head, 0b10u);  // xs, not s
}

// ---------------------------------------------------------------------------
// Spark-usefulness verdicts and the elision pass.
// ---------------------------------------------------------------------------

std::vector<SparkSite> sites_of(const Program& p, const SparkUseResult& su,
                                const std::string& global) {
  std::vector<SparkSite> out;
  for (const SparkSite& s : su.sites)
    if (p.global(s.global).name == global) out.push_back(s);
  return out;
}

TEST(SparkUse, ShippedSitesGetTheDesignedVerdicts) {
  Program p = make_full_program();
  const DemandResult d = analyze_demand(p, CallGraph(p));
  const SparkUseResult su = analyze_spark_usefulness(p, d);

  const auto tuned = sites_of(p, su, "parList");
  ASSERT_EQ(tuned.size(), 1u);
  EXPECT_EQ(tuned[0].verdict, SparkVerdict::Useful);

  const auto naive = sites_of(p, su, "parListNaive");
  ASSERT_EQ(naive.size(), 1u);
  EXPECT_EQ(naive[0].verdict, SparkVerdict::ImmediatelyDemanded);

  const auto nfib = sites_of(p, su, "nfibPar");
  ASSERT_EQ(nfib.size(), 1u);
  EXPECT_EQ(nfib[0].verdict, SparkVerdict::Useful)
      << "nfibPar forces b2 first, not the sparked a: " << nfib[0].reason;

  EXPECT_EQ(su.useless(), 1u);  // parListNaive is the only useless site
}

TEST(SparkUse, SeqForcedOperandIsAlreadyWhnf) {
  Program p;
  Builder b(p);
  b.fun("dupSpark", {"x"}, [](Ctx& c) {
    return c.seq(c.var("x"),
                 c.par(c.var("x"), c.prim(PrimOp::Add, c.var("x"), c.lit(1))));
  });
  p.validate();
  const SparkUseResult su =
      analyze_spark_usefulness(p, analyze_demand(p, CallGraph(p)));
  ASSERT_EQ(su.sites.size(), 1u);
  EXPECT_EQ(su.sites[0].verdict, SparkVerdict::AlreadyWhnf);
}

TEST(SparkUse, LiteralOperandIsAlreadyWhnf) {
  Program p;
  Builder b(p);
  b.fun("litSpark", {"u"}, [](Ctx& c) { return c.par(c.lit(42), c.lit(7)); });
  p.validate();
  const SparkUseResult su =
      analyze_spark_usefulness(p, analyze_demand(p, CallGraph(p)));
  ASSERT_EQ(su.sites.size(), 1u);
  EXPECT_EQ(su.sites[0].verdict, SparkVerdict::AlreadyWhnf);
}

TEST(SparkUse, CafReferenceIsNotWhnf) {
  // A 0-arity global binds its CAF *thunk* — sparking it is legitimate.
  Program p;
  Builder b(p);
  build_prelude(b);
  b.caf("heavy", [](Ctx& c) {
    return c.app("sum", {c.app("enumFromTo", {c.lit(1), c.lit(100)})});
  });
  b.fun("sparkCaf", {"u"}, [](Ctx& c) {
    return c.par(c.global("heavy"), c.lit(0));
  });
  p.validate();
  const SparkUseResult su =
      analyze_spark_usefulness(p, analyze_demand(p, CallGraph(p)));
  const auto sites = sites_of(p, su, "sparkCaf");
  ASSERT_EQ(sites.size(), 1u);
  EXPECT_EQ(sites[0].verdict, SparkVerdict::Useful);
}

TEST(Elide, RejectsStaleAnalysisResults) {
  Program p = make_full_program();
  SparkUseResult stale;
  stale.expr_count = p.expr_count() + 1;
  EXPECT_THROW(elide_sparks(p, stale, nullptr), std::invalid_argument);
}

TEST(Elide, RewritesAndDropsTheRightSites) {
  Program p = make_full_program();
  ElisionStats st;
  Program q = elide_useless_sparks(p, &st);
  EXPECT_TRUE(q.validated());
  EXPECT_EQ(st.sites, 3u);    // parList, parListNaive, nfibPar
  EXPECT_EQ(st.to_seq, 1u);   // parListNaive -> seq
  EXPECT_EQ(st.dropped, 0u);
  EXPECT_EQ(q.expr_count(), p.expr_count());
  EXPECT_EQ(q.global_count(), p.global_count());
  // parListNaive's body now seqs where it sparked; parList untouched.
  EXPECT_NE(q.show_global(q.find("parListNaive")).find("(seq v4"),
            std::string::npos)
      << q.show_global(q.find("parListNaive"));
  EXPECT_EQ(q.show_global(q.find("parList")),
            p.show_global(p.find("parList")));
}

TEST(Elide, DropsAlreadyWhnfSparksEntirely) {
  Program p;
  Builder b(p);
  b.fun("litSpark", {"u"}, [](Ctx& c) { return c.par(c.lit(42), c.lit(7)); });
  p.validate();
  ElisionStats st;
  Program q = elide_useless_sparks(p, &st);
  EXPECT_EQ(st.dropped, 1u);
  EXPECT_EQ(q.show_global(q.find("litSpark")), "litSpark/1 = 7");
}

// ---------------------------------------------------------------------------
// Elision property tests: value-equal results, spark counters only
// decrease. Sim driver (deterministic) for the counter assertions,
// threaded driver for cross-driver value equality.
// ---------------------------------------------------------------------------

struct RunOut {
  std::int64_t value = 0;
  SparkStats sparks;
  ElisionStats elision;
};

RunOut run_sim_int(const std::function<void(Builder&)>& extra,
                   const std::string& fn, const std::vector<std::int64_t>& args,
                   bool elide, RtsConfig cfg = config_worksteal(8)) {
  Program p;
  Builder b(p);
  build_prelude(b);
  extra(b);
  p.validate();
  RunOut out;
  Program q = elide ? elide_useless_sparks(p, &out.elision) : std::move(p);
  Machine m(q, cfg);
  std::vector<Obj*> objs;
  objs.reserve(args.size());
  for (std::int64_t v : args) objs.push_back(make_int(m, 0, v));
  Tso* t = m.spawn_apply(q.find(fn), objs, 0);
  SimDriver d(m);
  const SimResult r = d.run(t);
  if (r.deadlocked) throw std::runtime_error("deadlock running " + fn);
  out.value = read_int(r.value);
  out.sparks = m.total_spark_stats();
  return out;
}

TEST(ElideProperty, SumEulerNaiveValueEqualAndCountersDecrease) {
  const auto extra = [](Builder& b) { build_sumeuler(b); };
  const RunOut plain = run_sim_int(extra, "sumEulerParNaive", {8, 60}, false);
  const RunOut elided = run_sim_int(extra, "sumEulerParNaive", {8, 60}, true);
  EXPECT_EQ(plain.value, sum_euler_reference(60));
  EXPECT_EQ(elided.value, plain.value);
  EXPECT_GT(plain.sparks.created, 0u);
  EXPECT_EQ(elided.sparks.created, 0u);  // every naive site elided to seq
  EXPECT_GE(elided.elision.to_seq, 1u);
  EXPECT_LE(elided.sparks.fizzled, plain.sparks.fizzled);
  EXPECT_LE(elided.sparks.dud, plain.sparks.dud);
}

TEST(ElideProperty, SumEulerTunedIsUntouched) {
  const auto extra = [](Builder& b) { build_sumeuler(b); };
  const RunOut plain = run_sim_int(extra, "sumEulerPar", {8, 60}, false);
  const RunOut elided = run_sim_int(extra, "sumEulerPar", {8, 60}, true);
  EXPECT_EQ(plain.value, sum_euler_reference(60));
  EXPECT_EQ(elided.value, plain.value);
  // The sim is deterministic and tuned sites stay: identical counters.
  EXPECT_EQ(elided.sparks.created, plain.sparks.created);
  EXPECT_EQ(elided.sparks.converted, plain.sparks.converted);
  EXPECT_EQ(elided.sparks.fizzled, plain.sparks.fizzled);
}

TEST(ElideProperty, ApspNaiveValueEqualAndCountersDecrease) {
  const DistMat g = random_graph(12, 11);
  const std::int64_t want = apsp_checksum(floyd_warshall(g));
  auto run = [&](bool elide) {
    Program p;
    Builder b(p);
    build_prelude(b);
    build_apsp(b);
    p.validate();
    RunOut out;
    Program q = elide ? elide_useless_sparks(p, &out.elision) : std::move(p);
    Machine m(q, config_worksteal(8));
    Obj* n = make_int(m, 0, 12);
    Obj* mo = make_int_matrix(m, 0, g);
    Tso* t = m.spawn_apply(q.find("apspChecksumNaive"), {n, mo}, 0);
    SimDriver d(m);
    const SimResult r = d.run(t);
    EXPECT_FALSE(r.deadlocked);
    out.value = read_int(r.value);
    out.sparks = m.total_spark_stats();
    return out;
  };
  const RunOut plain = run(false);
  const RunOut elided = run(true);
  EXPECT_EQ(plain.value, want);
  EXPECT_EQ(elided.value, want);
  EXPECT_GT(plain.sparks.created, 0u);
  EXPECT_EQ(elided.sparks.created, 0u);
}

TEST(ElideProperty, MatMulNaiveValueEqualOnSim) {
  const Mat a = random_matrix(8, 7), bm = random_matrix(8, 8);
  const Mat want = matmul_reference(a, bm);
  auto run = [&](bool elide, SparkStats* sparks) {
    Program p;
    Builder b(p);
    build_prelude(b);
    build_matmul(b);
    p.validate();
    Program q = elide ? elide_useless_sparks(p, nullptr) : std::move(p);
    Machine m(q, config_worksteal(8));
    Obj* nb = make_int(m, 0, 4);
    Obj* qq = make_int(m, 0, 2);
    Obj* ao = make_int_matrix(m, 0, a);
    std::vector<Obj*> protect{ao};
    RootGuard guard(m, protect);
    Obj* bo = make_int_matrix(m, 0, bm);
    Obj* th =
        make_apply_thunk(m, 0, q.find("matMulGphNaive"), {nb, qq, protect[0], bo});
    Tso* t = m.spawn_deep_force(th, 0);
    SimDriver d(m);
    const SimResult r = d.run(t);
    EXPECT_FALSE(r.deadlocked);
    if (sparks) *sparks = m.total_spark_stats();
    return read_int_matrix(r.value);
  };
  SparkStats plain_sparks, elided_sparks;
  EXPECT_EQ(run(false, &plain_sparks), want);
  EXPECT_EQ(run(true, &elided_sparks), want);
  EXPECT_GT(plain_sparks.created, 0u);
  EXPECT_EQ(elided_sparks.created, 0u);
}

TEST(ElideProperty, ThreadedDriverValueEqualAfterElision) {
  for (const bool elide : {false, true}) {
    Program p;
    Builder b(p);
    build_prelude(b);
    build_sumeuler(b);
    p.validate();
    Program q = elide ? elide_useless_sparks(p, nullptr) : std::move(p);
    Machine m(q, config_worksteal(4));
    Tso* t = m.spawn_apply(q.find("sumEulerParNaive"),
                           {make_int(m, 0, 8), make_int(m, 0, 60)}, 0);
    ThreadedDriver d(m);
    const ThreadedResult r = d.run(t);
    ASSERT_FALSE(r.deadlocked);
    EXPECT_EQ(read_int(r.value), sum_euler_reference(60));
    if (elide) EXPECT_EQ(m.total_spark_stats().created, 0u);
  }
}

// ---------------------------------------------------------------------------
// Packability (Eden sinks).
// ---------------------------------------------------------------------------

TEST(Packability, PartialityAndSparksReachingSinksWarn) {
  Program p = make_full_program();
  const CallGraph cg(p);
  const PackabilityResult pack = analyze_packability(p, cg);
  EXPECT_TRUE(pack.of(p.find("head")).may_error);
  EXPECT_FALSE(pack.of(p.find("head")).may_spark);
  EXPECT_TRUE(pack.of(p.find("minimum")).may_error);  // via head/tail
  EXPECT_TRUE(pack.of(p.find("sumEulerPar")).may_spark);  // via parList
  EXPECT_FALSE(pack.of(p.find("phi")).may_error);

  const auto defects =
      check_pack_sinks(p, cg, pack, {p.find("minimum"), p.find("sumEulerPar")});
  ASSERT_EQ(defects.size(), 2u);
  EXPECT_EQ(defects[0].rule, "P1");
  EXPECT_EQ(defects[0].sink, p.find("minimum"));
  EXPECT_EQ(defects[1].rule, "P2");

  // The real Eden worker bodies we ship stay silent.
  EXPECT_TRUE(check_pack_sinks(p, cg, pack, {p.find("sumPhi"), p.find("phi")})
                  .empty());
}

}  // namespace
