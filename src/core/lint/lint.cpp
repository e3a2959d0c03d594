#include "core/lint/lint.hpp"

#include <algorithm>
#include <sstream>

namespace ph {

const char* lint_rule_id(LintRule r) {
  switch (r) {
    case LintRule::L1DanglingExpr: return "L1";
    case LintRule::L2UnboundVar: return "L2";
    case LintRule::L3DanglingGlobal: return "L3";
    case LintRule::L4AppNoArgs: return "L4";
    case LintRule::L5PrimArity: return "L5";
    case LintRule::L6ConShape: return "L6";
    case LintRule::L7CaseMalformed: return "L7";
    case LintRule::L8CaseNonExhaustive: return "L8";
    case LintRule::L9LetNoBody: return "L9";
    case LintRule::L10UnreachableGlobal: return "L10";
  }
  return "L?";
}

const char* lint_rule_title(LintRule r) {
  switch (r) {
    case LintRule::L1DanglingExpr: return "dangling expression reference";
    case LintRule::L2UnboundVar: return "unbound variable";
    case LintRule::L3DanglingGlobal: return "dangling global reference";
    case LintRule::L4AppNoArgs: return "application without arguments";
    case LintRule::L5PrimArity: return "primitive arity mismatch";
    case LintRule::L6ConShape: return "bad constructor application";
    case LintRule::L7CaseMalformed: return "malformed case";
    case LintRule::L8CaseNonExhaustive: return "non-exhaustive case";
    case LintRule::L9LetNoBody: return "let without body";
    case LintRule::L10UnreachableGlobal: return "unreachable supercombinator";
  }
  return "unknown";
}

std::vector<DatatypeSig> default_datatypes() {
  return {
      {"Unit", {{0, 0}}},
      {"Bool", {{0, 0}, {1, 0}}},
      {"List", {{0, 0}, {1, 2}}},
      {"Pair", {{0, 2}}},
      {"Triple", {{0, 3}}},
  };
}

bool LintReport::clean() const {
  return std::none_of(defects.begin(), defects.end(),
                      [](const LintDefect& d) { return !d.warning; });
}

std::size_t LintReport::error_count() const {
  return static_cast<std::size_t>(std::count_if(
      defects.begin(), defects.end(), [](const LintDefect& d) { return !d.warning; }));
}

std::size_t LintReport::warning_count() const {
  return defects.size() - error_count();
}

std::string LintReport::render(const Program& p, const std::string& unit) const {
  std::ostringstream out;
  for (const LintDefect& d : defects) {
    out << unit;
    if (d.global >= 0 && static_cast<std::size_t>(d.global) < p.global_count())
      out << ":" << p.global(d.global).name;
    if (!d.path.empty()) out << ":" << d.path;
    out << ": " << (d.warning ? "warning" : "error") << "[" << lint_rule_id(d.rule)
        << "]: " << d.message << "\n";
  }
  out << unit << ": " << error_count() << " error(s), " << warning_count()
      << " warning(s)\n";
  return out.str();
}

namespace {

/// The runtime stores constructor tags in a 16-bit Obj::tag; a Con whose
/// 32-bit IR tag exceeds this silently truncates at allocation.
constexpr std::int32_t kMaxConTag = 0xFFFF;

/// Local shape approximation of what an expression can evaluate to.
struct Shape {
  enum Kind : std::uint8_t { Bottom, IntVal, Cons, Top } kind = Top;
  std::vector<ConSig> cons;  // Kind::Cons only

  static Shape bottom() { return {Bottom, {}}; }
  static Shape top() { return {Top, {}}; }
  static Shape intval() { return {IntVal, {}}; }
  static Shape one(ConSig s) { return {Cons, {s}}; }
};

Shape join(Shape a, const Shape& b) {
  if (a.kind == Shape::Bottom) return b;
  if (b.kind == Shape::Bottom) return a;
  if (a.kind == Shape::Top || b.kind == Shape::Top) return Shape::top();
  if (a.kind != b.kind) return Shape::top();
  if (a.kind == Shape::IntVal) return a;
  for (const ConSig& s : b.cons)
    if (std::find(a.cons.begin(), a.cons.end(), s) == a.cons.end()) a.cons.push_back(s);
  return a;
}

bool prim_returns_bool(PrimOp op) {
  switch (op) {
    case PrimOp::Eq:
    case PrimOp::Ne:
    case PrimOp::Lt:
    case PrimOp::Le:
    case PrimOp::Gt:
    case PrimOp::Ge:
      return true;
    default:
      return false;
  }
}

class Linter {
 public:
  Linter(const Program& p, const LintOptions& opts) : p_(p), opts_(opts) {
    on_path_.assign(p_.expr_count(), 0);
  }

  LintReport run() {
    for (std::size_t g = 0; g < p_.global_count(); ++g) {
      gid_ = static_cast<GlobalId>(g);
      const Global& gl = p_.global(gid_);
      path_.clear();
      path_.push_back("body");
      if (gl.body == kNoExpr) {
        defect(LintRule::L1DanglingExpr, kNoExpr,
               "supercombinator '" + gl.name + "' has no body");
        continue;
      }
      walk(gl.body, gl.arity);
    }
    if (!opts_.roots.empty()) check_reachability();
    return std::move(report_);
  }

 private:
  bool valid(ExprId id) const {
    return id >= 0 && static_cast<std::size_t>(id) < p_.expr_count();
  }

  std::string joined_path() const {
    std::string s;
    for (std::size_t i = 0; i < path_.size(); ++i) {
      if (i != 0) s += ".";
      s += path_[i];
    }
    return s;
  }

  void defect(LintRule rule, ExprId id, std::string msg, bool warning = false) {
    report_.defects.push_back(
        {rule, gid_, id, joined_path(), std::move(msg), warning});
  }

  /// Walks one kid under a path segment.
  void kid(ExprId id, std::int32_t depth, std::string seg) {
    path_.push_back(std::move(seg));
    walk(id, depth);
    path_.pop_back();
  }

  void walk(ExprId id, std::int32_t depth) {
    if (!valid(id)) {
      defect(LintRule::L1DanglingExpr, id,
             "dangling ExprId " + std::to_string(id) + " (table has " +
                 std::to_string(p_.expr_count()) + " nodes)");
      return;
    }
    if (on_path_[static_cast<std::size_t>(id)]) {
      defect(LintRule::L1DanglingExpr, id,
             "cyclic expression reference through ExprId " + std::to_string(id));
      return;
    }
    on_path_[static_cast<std::size_t>(id)] = 1;
    const Expr& e = p_.expr(id);
    switch (e.tag) {
      case ExprTag::Var:
        if (e.a < 0 || e.a >= depth)
          defect(LintRule::L2UnboundVar, id,
                 "unbound variable level " + std::to_string(e.a) + " (scope depth " +
                     std::to_string(depth) + ")");
        break;
      case ExprTag::Global:
        if (e.a < 0 || static_cast<std::size_t>(e.a) >= p_.global_count())
          defect(LintRule::L3DanglingGlobal, id,
                 "dangling GlobalId " + std::to_string(e.a) + " (program has " +
                     std::to_string(p_.global_count()) + " supercombinators)");
        break;
      case ExprTag::Lit:
        break;
      case ExprTag::App:
        if (e.kids.size() < 2)
          defect(LintRule::L4AppNoArgs, id,
                 "App with " + std::to_string(e.kids.size()) +
                     " kid(s); needs a function and at least one argument");
        for (std::size_t i = 0; i < e.kids.size(); ++i)
          kid(e.kids[i], depth, "kids[" + std::to_string(i) + "]");
        break;
      case ExprTag::Let: {
        if (e.kids.size() < 2) {
          defect(LintRule::L9LetNoBody, id,
                 "Let with " + std::to_string(e.kids.size()) +
                     " kid(s); needs at least one binding and a body");
          for (std::size_t i = 0; i < e.kids.size(); ++i)
            kid(e.kids[i], depth, "kids[" + std::to_string(i) + "]");
          break;
        }
        const auto n = static_cast<std::int32_t>(e.kids.size()) - 1;
        for (std::int32_t i = 0; i < n; ++i)
          kid(e.kids[static_cast<std::size_t>(i)], depth + n,
              "rhs[" + std::to_string(i) + "]");
        kid(e.kids[static_cast<std::size_t>(n)], depth + n, "letbody");
        break;
      }
      case ExprTag::Case:
        check_case(e, id, depth);
        break;
      case ExprTag::Con: {
        if (e.a < 0) {
          defect(LintRule::L6ConShape, id,
                 "negative constructor tag " + std::to_string(e.a));
        } else if (e.a > kMaxConTag) {
          defect(LintRule::L6ConShape, id,
                 "constructor tag " + std::to_string(e.a) +
                     " exceeds the runtime's 16-bit tag field (max 65535)");
        } else if (!known_con({e.a, static_cast<std::int32_t>(e.kids.size())})) {
          defect(LintRule::L6ConShape, id,
                 "Con " + std::to_string(e.a) + " applied to " +
                     std::to_string(e.kids.size()) +
                     " field(s) matches no declared constructor "
                     "(unsaturated or unknown)");
        }
        for (std::size_t i = 0; i < e.kids.size(); ++i)
          kid(e.kids[i], depth, "kids[" + std::to_string(i) + "]");
        break;
      }
      case ExprTag::Prim: {
        const auto op = static_cast<PrimOp>(e.a);
        const auto want = static_cast<std::size_t>(prim_op_arity(op));
        if (e.kids.size() != want)
          defect(LintRule::L5PrimArity, id,
                 std::string(prim_op_name(op)) + " applied to " +
                     std::to_string(e.kids.size()) + " operand(s), expects " +
                     std::to_string(want));
        for (std::size_t i = 0; i < e.kids.size(); ++i)
          kid(e.kids[i], depth, "kids[" + std::to_string(i) + "]");
        break;
      }
      case ExprTag::Par:
      case ExprTag::Seq: {
        const char* what = e.tag == ExprTag::Par ? "Par" : "Seq";
        if (e.kids.size() != 2)
          defect(LintRule::L1DanglingExpr, id,
                 std::string(what) + " with " + std::to_string(e.kids.size()) +
                     " kid(s); needs exactly two");
        for (std::size_t i = 0; i < e.kids.size(); ++i)
          kid(e.kids[i], depth, "kids[" + std::to_string(i) + "]");
        break;
      }
    }
    on_path_[static_cast<std::size_t>(id)] = 0;
  }

  bool known_con(ConSig s) const {
    for (const DatatypeSig& d : opts_.datatypes)
      for (const ConSig& c : d.cons)
        if (c == s) return true;
    return false;
  }

  void check_case(const Expr& e, ExprId id, std::int32_t depth) {
    if (e.kids.size() != 1) {
      defect(LintRule::L7CaseMalformed, id,
             "Case with " + std::to_string(e.kids.size()) +
                 " kid(s); needs exactly one scrutinee");
      for (std::size_t i = 0; i < e.kids.size(); ++i)
        kid(e.kids[i], depth, "kids[" + std::to_string(i) + "]");
      return;
    }
    kid(e.kids[0], depth, "scrut");
    if (e.alts.empty() && e.dflt == kNoExpr)
      defect(LintRule::L7CaseMalformed, id, "Case with no alternatives and no default");
    for (std::size_t i = 0; i < e.alts.size(); ++i) {
      const Alt& alt = e.alts[i];
      if (alt.arity < 0)
        defect(LintRule::L7CaseMalformed, id,
               "alternative " + std::to_string(i) + " has negative arity " +
                   std::to_string(alt.arity));
      for (std::size_t j = 0; j < i; ++j)
        if (e.alts[j].tag == alt.tag) {
          defect(LintRule::L7CaseMalformed, id,
                 "duplicate alternative tag " + std::to_string(alt.tag));
          break;
        }
      kid(alt.body, depth + std::max<std::int32_t>(alt.arity, 0),
          "alts[" + std::to_string(i) + "].body");
    }
    if (e.dflt != kNoExpr)
      kid(e.dflt, depth + (e.a != 0 ? 1 : 0), "default");
    check_exhaustiveness(e, id);
  }

  void check_exhaustiveness(const Expr& e, ExprId id) {
    const Shape s = shape_of(e.kids[0], 0);
    auto alt_for = [&](std::int64_t tag) -> const Alt* {
      for (const Alt& a : e.alts)
        if (a.tag == tag) return &a;
      return nullptr;
    };
    if (s.kind == Shape::Cons) {
      for (const ConSig& sig : s.cons) {
        const Alt* a = alt_for(sig.tag);
        if (a == nullptr) {
          if (e.dflt == kNoExpr)
            defect(LintRule::L8CaseNonExhaustive, id,
                   "scrutinee can produce Con" + std::to_string(sig.tag) + "/" +
                       std::to_string(sig.arity) +
                       ", which no alternative covers and there is no default");
        } else if (a->arity != sig.arity) {
          defect(LintRule::L8CaseNonExhaustive, id,
                 "alternative for tag " + std::to_string(sig.tag) + " binds " +
                     std::to_string(a->arity) + " field(s) but the scrutinee's Con" +
                     std::to_string(sig.tag) + " carries " +
                     std::to_string(sig.arity));
        }
      }
      return;
    }
    if (s.kind == Shape::IntVal) {
      if (e.dflt == kNoExpr)
        defect(LintRule::L8CaseNonExhaustive, id,
               "case on an integer scrutinee cannot enumerate all literals; "
               "add a default alternative");
      return;
    }
    if (s.kind != Shape::Top || e.dflt != kNoExpr || e.alts.empty()) return;
    // Unknown scrutinee, no default: the alternatives must cover some
    // declared datatype exactly, otherwise coverage is accidental.
    std::vector<ConSig> have;
    for (const Alt& a : e.alts) have.push_back({a.tag, a.arity});
    auto covers = [&](const DatatypeSig& d, bool exact) {
      for (const ConSig& c : have)
        if (std::find(d.cons.begin(), d.cons.end(), c) == d.cons.end()) return false;
      return !exact || have.size() == d.cons.size();
    };
    for (const DatatypeSig& d : opts_.datatypes)
      if (covers(d, /*exact=*/true)) return;
    for (const DatatypeSig& d : opts_.datatypes)
      if (covers(d, /*exact=*/false)) {
        defect(LintRule::L8CaseNonExhaustive, id,
               "covers only " + std::to_string(have.size()) + " of " +
                   std::to_string(d.cons.size()) + " constructors of " + d.name +
                   " and has no default");
        return;
      }
    defect(LintRule::L8CaseNonExhaustive, id,
           "defaultless alternatives match no declared datatype; add a default "
           "or register the constructor set");
  }

  /// Local shape of what `id` can evaluate to. `fuel` bounds recursion so
  /// malformed (cyclic) tables cannot hang the linter.
  Shape shape_of(ExprId id, int fuel) const {
    if (!valid(id) || fuel > 64) return Shape::top();
    const Expr& e = p_.expr(id);
    switch (e.tag) {
      case ExprTag::Lit:
        return Shape::intval();
      case ExprTag::Con:
        if (e.a < 0) return Shape::top();
        return Shape::one({e.a, static_cast<std::int32_t>(e.kids.size())});
      case ExprTag::Prim: {
        const auto op = static_cast<PrimOp>(e.a);
        if (op == PrimOp::Error) return Shape::bottom();
        if (prim_returns_bool(op)) return {Shape::Cons, {{0, 0}, {1, 0}}};
        return Shape::intval();
      }
      case ExprTag::Seq:
      case ExprTag::Par:
        return e.kids.size() == 2 ? shape_of(e.kids[1], fuel + 1) : Shape::top();
      case ExprTag::Let:
        return e.kids.size() >= 2 ? shape_of(e.kids.back(), fuel + 1) : Shape::top();
      case ExprTag::Case: {
        Shape s = Shape::bottom();
        for (const Alt& a : e.alts) s = join(s, shape_of(a.body, fuel + 1));
        if (e.dflt != kNoExpr) s = join(s, shape_of(e.dflt, fuel + 1));
        return s.kind == Shape::Bottom ? Shape::top() : s;
      }
      case ExprTag::Var:
      case ExprTag::Global:
      case ExprTag::App:
        return Shape::top();
    }
    return Shape::top();
  }

  // --- L10: reachability from the declared roots --------------------------
  void collect_globals(ExprId id, std::vector<char>& seen_expr,
                       std::vector<GlobalId>& out) const {
    if (!valid(id) || seen_expr[static_cast<std::size_t>(id)]) return;
    seen_expr[static_cast<std::size_t>(id)] = 1;
    const Expr& e = p_.expr(id);
    if (e.tag == ExprTag::Global && e.a >= 0 &&
        static_cast<std::size_t>(e.a) < p_.global_count())
      out.push_back(e.a);
    for (ExprId k : e.kids) collect_globals(k, seen_expr, out);
    for (const Alt& a : e.alts) collect_globals(a.body, seen_expr, out);
    if (e.dflt != kNoExpr) collect_globals(e.dflt, seen_expr, out);
  }

  void check_reachability() {
    std::vector<char> reached(p_.global_count(), 0);
    std::vector<GlobalId> work;
    for (GlobalId r : opts_.roots)
      if (r >= 0 && static_cast<std::size_t>(r) < p_.global_count() && !reached[r]) {
        reached[static_cast<std::size_t>(r)] = 1;
        work.push_back(r);
      }
    while (!work.empty()) {
      GlobalId g = work.back();
      work.pop_back();
      const Global& gl = p_.global(g);
      if (gl.body == kNoExpr) continue;
      std::vector<char> seen_expr(p_.expr_count(), 0);
      std::vector<GlobalId> refs;
      collect_globals(gl.body, seen_expr, refs);
      for (GlobalId r : refs)
        if (!reached[static_cast<std::size_t>(r)]) {
          reached[static_cast<std::size_t>(r)] = 1;
          work.push_back(r);
        }
    }
    for (std::size_t g = 0; g < p_.global_count(); ++g)
      if (!reached[g]) {
        gid_ = static_cast<GlobalId>(g);
        path_.clear();
        report_.defects.push_back(
            {LintRule::L10UnreachableGlobal, gid_, kNoExpr, "",
             "'" + p_.global(gid_).name + "' is unreachable from the declared roots",
             /*warning=*/true});
      }
  }

  const Program& p_;
  const LintOptions& opts_;
  LintReport report_;
  GlobalId gid_ = -1;
  std::vector<std::string> path_;
  std::vector<char> on_path_;
};

}  // namespace

LintReport lint_program(const Program& p, const LintOptions& opts) {
  return Linter(p, opts).run();
}

void lint_or_throw(const Program& p, const std::string& unit) {
  const LintReport& r = p.lint_report();
  if (!r.clean()) throw LintError(r, r.render(p, unit));
}

}  // namespace ph
