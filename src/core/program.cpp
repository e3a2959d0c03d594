#include "core/program.hpp"

#include <algorithm>
#include <sstream>

#include "core/lint/lint.hpp"

namespace ph {

const char* prim_op_name(PrimOp op) {
  switch (op) {
    case PrimOp::Add: return "add#";
    case PrimOp::Sub: return "sub#";
    case PrimOp::Mul: return "mul#";
    case PrimOp::Div: return "div#";
    case PrimOp::Mod: return "mod#";
    case PrimOp::Neg: return "neg#";
    case PrimOp::Min: return "min#";
    case PrimOp::Max: return "max#";
    case PrimOp::Eq: return "eq#";
    case PrimOp::Ne: return "ne#";
    case PrimOp::Lt: return "lt#";
    case PrimOp::Le: return "le#";
    case PrimOp::Gt: return "gt#";
    case PrimOp::Ge: return "ge#";
    case PrimOp::Error: return "error#";
  }
  return "?prim?";
}

int prim_op_arity(PrimOp op) {
  switch (op) {
    case PrimOp::Neg:
    case PrimOp::Error:
      return 1;
    default:
      return 2;
  }
}

ExprId Program::add_expr(Expr e) {
  if (validated_) throw ProgramError("Program already validated; cannot add expressions");
  exprs_.push_back(std::move(e));
  return static_cast<ExprId>(exprs_.size() - 1);
}

GlobalId Program::declare(std::string name, std::int32_t arity) {
  if (validated_) throw ProgramError("Program already validated; cannot declare globals");
  if (by_name_.count(name) != 0) throw ProgramError("duplicate supercombinator: " + name);
  Global g;
  g.name = name;
  g.arity = arity;
  globals_.push_back(std::move(g));
  GlobalId id = static_cast<GlobalId>(globals_.size() - 1);
  by_name_.emplace(std::move(name), id);
  return id;
}

void Program::define(GlobalId id, ExprId body) {
  Global& g = globals_.at(static_cast<std::size_t>(id));
  if (g.body != kNoExpr) throw ProgramError("supercombinator redefined: " + g.name);
  g.body = body;
}

GlobalId Program::find(const std::string& name) const {
  auto it = by_name_.find(name);
  if (it == by_name_.end()) throw ProgramError("unknown supercombinator: " + name);
  return it->second;
}

std::int32_t Program::check_expr(ExprId id, std::int32_t depth, const Global& g) {
  if (id < 0 || static_cast<std::size_t>(id) >= exprs_.size())
    throw ProgramError("dangling ExprId in " + g.name);
  const Expr& e = exprs_[static_cast<std::size_t>(id)];
  std::int32_t max_env = depth;
  auto visit = [&](ExprId kid, std::int32_t d) {
    max_env = std::max(max_env, check_expr(kid, d, g));
  };
  switch (e.tag) {
    case ExprTag::Var:
      if (e.a < 0 || e.a >= depth)
        throw ProgramError("unbound variable (level " + std::to_string(e.a) + ") in " + g.name);
      break;
    case ExprTag::Global:
      if (e.a < 0 || static_cast<std::size_t>(e.a) >= globals_.size())
        throw ProgramError("dangling GlobalId in " + g.name);
      break;
    case ExprTag::Lit:
      break;
    case ExprTag::App:
      if (e.kids.size() < 2) throw ProgramError("App with no arguments in " + g.name);
      for (ExprId k : e.kids) visit(k, depth);
      break;
    case ExprTag::Let: {
      if (e.kids.size() < 2) throw ProgramError("Let with no body in " + g.name);
      const auto n = static_cast<std::int32_t>(e.kids.size()) - 1;
      // letrec scoping: every right-hand side and the body see all binders.
      for (std::int32_t i = 0; i <= n; ++i) visit(e.kids[static_cast<std::size_t>(i)], depth + n);
      break;
    }
    case ExprTag::Case: {
      if (e.kids.size() != 1) throw ProgramError("Case needs exactly one scrutinee in " + g.name);
      visit(e.kids[0], depth);
      if (e.alts.empty() && e.dflt == kNoExpr)
        throw ProgramError("Case with no alternatives in " + g.name);
      for (const Alt& alt : e.alts) {
        if (alt.arity < 0) throw ProgramError("negative alt arity in " + g.name);
        visit(alt.body, depth + alt.arity);
      }
      if (e.dflt != kNoExpr) visit(e.dflt, depth + (e.a != 0 ? 1 : 0));
      break;
    }
    case ExprTag::Con:
      if (e.a < 0) throw ProgramError("negative constructor tag in " + g.name);
      for (ExprId k : e.kids) visit(k, depth);
      break;
    case ExprTag::Prim: {
      const auto op = static_cast<PrimOp>(e.a);
      if (static_cast<std::size_t>(prim_op_arity(op)) != e.kids.size())
        throw ProgramError(std::string("bad arity for ") + prim_op_name(op) + " in " + g.name);
      for (ExprId k : e.kids) visit(k, depth);
      break;
    }
    case ExprTag::Par:
    case ExprTag::Seq:
      if (e.kids.size() != 2) throw ProgramError("Par/Seq need two operands in " + g.name);
      visit(e.kids[0], depth);
      visit(e.kids[1], depth);
      break;
  }
  return max_env;
}

namespace {
void fnv(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 1099511628211ull;
  }
}

void fnv_str(std::uint64_t& h, const std::string& s) {
  fnv(h, s.size());
  for (char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ull;
  }
}

std::uint64_t structural_hash(const Program& p) {
  std::uint64_t h = 14695981039346656037ull;
  fnv(h, p.global_count());
  for (GlobalId g = 0; g < static_cast<GlobalId>(p.global_count()); ++g) {
    const Global& gl = p.global(g);
    fnv_str(h, gl.name);
    fnv(h, static_cast<std::uint64_t>(gl.arity));
    fnv(h, static_cast<std::uint64_t>(gl.body));
  }
  fnv(h, p.expr_count());
  for (ExprId e = 0; e < static_cast<ExprId>(p.expr_count()); ++e) {
    const Expr& x = p.expr(e);
    fnv(h, static_cast<std::uint64_t>(x.tag));
    fnv(h, static_cast<std::uint64_t>(x.a));
    fnv(h, static_cast<std::uint64_t>(x.lit));
    fnv(h, x.kids.size());
    for (ExprId k : x.kids) fnv(h, static_cast<std::uint64_t>(k));
    fnv(h, x.alts.size());
    for (const Alt& a : x.alts) {
      fnv(h, static_cast<std::uint64_t>(a.tag));
      fnv(h, static_cast<std::uint64_t>(a.arity));
      fnv(h, static_cast<std::uint64_t>(a.body));
    }
    fnv(h, static_cast<std::uint64_t>(x.dflt));
  }
  return h;
}
}  // namespace

struct Program::Facts {
  std::uint64_t hash;
  LintReport lint;
};

void Program::validate() {
  for (Global& g : globals_) {
    if (g.body == kNoExpr) throw ProgramError("undefined supercombinator: " + g.name);
    g.max_env = check_expr(g.body, g.arity, g);
  }
  validated_ = true;
  facts_ = std::make_shared<const Facts>(Facts{structural_hash(*this), lint_program(*this)});
}

std::uint64_t Program::content_hash() const {
  if (!facts_) throw ProgramError("content_hash of an unvalidated program");
  return facts_->hash;
}

const LintReport& Program::lint_report() const {
  if (!facts_) throw ProgramError("lint_report of an unvalidated program");
  return facts_->lint;
}

namespace {
void render(const Program& p, ExprId id, std::ostringstream& out, int indent) {
  const Expr& e = p.expr(id);
  auto kid = [&](ExprId k) { render(p, k, out, indent); };
  switch (e.tag) {
    case ExprTag::Var: out << "v" << e.a; break;
    case ExprTag::Global: out << p.global(e.a).name; break;
    case ExprTag::Lit: out << e.lit; break;
    case ExprTag::App:
      out << "(";
      for (std::size_t i = 0; i < e.kids.size(); ++i) {
        if (i != 0) out << " ";
        kid(e.kids[i]);
      }
      out << ")";
      break;
    case ExprTag::Let: {
      const std::size_t n = e.kids.size() - 1;
      out << "(let {";
      for (std::size_t i = 0; i < n; ++i) {
        if (i != 0) out << "; ";
        out << "b" << i << " = ";
        kid(e.kids[i]);
      }
      out << "} in ";
      kid(e.kids[n]);
      out << ")";
      break;
    }
    case ExprTag::Case:
      out << "(case ";
      kid(e.kids[0]);
      out << " of {";
      for (std::size_t i = 0; i < e.alts.size(); ++i) {
        if (i != 0) out << "; ";
        out << "<" << e.alts[i].tag << "/" << e.alts[i].arity << "> -> ";
        kid(e.alts[i].body);
      }
      if (e.dflt != kNoExpr) {
        if (!e.alts.empty()) out << "; ";
        out << "_ -> ";
        kid(e.dflt);
      }
      out << "})";
      break;
    case ExprTag::Con:
      out << "(Con" << e.a;
      for (ExprId k : e.kids) {
        out << " ";
        kid(k);
      }
      out << ")";
      break;
    case ExprTag::Prim:
      out << "(" << prim_op_name(static_cast<PrimOp>(e.a));
      for (ExprId k : e.kids) {
        out << " ";
        kid(k);
      }
      out << ")";
      break;
    case ExprTag::Par:
      out << "(par ";
      kid(e.kids[0]);
      out << " ";
      kid(e.kids[1]);
      out << ")";
      break;
    case ExprTag::Seq:
      out << "(seq ";
      kid(e.kids[0]);
      out << " ";
      kid(e.kids[1]);
      out << ")";
      break;
  }
}
}  // namespace

std::string Program::show_expr(ExprId id) const {
  std::ostringstream out;
  render(*this, id, out, 0);
  return out.str();
}

std::string Program::show_global(GlobalId id) const {
  const Global& g = global(id);
  std::ostringstream out;
  out << g.name << "/" << g.arity << " = ";
  if (g.body == kNoExpr)
    out << "<undefined>";
  else
    render(*this, g.body, out, 0);
  return out.str();
}

}  // namespace ph
