#include "eval/bytecode.hpp"

#include <cstring>
#include <fstream>
#include <utility>

#include "core/analysis/dataflow.hpp"
#include "core/analysis/demand.hpp"
#include "net/frame.hpp"

namespace ph::bc {

namespace {

// Must agree with the interpreter's static-constructor table size
// (machine.cpp): atom/thunk classification decides how many thunks a
// program allocates, and the differential fuzzer holds both engines to
// identical spark counters, which a divergence here would break.
constexpr std::int32_t kStaticConTags = 16;

bool cheap_cbv_op(PrimOp op) {
  switch (op) {
    case PrimOp::Add:
    case PrimOp::Sub:
    case PrimOp::Mul:
    case PrimOp::Neg:
    case PrimOp::Min:
    case PrimOp::Max:
      return true;
    default:
      // Div/Mod can raise, Error always does, comparisons build
      // constructors; keeping call-by-value to total arithmetic means the
      // eager evaluation can only move work earlier, never surface a
      // different error than the interpreter would.
      return false;
  }
}

class Compiler {
 public:
  explicit Compiler(const Program& p)
      : p_(p), cg_(p), demand_(analyze_demand(p, cg_)) {
    blob_ = std::make_shared<CodeBlob>();
    blob_->entries.assign(p.expr_count(), kNoEntry);
    blob_->prog_hash = p.content_hash();
  }

  std::shared_ptr<const CodeBlob> run() {
    for (GlobalId g = 0; g < static_cast<GlobalId>(p_.global_count()); ++g) {
      const Global& gl = p_.global(g);
      if (gl.body != kNoExpr) need(gl.body, gl.arity);
    }
    while (!todo_.empty()) {
      auto [e, depth] = todo_.back();
      todo_.pop_back();
      auto& slot = blob_->entries[static_cast<std::size_t>(e)];
      if (slot != kNoEntry) continue;
      slot = here();
      tail(e, depth);
    }
    return blob_;
  }

 private:
  enum class AtomKind { None, Var, Lit, Fun, Caf, Con0 };

  // Mirrors eval.cpp's atom(): expressions that bind to an existing value
  // without allocating a thunk. `limit` is the environment size the
  // expression is evaluated against (letrec right-hand sides may not
  // reference sibling binders atomically).
  AtomKind atom_kind(const Expr& e, std::int32_t limit) const {
    switch (e.tag) {
      case ExprTag::Var:
        return e.a < limit ? AtomKind::Var : AtomKind::None;
      case ExprTag::Lit:
        return AtomKind::Lit;
      case ExprTag::Global:
        return p_.global(e.a).arity > 0 ? AtomKind::Fun : AtomKind::Caf;
      case ExprTag::Con:
        return (e.kids.empty() && e.a >= 0 && e.a < kStaticConTags)
                   ? AtomKind::Con0
                   : AtomKind::None;
      default:
        return AtomKind::None;
    }
  }

  /// Pure arithmetic over in-scope atoms: safe to evaluate eagerly at a
  /// strict call site (cannot error, cannot spark, terminates as soon as
  /// its free variables do — and strictness says the callee forces those
  /// anyway).
  bool cheap_strict_tree(ExprId e) const {
    const Expr& x = p_.expr(e);
    switch (x.tag) {
      case ExprTag::Var:
      case ExprTag::Lit:
        return true;
      case ExprTag::Prim: {
        if (!cheap_cbv_op(static_cast<PrimOp>(x.a))) return false;
        for (ExprId k : x.kids)
          if (!cheap_strict_tree(k)) return false;
        return true;
      }
      default:
        return false;
    }
  }

  // --- emission ---------------------------------------------------------
  std::uint32_t here() const {
    return static_cast<std::uint32_t>(blob_->code.size());
  }
  void w(std::uint32_t x) { blob_->code.push_back(x); }
  void op(Op o) { w(static_cast<std::uint32_t>(o)); }
  std::uint32_t hole() {
    w(0xdeadbeefu);
    return here() - 1;
  }
  void patch(std::uint32_t at, std::uint32_t v) {
    blob_->code[at] = v;
  }
  std::uint32_t lit(std::int64_t v) {
    auto it = lit_idx_.find(v);
    if (it != lit_idx_.end()) return it->second;
    auto idx = static_cast<std::uint32_t>(blob_->lits.size());
    blob_->lits.push_back(v);
    lit_idx_.emplace(v, idx);
    return idx;
  }
  void need(ExprId e, std::int32_t depth) {
    if (blob_->entries[static_cast<std::size_t>(e)] == kNoEntry)
      todo_.emplace_back(e, depth);
  }

  // --- compilation modes ------------------------------------------------

  /// Pushes `e`'s value lazily (atom or fresh thunk); with `cbv` set, a
  /// provably-strict cheap expression is evaluated right here instead.
  void arg(ExprId e, std::int32_t depth, bool cbv) {
    const Expr& x = p_.expr(e);
    switch (atom_kind(x, depth)) {
      case AtomKind::Var:
        op(Op::PushVar), w(static_cast<std::uint32_t>(x.a));
        return;
      case AtomKind::Lit:
        op(Op::PushLit), w(lit(x.lit));
        return;
      case AtomKind::Fun:
        op(Op::PushFun), w(static_cast<std::uint32_t>(x.a));
        return;
      case AtomKind::Caf:
        op(Op::PushCaf), w(static_cast<std::uint32_t>(x.a));
        return;
      case AtomKind::Con0:
        op(Op::PushCon0), w(static_cast<std::uint32_t>(x.a));
        return;
      case AtomKind::None:
        break;
    }
    if (cbv && cheap_strict_tree(e)) {
      blob_->cbv_args++;
      force(e, depth);
      return;
    }
    op(Op::MkThunk), w(static_cast<std::uint32_t>(e));
    need(e, depth);
  }

  /// Leaves `e`'s WHNF on the operand stack and falls through.
  void force(ExprId e, std::int32_t depth) {
    const Expr& x = p_.expr(e);
    switch (x.tag) {
      case ExprTag::Var:
        op(Op::PushVar), w(static_cast<std::uint32_t>(x.a));
        op(Op::Force);
        return;
      case ExprTag::Lit:
        op(Op::PushLit), w(lit(x.lit));
        return;
      case ExprTag::Global:
        if (p_.global(x.a).arity > 0) {
          op(Op::PushFun), w(static_cast<std::uint32_t>(x.a));
        } else {
          op(Op::PushCaf), w(static_cast<std::uint32_t>(x.a));
          op(Op::Force);
        }
        return;
      case ExprTag::Con:
        if (x.kids.empty() && x.a >= 0 && x.a < kStaticConTags) {
          op(Op::PushCon0), w(static_cast<std::uint32_t>(x.a));
        } else {
          for (ExprId k : x.kids) arg(k, depth, false);
          op(Op::MkCon), w(static_cast<std::uint32_t>(x.a));
          w(static_cast<std::uint32_t>(x.kids.size()));
        }
        return;
      case ExprTag::Prim:
        for (ExprId k : x.kids) force(k, depth);
        op(Op::Prim), w(static_cast<std::uint32_t>(x.a));
        w(static_cast<std::uint32_t>(x.kids.size()));
        return;
      case ExprTag::App:
        call(x, depth, /*is_tail=*/false);
        return;
      case ExprTag::Let: {
        auto n = static_cast<std::int32_t>(x.kids.size()) - 1;
        let_binders(x, depth);
        force(x.kids.back(), depth + n);
        op(Op::EnvTrim), w(static_cast<std::uint32_t>(n));
        return;
      }
      case ExprTag::Case:
        case_expr(x, depth, /*is_tail=*/false);
        return;
      case ExprTag::Par:
        arg(x.kids[0], depth, false);
        op(Op::SparkTop);
        force(x.kids[1], depth);
        return;
      case ExprTag::Seq:
        force(x.kids[0], depth);
        op(Op::Drop);
        force(x.kids[1], depth);
        return;
    }
  }

  /// Compiles `e` as the remainder of an activation: ends every path in
  /// RetTop / EnterTop / CallGlobal, never falls through.
  void tail(ExprId e, std::int32_t depth) {
    const Expr& x = p_.expr(e);
    switch (x.tag) {
      case ExprTag::Var:
        op(Op::PushVar), w(static_cast<std::uint32_t>(x.a));
        op(Op::EnterTop);
        return;
      case ExprTag::Lit:
        op(Op::PushLit), w(lit(x.lit));
        op(Op::RetTop);
        return;
      case ExprTag::Global:
        if (p_.global(x.a).arity > 0) {
          op(Op::PushFun), w(static_cast<std::uint32_t>(x.a));
          op(Op::RetTop);
        } else {
          op(Op::PushCaf), w(static_cast<std::uint32_t>(x.a));
          op(Op::EnterTop);
        }
        return;
      case ExprTag::Con:
      case ExprTag::Prim:
        force(e, depth);
        op(Op::RetTop);
        return;
      case ExprTag::App:
        call(x, depth, /*is_tail=*/true);
        return;
      case ExprTag::Let: {
        auto n = static_cast<std::int32_t>(x.kids.size()) - 1;
        let_binders(x, depth);
        tail(x.kids.back(), depth + n);
        return;
      }
      case ExprTag::Case:
        case_expr(x, depth, /*is_tail=*/true);
        return;
      case ExprTag::Par:
        arg(x.kids[0], depth, false);
        op(Op::SparkTop);
        tail(x.kids[1], depth);
        return;
      case ExprTag::Seq:
        force(x.kids[0], depth);
        op(Op::Drop);
        tail(x.kids[1], depth);
        return;
    }
  }

  void call(const Expr& x, std::int32_t depth, bool is_tail) {
    auto n = static_cast<std::int32_t>(x.kids.size()) - 1;
    const Expr& f = p_.expr(x.kids[0]);
    if (f.tag == ExprTag::Global && p_.global(f.a).arity == n) {
      // Saturated known call: args straight into a fresh environment, no
      // Apply frame; in tail position no continuation frame either (real
      // tail calls run in constant stack).
      const std::uint64_t strict = demand_.of(f.a).strict;
      std::uint32_t resume = 0;
      if (!is_tail) {
        op(Op::PushFrame);
        resume = hole();
      }
      for (std::int32_t i = 0; i < n; ++i) {
        const bool cbv = i < 64 && ((strict >> i) & 1u) != 0;
        arg(x.kids[static_cast<std::size_t>(i) + 1], depth, cbv);
      }
      op(Op::CallGlobal), w(static_cast<std::uint32_t>(f.a));
      w(static_cast<std::uint32_t>(n));
      if (!is_tail) patch(resume, here());
      return;
    }
    // Generic application: build an interpreter Apply frame and deliver
    // the function value to it.
    std::uint32_t resume = 0;
    if (!is_tail) {
      op(Op::PushFrame);
      resume = hole();
    }
    for (std::int32_t i = 0; i < n; ++i)
      arg(x.kids[static_cast<std::size_t>(i) + 1], depth, false);
    op(Op::ApplyPush), w(static_cast<std::uint32_t>(n));
    tail(x.kids[0], depth);
    if (!is_tail) patch(resume, here());
  }

  void case_expr(const Expr& x, std::int32_t depth, bool is_tail) {
    force(x.kids[0], depth);
    const auto nalts = static_cast<std::uint32_t>(x.alts.size());
    const bool has_dflt = x.dflt != kNoExpr;
    const bool binds = has_dflt && x.a != 0;
    op(Op::CaseTop), w(nalts);
    w((has_dflt ? kCaseHasDefault : 0u) | (binds ? kCaseBindsScrut : 0u));
    const std::uint32_t dflt_at = hole();
    std::vector<std::uint32_t> alt_at(nalts);
    for (std::uint32_t i = 0; i < nalts; ++i) {
      w(lit(x.alts[i].tag));
      w(static_cast<std::uint32_t>(x.alts[i].arity));
      alt_at[i] = hole();
    }
    std::vector<std::uint32_t> joins;
    for (std::uint32_t i = 0; i < nalts; ++i) {
      patch(alt_at[i], here());
      const std::int32_t arity = x.alts[i].arity;
      if (is_tail) {
        tail(x.alts[i].body, depth + arity);
      } else {
        force(x.alts[i].body, depth + arity);
        op(Op::EnvTrim), w(static_cast<std::uint32_t>(arity));
        op(Op::Jump);
        joins.push_back(hole());
      }
    }
    if (has_dflt) {
      patch(dflt_at, here());
      const std::int32_t bound = binds ? 1 : 0;
      if (is_tail) {
        tail(x.dflt, depth + bound);
      } else {
        force(x.dflt, depth + bound);
        op(Op::EnvTrim), w(static_cast<std::uint32_t>(bound));
      }
    } else {
      patch(dflt_at, kNoTarget);
    }
    for (std::uint32_t j : joins) patch(j, here());
  }

  /// The interpreter's two-pass letrec, staged at compile time: each
  /// binder is an atom w.r.t. the *outer* scope or a knot-tied thunk.
  void let_binders(const Expr& x, std::int32_t depth) {
    auto n = static_cast<std::int32_t>(x.kids.size()) - 1;
    op(Op::Let), w(static_cast<std::uint32_t>(n));
    for (std::int32_t i = 0; i < n; ++i) {
      const ExprId k = x.kids[static_cast<std::size_t>(i)];
      const Expr& rhs = p_.expr(k);
      switch (atom_kind(rhs, depth)) {
        case AtomKind::Var:
          w(static_cast<std::uint32_t>(BindKind::Var));
          w(static_cast<std::uint32_t>(rhs.a));
          continue;
        case AtomKind::Lit:
          w(static_cast<std::uint32_t>(BindKind::Lit));
          w(lit(rhs.lit));
          continue;
        case AtomKind::Fun:
          w(static_cast<std::uint32_t>(BindKind::Fun));
          w(static_cast<std::uint32_t>(rhs.a));
          continue;
        case AtomKind::Caf:
          w(static_cast<std::uint32_t>(BindKind::Caf));
          w(static_cast<std::uint32_t>(rhs.a));
          continue;
        case AtomKind::Con0:
          w(static_cast<std::uint32_t>(BindKind::Con0));
          w(static_cast<std::uint32_t>(rhs.a));
          continue;
        case AtomKind::None:
          break;
      }
      w(static_cast<std::uint32_t>(BindKind::Thunk));
      w(static_cast<std::uint32_t>(k));
      need(k, depth + n);
    }
  }

  const Program& p_;
  CallGraph cg_;
  DemandResult demand_;
  std::shared_ptr<CodeBlob> blob_;
  std::vector<std::pair<ExprId, std::int32_t>> todo_;
  std::unordered_map<std::int64_t, std::uint32_t> lit_idx_;
};

// --- byte-level helpers -----------------------------------------------------

void put32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

void put64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  put32(out, static_cast<std::uint32_t>(v));
  put32(out, static_cast<std::uint32_t>(v >> 32));
}

std::uint32_t get32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t get64(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(get32(p)) |
         (static_cast<std::uint64_t>(get32(p + 4)) << 32);
}

/// Number of operand words following an opcode (variable-length ops
/// return their fixed prefix; the verifier handles their tails).
int fixed_operands(Op o) {
  switch (o) {
    case Op::Force:
    case Op::Drop:
    case Op::SparkTop:
    case Op::RetTop:
    case Op::EnterTop:
      return 0;
    case Op::PushVar:
    case Op::PushLit:
    case Op::PushFun:
    case Op::PushCaf:
    case Op::PushCon0:
    case Op::MkThunk:
    case Op::EnvTrim:
    case Op::Jump:
    case Op::PushFrame:
    case Op::ApplyPush:
    case Op::Let:
      return 1;
    case Op::MkCon:
    case Op::Prim:
    case Op::CallGlobal:
      return 2;
    case Op::CaseTop:
      return 3;
  }
  return -1;
}

}  // namespace

const char* cache_defect_name(CacheDefect d) {
  switch (d) {
    case CacheDefect::Truncated: return "truncated";
    case CacheDefect::BadMagic: return "bad-magic";
    case CacheDefect::BadVersion: return "bad-version";
    case CacheDefect::StaleProgram: return "stale-program";
    case CacheDefect::BadCrc: return "bad-crc";
    case CacheDefect::BadEncoding: return "bad-encoding";
    case CacheDefect::Unwritable: return "unwritable";
    case CacheDefect::Io: return "io";
  }
  return "unknown";
}

std::shared_ptr<const CodeBlob> compile_program(const Program& p) {
  if (!p.validated())
    throw ProgramError("bytecode: program must be validated before compilation");
  return Compiler(p).run();
}

void verify_blob(const CodeBlob& b, std::size_t n_globals) {
  auto bad = [](const std::string& what) {
    throw CacheError(CacheDefect::BadEncoding, "bytecode blob: " + what);
  };
  const std::size_t n = b.code.size();
  // Pass 1: decode linearly, recording instruction boundaries and every
  // jump-like target for the boundary check in pass 2.
  std::vector<bool> boundary(n + 1, false);
  std::vector<std::uint32_t> targets;
  auto operand = [&](std::size_t at) { return b.code.at(at); };
  std::size_t pc = 0;
  while (pc < n) {
    boundary[pc] = true;
    const std::uint32_t raw = b.code[pc];
    if (raw > static_cast<std::uint32_t>(Op::EnterTop)) bad("invalid opcode");
    const Op o = static_cast<Op>(raw);
    std::size_t len = 1 + static_cast<std::size_t>(fixed_operands(o));
    if (pc + len > n) bad("instruction overruns code");
    switch (o) {
      case Op::PushLit:
        if (operand(pc + 1) >= b.lits.size()) bad("literal index out of range");
        break;
      case Op::PushFun:
      case Op::PushCaf:
        if (operand(pc + 1) >= n_globals) bad("global out of range");
        break;
      case Op::MkThunk:
        if (operand(pc + 1) >= b.entries.size()) bad("thunk expr out of range");
        break;
      case Op::Prim: {
        const std::uint32_t po = operand(pc + 1);
        if (po > static_cast<std::uint32_t>(PrimOp::Error)) bad("invalid prim op");
        if (operand(pc + 2) !=
            static_cast<std::uint32_t>(prim_op_arity(static_cast<PrimOp>(po))))
          bad("prim arity mismatch");
        break;
      }
      case Op::CallGlobal:
        if (operand(pc + 1) >= n_globals) bad("call global out of range");
        break;
      case Op::Jump:
      case Op::PushFrame:
        targets.push_back(operand(pc + 1));
        break;
      case Op::Let: {
        const std::uint32_t nb = operand(pc + 1);
        if (nb > 4096) bad("let binder count implausible");
        len += 2 * static_cast<std::size_t>(nb);
        if (pc + len > n) bad("let binders overrun code");
        for (std::uint32_t i = 0; i < nb; ++i) {
          const std::uint32_t kind = operand(pc + 2 + 2 * i);
          const std::uint32_t arg = operand(pc + 3 + 2 * i);
          if (kind > static_cast<std::uint32_t>(BindKind::Thunk))
            bad("invalid let binder kind");
          if (static_cast<BindKind>(kind) == BindKind::Lit &&
              arg >= b.lits.size())
            bad("let literal out of range");
          if ((static_cast<BindKind>(kind) == BindKind::Fun ||
               static_cast<BindKind>(kind) == BindKind::Caf) &&
              arg >= n_globals)
            bad("let global out of range");
          if (static_cast<BindKind>(kind) == BindKind::Thunk &&
              arg >= b.entries.size())
            bad("let thunk expr out of range");
        }
        break;
      }
      case Op::CaseTop: {
        const std::uint32_t nalts = operand(pc + 1);
        if (nalts > 4096) bad("case alternative count implausible");
        const std::uint32_t dflt = operand(pc + 3);
        if (dflt != kNoTarget) targets.push_back(dflt);
        len += 3 * static_cast<std::size_t>(nalts);
        if (pc + len > n) bad("case alternatives overrun code");
        for (std::uint32_t i = 0; i < nalts; ++i) {
          if (operand(pc + 4 + 3 * i) >= b.lits.size())
            bad("case tag literal out of range");
          targets.push_back(operand(pc + 6 + 3 * i));
        }
        break;
      }
      default:
        break;
    }
    pc += len;
  }
  for (std::uint32_t e : b.entries)
    if (e != kNoEntry) targets.push_back(e);
  for (std::uint32_t t : targets)
    if (t >= n || !boundary[t]) bad("jump target not an instruction boundary");
}

std::vector<std::uint8_t> serialize_blob(const CodeBlob& b) {
  std::vector<std::uint8_t> body;
  body.reserve(16 + 4 * (b.entries.size() + b.code.size()) + 8 * b.lits.size());
  put32(body, static_cast<std::uint32_t>(b.entries.size()));
  put32(body, static_cast<std::uint32_t>(b.code.size()));
  put32(body, static_cast<std::uint32_t>(b.lits.size()));
  put32(body, b.cbv_args);
  for (std::uint32_t v : b.entries) put32(body, v);
  for (std::uint32_t v : b.code) put32(body, v);
  for (std::int64_t v : b.lits) put64(body, static_cast<std::uint64_t>(v));

  std::vector<std::uint8_t> out;
  out.reserve(24 + body.size());
  for (char m : kCacheMagic) out.push_back(static_cast<std::uint8_t>(m));
  put32(out, kCacheVersion);
  put64(out, b.prog_hash);
  put32(out, static_cast<std::uint32_t>(body.size()));
  put32(out, net::crc32(body.data(), body.size()));
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

std::shared_ptr<const CodeBlob> deserialize_blob(const std::uint8_t* data,
                                                 std::size_t n,
                                                 std::uint64_t want_hash) {
  auto fail = [](CacheDefect d, const std::string& what) -> std::shared_ptr<const CodeBlob> {
    throw CacheError(d, "bytecode cache: " + what);
  };
  constexpr std::size_t kHeader = 4 + 4 + 8 + 4 + 4;
  if (n < kHeader) return fail(CacheDefect::Truncated, "shorter than header");
  if (std::memcmp(data, kCacheMagic, 4) != 0)
    return fail(CacheDefect::BadMagic, "bad magic");
  const std::uint32_t version = get32(data + 4);
  if (version != kCacheVersion)
    return fail(CacheDefect::BadVersion,
                "format version " + std::to_string(version) + ", expected " +
                    std::to_string(kCacheVersion));
  const std::uint64_t hash = get64(data + 8);
  if (hash != want_hash)
    return fail(CacheDefect::StaleProgram,
                "compiled for a different program (hash mismatch)");
  const std::uint32_t body_len = get32(data + 16);
  const std::uint32_t crc = get32(data + 20);
  if (n < kHeader + body_len)
    return fail(CacheDefect::Truncated, "body shorter than declared length");
  const std::uint8_t* body = data + kHeader;
  if (net::crc32(body, body_len) != crc)
    return fail(CacheDefect::BadCrc, "body CRC mismatch");

  if (body_len < 16)
    return fail(CacheDefect::BadEncoding, "body shorter than its counts");
  const std::uint32_t n_entries = get32(body);
  const std::uint32_t n_code = get32(body + 4);
  const std::uint32_t n_lits = get32(body + 8);
  const std::uint64_t want_len = 16ull + 4ull * n_entries + 4ull * n_code +
                                 8ull * n_lits;
  if (want_len != body_len)
    return fail(CacheDefect::BadEncoding, "counts disagree with body length");

  auto b = std::make_shared<CodeBlob>();
  b->prog_hash = hash;
  b->cbv_args = get32(body + 12);
  b->entries.resize(n_entries);
  b->code.resize(n_code);
  b->lits.resize(n_lits);
  const std::uint8_t* p = body + 16;
  for (std::uint32_t i = 0; i < n_entries; ++i, p += 4) b->entries[i] = get32(p);
  for (std::uint32_t i = 0; i < n_code; ++i, p += 4) b->code[i] = get32(p);
  for (std::uint32_t i = 0; i < n_lits; ++i, p += 8)
    b->lits[i] = static_cast<std::int64_t>(get64(p));
  return b;
}

std::shared_ptr<const CodeBlob> load_blob_file(const std::string& path,
                                               std::uint64_t want_hash) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return nullptr;  // absent: not an error
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  if (in.bad())
    throw CacheError(CacheDefect::Io, "bytecode cache: read failed: " + path);
  return deserialize_blob(bytes.data(), bytes.size(), want_hash);
}

void save_blob_file(const std::string& path, const CodeBlob& b) {
  const std::vector<std::uint8_t> bytes = serialize_blob(b);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.is_open())
    throw CacheError(CacheDefect::Unwritable,
                     "bytecode cache: cannot open for writing: " + path);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out.good())
    throw CacheError(CacheDefect::Unwritable,
                     "bytecode cache: write failed: " + path);
}

std::shared_ptr<const CodeBlob> BytecodeCache::get_or_compile(
    const Program& p, const std::string& path) {
  const std::uint64_t h = p.content_hash();  // recorded once per Program
  std::lock_guard<std::mutex> lk(mu_);
  auto it = blobs_.find(h);
  if (it != blobs_.end()) return it->second;
  if (!path.empty()) {
    try {
      if (auto b = load_blob_file(path, h)) {
        verify_blob(*b, p.global_count());
        stats_.file_loads++;
        blobs_.emplace(h, b);
        return b;
      }
    } catch (const CacheError&) {
      // Structured rejection: fall back to a fresh translation below (and
      // overwrite the defective file with a good one).
      stats_.rejects++;
    }
  }
  auto b = compile_program(p);
  stats_.compiles++;
  blobs_.emplace(h, b);
  if (!path.empty()) {
    save_blob_file(path, *b);  // Unwritable propagates to the caller
    stats_.file_saves++;
  }
  return b;
}

CacheStats BytecodeCache::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

void BytecodeCache::clear() {
  std::lock_guard<std::mutex> lk(mu_);
  blobs_.clear();
  stats_ = CacheStats{};
}

BytecodeCache& shared_cache() {
  static BytecodeCache cache;
  return cache;
}

}  // namespace ph::bc
