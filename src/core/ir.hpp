// Core intermediate representation: a lambda-lifted, non-strict
// supercombinator language in the spirit of GHC's Core/STG.
//
// Programs are immutable once built (see Program). All benchmark and
// prelude code is expressed in this IR and executed by the graph-reduction
// machine in src/eval. Parallelism enters through the Par/Seq expression
// forms, which correspond exactly to GpH's `par` and `seq` combinators.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace ph {

/// Index of an expression node within a Program's expression table.
using ExprId = std::int32_t;
/// Index of a supercombinator (top-level function) within a Program.
using GlobalId = std::int32_t;

constexpr ExprId kNoExpr = -1;

/// Strict primitive operations. All operands are forced to WHNF (boxed
/// machine integers) before the operation is applied.
enum class PrimOp : std::uint8_t {
  Add,
  Sub,
  Mul,
  Div,   // Haskell's flooring div/mod, Int wraps: see eval/prim.hpp
  Mod,
  Neg,
  Min,
  Max,
  Eq,    // comparisons return Bool constructors (False = tag 0, True = 1)
  Ne,
  Lt,
  Le,
  Gt,
  Ge,
  // Deliberate escape hatches used by the runtime-facing prelude:
  Error  // aborts evaluation with an EvalError carrying the operand
};

const char* prim_op_name(PrimOp op);
/// Number of operands the operator consumes.
int prim_op_arity(PrimOp op);

enum class ExprTag : std::uint8_t {
  Var,     // local variable, de Bruijn *level* into the environment
  Global,  // reference to a supercombinator
  Lit,     // machine-integer literal
  App,     // application of an expression to >=1 argument expressions
  Let,     // (possibly recursive) lazy bindings, extends the environment
  Case,    // force scrutinee to WHNF, branch on constructor tag / literal
  Con,     // saturated constructor application (fields are lazy)
  Prim,    // strict primitive operation
  Par,     // GpH `par`: spark first operand, continue with second
  Seq      // GpH `seq`: force first operand to WHNF, continue with second
};

/// One alternative of a Case expression. For constructor cases `tag`
/// matches the scrutinee's constructor tag and `arity` field binders are
/// pushed onto the environment (as consecutive de Bruijn levels). For
/// literal cases `tag` holds the matched literal and `arity` is 0.
struct Alt {
  std::int64_t tag = 0;
  std::int32_t arity = 0;
  ExprId body = kNoExpr;
};

/// A single IR node. Nodes are stored in a flat table inside Program and
/// refer to each other by ExprId, which keeps the representation compact,
/// trivially serialisable (Eden graph packing refers to thunk code by
/// ExprId) and cheap to traverse.
struct Expr {
  ExprTag tag = ExprTag::Lit;

  // Var: `a` = de Bruijn level. Global: `a` = GlobalId. Con: `a` = ctor
  // tag. Prim: `a` = static_cast<PrimOp>. Case: `a` = 1 if the default
  // alternative binds the scrutinee.
  std::int32_t a = 0;

  std::int64_t lit = 0;  // Lit payload

  // App: kids[0] = function, kids[1..] = arguments.
  // Let: kids[0..n-1] = bound right-hand sides, kids[n] = body (see letn).
  // Case: kids[0] = scrutinee, kids[1] = default body or kNoExpr entry
  //       recorded via has_default.
  // Con/Prim: operand expressions.
  // Par/Seq: kids[0], kids[1].
  std::vector<ExprId> kids;

  std::vector<Alt> alts;  // Case only
  ExprId dflt = kNoExpr;  // Case default alternative body (kNoExpr if none)
};

/// A top-level supercombinator: `arity` parameters occupying de Bruijn
/// levels 0..arity-1 in its body. Supercombinators carry no free
/// variables; everything else must be passed explicitly (lambda-lifted
/// form), which is what makes thunk environments self-contained.
struct Global {
  std::string name;
  std::int32_t arity = 0;
  ExprId body = kNoExpr;
  /// Conservative count of environment slots live in the body (maximum de
  /// Bruijn level + 1). Filled in by Program::validate.
  std::int32_t max_env = 0;
};

}  // namespace ph
