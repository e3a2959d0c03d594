// Primitive operations on Int: the one definition of their semantics,
// shared by the interpreter (eval.cpp) and the bytecode engine
// (bceval.cpp).
#pragma once

#include <cstdint>
#include <limits>
#include <string>

#include "core/ir.hpp"
#include "rts/machine.hpp"

namespace ph {

/// What a primitive returns: an Int, or a Bool constructor tag
/// (False = 0, True = 1) for the comparisons.
struct PrimResult {
  std::int64_t value;
  bool is_bool;
};

/// Applies `op` to Int operands; a unary operator reads only `y`. The
/// semantics are those of Haskell's Int: Add, Sub, Mul and Neg wrap
/// modulo 2^64; div and mod floor. Dividing by zero and `div minBound
/// (-1)` raise EvalError, while `mod x (-1)` is 0 for every x.
inline PrimResult apply_prim(PrimOp op, std::int64_t x, std::int64_t y) {
  const auto ux = static_cast<std::uint64_t>(x);
  const auto uy = static_cast<std::uint64_t>(y);
  switch (op) {
    case PrimOp::Add: return {static_cast<std::int64_t>(ux + uy), false};
    case PrimOp::Sub: return {static_cast<std::int64_t>(ux - uy), false};
    case PrimOp::Mul: return {static_cast<std::int64_t>(ux * uy), false};
    case PrimOp::Div: {
      if (y == 0) throw EvalError("division by zero");
      if (y == -1 && x == std::numeric_limits<std::int64_t>::min())
        throw EvalError("arithmetic overflow");
      std::int64_t q = x / y;
      if ((x % y != 0) && ((x < 0) != (y < 0))) --q;
      return {q, false};
    }
    case PrimOp::Mod: {
      if (y == 0) throw EvalError("modulus by zero");
      if (y == -1) return {0, false};  // x % -1 traps on minBound
      std::int64_t r = x % y;
      if (r != 0 && ((r < 0) != (y < 0))) r += y;
      return {r, false};
    }
    case PrimOp::Neg: return {static_cast<std::int64_t>(0 - uy), false};
    case PrimOp::Min: return {x < y ? x : y, false};
    case PrimOp::Max: return {x > y ? x : y, false};
    case PrimOp::Eq: return {x == y, true};
    case PrimOp::Ne: return {x != y, true};
    case PrimOp::Lt: return {x < y, true};
    case PrimOp::Le: return {x <= y, true};
    case PrimOp::Gt: return {x > y, true};
    case PrimOp::Ge: return {x >= y, true};
    case PrimOp::Error:
      throw EvalError("error# called with value " + std::to_string(y));
  }
  throw EvalError("corrupt primitive operation");
}

}  // namespace ph
