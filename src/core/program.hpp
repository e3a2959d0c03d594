// Program: the immutable code component of a runtime instance.
//
// A Program owns the expression table and the supercombinator table. It is
// shared (read-only) by every capability of a shared-heap machine, and by
// every PE of a distributed-heap (Eden) machine — mirroring how every GHC
// process in the paper runs the same compiled binary. Graph packing relies
// on this: a packed thunk names its code by ExprId, which is meaningful on
// every PE.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/ir.hpp"

namespace ph {

/// Raised for malformed programs (unbound variables, bad arities, ...).
struct ProgramError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct LintReport;  // core/lint/lint.hpp

class Program {
 public:
  // --- construction (used by Builder) ----------------------------------
  ExprId add_expr(Expr e);
  GlobalId declare(std::string name, std::int32_t arity);
  void define(GlobalId id, ExprId body);

  // --- queries ----------------------------------------------------------
  const Expr& expr(ExprId id) const { return exprs_.at(static_cast<std::size_t>(id)); }
  const Global& global(GlobalId id) const { return globals_.at(static_cast<std::size_t>(id)); }
  std::size_t expr_count() const { return exprs_.size(); }
  std::size_t global_count() const { return globals_.size(); }

  /// Looks up a supercombinator by name; throws ProgramError if absent.
  GlobalId find(const std::string& name) const;
  bool has(const std::string& name) const { return by_name_.count(name) != 0; }

  /// Checks well-formedness of every defined supercombinator: all bodies
  /// present, variables bound, Case alternatives sane, Prim arities exact.
  /// Also computes Global::max_env, the content hash and the lint report.
  /// Must be called once after building and before execution; throws
  /// ProgramError on the first violation.
  void validate();
  bool validated() const { return validated_; }

  /// Facts validate() computes once and the Program's copies share (a
  /// validated Program cannot change: add_expr, declare and define throw).
  /// Both throw ProgramError before validate().
  ///
  /// Structural FNV-1a over the globals and the expression table: the
  /// bytecode cache's key. Any change to any supercombinator changes it.
  std::uint64_t content_hash() const;
  /// The Core Lint report under default options (the one every Machine's
  /// load-time lint and the daemon's pre-fork lint read).
  const LintReport& lint_report() const;

  /// Human-readable rendering of one supercombinator (for diagnostics).
  std::string show_global(GlobalId id) const;
  std::string show_expr(ExprId id) const;

 private:
  std::int32_t check_expr(ExprId id, std::int32_t depth, const Global& g);

  std::vector<Expr> exprs_;
  std::vector<Global> globals_;
  std::unordered_map<std::string, GlobalId> by_name_;
  bool validated_ = false;
  struct Facts;                         // program.cpp
  std::shared_ptr<const Facts> facts_;  // made by validate()
};

}  // namespace ph
