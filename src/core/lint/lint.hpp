// Core Lint: a static well-formedness verifier over Program, in the
// spirit of GHC's -dcore-lint.
//
// Program::validate() throws a ProgramError on the *first* violation it
// meets; that is the right contract for the builder pipeline but useless
// as a diagnostic tool. Lint instead walks the whole program — including
// unvalidated programs, and programs with reference cycles or dangling
// ids the validator would die on — and accumulates structured LintDefect
// records: rule id, supercombinator, offending ExprId and the path from
// the body to it. The rules are numbered L1..L10 and documented in
// DESIGN.md §12.
//
// Exhaustiveness (L8) is checked two ways, because the IR is untyped:
//  * a local *shape* approximation of the scrutinee (constructor
//    applications, comparison primitives producing Bool, branch joins)
//    catches cases whose scrutinee provably produces a tag no
//    alternative covers; and
//  * for unknown scrutinees a *datatype registry* of constructor
//    signatures (tag/arity pairs) requires a defaultless case to cover
//    some declared datatype exactly — coverage that happens to work for
//    today's callers but matches no datatype is flagged as accidental.
// The same registry backs L6: every Con must be a saturated application
// of a declared constructor.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/program.hpp"

namespace ph {

enum class LintRule : std::uint8_t {
  L1DanglingExpr,       // ExprId out of range, kNoExpr body, or a reference cycle
  L2UnboundVar,         // Var level outside the current scope depth
  L3DanglingGlobal,     // GlobalId out of range
  L4AppNoArgs,          // App with fewer than two kids (function + >=1 arg)
  L5PrimArity,          // Prim operand count != prim_op_arity
  L6ConShape,           // negative/overflowing tag, or unsaturated vs the registry
  L7CaseMalformed,      // scrutinee count, empty case, duplicate tags, negative arity
  L8CaseNonExhaustive,  // scrutinee can produce an uncovered constructor / no default
  L9LetNoBody,          // Let with no body expression
  L10UnreachableGlobal  // not reachable from the declared roots (warning)
};

/// Short stable identifier ("L1".."L10") used in diagnostics and pinned
/// by the regression corpus in tests/test_lint.cpp.
const char* lint_rule_id(LintRule r);
/// Human-readable rule title.
const char* lint_rule_title(LintRule r);

/// One constructor signature: the tag stored in Expr::a / Obj::tag and
/// the number of fields a saturated application carries.
struct ConSig {
  std::int64_t tag = 0;
  std::int32_t arity = 0;
  friend bool operator==(const ConSig&, const ConSig&) = default;
};

/// A datatype as far as the untyped IR can know one: a named set of
/// constructor signatures. A defaultless Case is exhaustive when its
/// alternatives cover some datatype's constructors exactly.
struct DatatypeSig {
  std::string name;
  std::vector<ConSig> cons;
};

/// The data conventions every shipped program uses (DESIGN.md §2):
/// Unit {Con0/0}, Bool {Con0/0, Con1/0}, List {Con0/0, Con1/2},
/// Pair {Con0/2}, Triple {Con0/3}.
std::vector<DatatypeSig> default_datatypes();

struct LintOptions {
  std::vector<DatatypeSig> datatypes = default_datatypes();
  /// When non-empty, globals unreachable from these roots (via the call
  /// graph) are reported under L10 as warnings.
  std::vector<GlobalId> roots;
};

struct LintDefect {
  LintRule rule = LintRule::L1DanglingExpr;
  GlobalId global = -1;   // -1 for program-level defects
  ExprId expr = kNoExpr;  // offending node (kNoExpr for global-level)
  std::string path;       // e.g. "body.kids[1].alts[0].body"
  std::string message;
  bool warning = false;   // warnings do not fail LintReport::clean()
};

struct LintReport {
  std::vector<LintDefect> defects;

  /// True when no non-warning defect was found.
  bool clean() const;
  std::size_t error_count() const;
  std::size_t warning_count() const;

  /// GCC-style listing, one line per defect:
  ///   unit:global:path: error[L2]: unbound variable level 7 (scope depth 3)
  std::string render(const Program& p, const std::string& unit = "program") const;
};

/// Lints every supercombinator. Works on unvalidated programs (that is
/// the point: the validator throws on the defects lint must describe)
/// and never throws on malformed input.
LintReport lint_program(const Program& p, const LintOptions& opts = {});

/// Raised by lint_or_throw (the -DL and --bytecode load-time hook):
/// carries the full report; what() is the rendered GCC-style listing.
struct LintError : ProgramError {
  LintError(LintReport r, const std::string& rendered)
      : ProgramError(rendered), report(std::move(r)) {}
  LintReport report;
};

/// Throws LintError when the default-options report recorded on a
/// validated Program (Program::lint_report) is not clean: the program is
/// linted once, and every call throws the same listing.
void lint_or_throw(const Program& p, const std::string& unit = "program");

}  // namespace ph
