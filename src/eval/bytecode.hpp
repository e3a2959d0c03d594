// Bytecode backend: lowers a linted supercombinator Program to a compact
// linear instruction stream executed by Machine::step_bytecode (bceval.cpp)
// instead of the tree-walking interpreter in eval.cpp (DESIGN.md §15).
//
// The translation is an acceleration layer over the *same* abstract
// machine: heap objects, thunk layout (ExprId bodies — Eden packing and
// kill_thread are untouched), frames, black-holing and update semantics
// are identical. One bytecode step executes a whole straight-line block
// (ending at a call, a value return or an enter), so the per-step driver
// round-trip, the per-node frame pushes and the environment copies of the
// interpreter's Case/Prim/Seq frames all disappear. Every instruction is
// individually transactional w.r.t. allocation: on OOM the step returns
// NeedGc with Code::bc_pc naming the failed instruction and no state
// mutated, so the driver can collect and retry exactly as it does for the
// interpreter.
//
// PR 5's demand masks drive a call-by-value optimisation: a provably
// strict argument whose expression is a pure arithmetic tree over atoms
// is evaluated eagerly at the call site — no thunk allocation, no later
// thunk entry, no update.
//
// Compiled units persist across runs in a CRC-framed cache file
// (--code-cache=PATH), keyed on a structural Program content hash plus
// the bytecode format version. A corrupt, truncated or stale file is
// rejected with a structured CacheError and compilation falls back to a
// fresh translation — stale code is never executed.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/program.hpp"

namespace ph::bc {

/// One linear instruction stream for the whole Program. `entries[e]` is
/// the code offset evaluating expression `e` as an activation body (to be
/// run when a thunk with that body is entered, or a global is called);
/// kNoEntry marks expressions never used as activation bodies — the
/// interpreter picks those up (the two engines share the machine state
/// model, so per-activation mixing is sound).
struct CodeBlob {
  std::vector<std::uint32_t> entries;  // indexed by ExprId
  std::vector<std::uint32_t> code;
  std::vector<std::int64_t> lits;      // literal pool (also Case tags)
  std::uint64_t prog_hash = 0;
  std::uint32_t cbv_args = 0;          // call sites compiled call-by-value
};

constexpr std::uint32_t kNoEntry = 0xffffffffu;
/// Sentinel for Code::bc_pc: no suspended bytecode position.
constexpr std::uint32_t kNoPc = 0xffffffffu;
/// Sentinel jump target for "no default alternative".
constexpr std::uint32_t kNoTarget = 0xffffffffu;

/// The instruction set. Operand words follow the opcode word; the stream
/// is validated on load (verify_blob) so the dispatch loop can trust it.
enum class Op : std::uint32_t {
  PushVar,     // +1 lvl        push env[lvl]
  PushLit,     // +1 lit idx    push machine integer (may allocate)
  PushFun,     // +1 global     push the static function value
  PushCaf,     // +1 global     push the (lazy) CAF cell
  PushCon0,    // +1 tag        push a shared nullary constructor
  MkThunk,     // +1 expr       push a thunk capturing the environment
  MkCon,       // +2 tag, n     pop n fields, push the constructor
  Force,       // +0            ensure top of stack is WHNF (suspends)
  Drop,        // +0            pop and discard
  Prim,        // +2 op, n      pop n forced ints, push the result
  Let,         // +1 n, then 2 words per binder: BindKind, operand
  CaseTop,     // +2 nalts, flags; +1 dflt target; then per alt
               //    3 words: tag lit idx, arity, target
  EnvTrim,     // +1 n          drop the n newest environment slots
  Jump,        // +1 target
  PushFrame,   // +1 resume pc  push a Bytecode continuation frame
  CallGlobal,  // +2 global, n  pop n args into a fresh env, run the body
  ApplyPush,   // +1 n          pop n args into an Apply frame
  SparkTop,    // +0            pop and spark (GpH `par`)
  RetTop,      // +0            pop v, deliver to the stack (ends step)
  EnterTop,    // +0            pop o, force to WHNF (ends step)
};

/// CaseTop flag bits.
constexpr std::uint32_t kCaseHasDefault = 1u;
constexpr std::uint32_t kCaseBindsScrut = 2u;

/// Let binder classification (mirrors the interpreter's atom() exactly,
/// decided at compile time).
enum class BindKind : std::uint32_t { Var, Lit, Fun, Caf, Con0, Thunk };

// --- cache ------------------------------------------------------------------

/// Why a cache file was rejected (tests assert on the reason). A rejected
/// file is never executed: the loader falls back to fresh compilation.
enum class CacheDefect : std::uint8_t {
  Truncated,     // shorter than its own header/body claims
  BadMagic,
  BadVersion,    // written by a different bytecode format version
  StaleProgram,  // content hash does not match the Program being run
  BadCrc,        // bit rot anywhere in the body
  BadEncoding,   // CRC-clean body fails structural verification
  Unwritable,    // --code-cache path cannot be created/written
  Io,            // short read/write on an otherwise-open file
};

const char* cache_defect_name(CacheDefect d);

struct CacheError : std::runtime_error {
  CacheError(CacheDefect defect_, const std::string& what)
      : std::runtime_error(what), defect(defect_) {}
  CacheDefect defect;
};

constexpr char kCacheMagic[4] = {'P', 'H', 'B', 'C'};
constexpr std::uint32_t kCacheVersion = 1;

/// Compiles a validated Program. Runs the demand analysis internally for
/// the call-by-value argument masks.
std::shared_ptr<const CodeBlob> compile_program(const Program& p);

/// Structural sanity of a decoded blob (opcodes valid, operands and jump
/// targets in range). Throws CacheError{BadEncoding} on violation.
void verify_blob(const CodeBlob& b, std::size_t n_globals);

/// Container encoding: magic | version | prog_hash | body_len |
/// crc32(body) | body (reuses net::crc32 — the same framing discipline as
/// the Eden wire).
std::vector<std::uint8_t> serialize_blob(const CodeBlob& b);
/// Throws CacheError on any defect; never returns a partially-decoded blob.
std::shared_ptr<const CodeBlob> deserialize_blob(const std::uint8_t* data,
                                                 std::size_t n,
                                                 std::uint64_t want_hash);

/// Returns nullptr when the file does not exist; throws CacheError on a
/// file that exists but cannot be trusted.
std::shared_ptr<const CodeBlob> load_blob_file(const std::string& path,
                                               std::uint64_t want_hash);
/// Throws CacheError{Unwritable} when the path cannot be (re)written.
void save_blob_file(const std::string& path, const CodeBlob& b);

struct CacheStats {
  std::uint64_t compiles = 0;    // fresh translations
  std::uint64_t file_loads = 0;  // blobs revived from a cache file
  std::uint64_t file_saves = 0;
  std::uint64_t rejects = 0;     // structured cache-file rejections
};

/// Process-wide registry of compiled units, keyed by program hash. A
/// phserved daemon precompiles the catalog program at start-up; the
/// forked workers inherit the registry, so per-request Machines share one
/// blob instead of recompiling. Thread-safe.
class BytecodeCache {
 public:
  /// Registry hit, else cache-file load (when `path` nonempty), else
  /// fresh compilation (persisted to `path` when nonempty). A defective
  /// cache file counts a reject and falls back to compilation; an
  /// unwritable path throws CacheError{Unwritable}.
  std::shared_ptr<const CodeBlob> get_or_compile(const Program& p,
                                                 const std::string& path);
  CacheStats stats() const;
  /// Drops every cached blob and zeroes the stats (tests simulate a fresh
  /// process this way).
  void clear();

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, std::shared_ptr<const CodeBlob>> blobs_;
  CacheStats stats_;
};

BytecodeCache& shared_cache();

}  // namespace ph::bc
