// Thread State Objects (TSOs): the lightweight Haskell threads of the
// runtime. A TSO is a suspendable graph-reduction in progress: a `Code`
// register saying what to do next plus a stack of continuation frames.
//
// TSOs are scheduled cooperatively by capabilities; they suspend at safe
// points (quantum expiry, GC barrier, blocking on a black hole or an Eden
// placeholder) and can be resumed by any capability.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "core/ir.hpp"
#include "heap/object.hpp"

namespace ph {

class Machine;
class Capability;
struct Tso;
struct Frame;

/// What a native frame handler did (see FrameKind::Native).
enum class NativeAction : std::uint8_t {
  Done,  // pop the frame; the returned value continues to the next frame
  Retry  // the handler rearranged code/stack itself; just keep stepping
};

/// Handler for FrameKind::Native, called when a WHNF value `v` is
/// returned to the frame at `frame_idx` of `t`'s stack. Used by the Eden
/// layer to implement communication threads (normal-form-and-send, stream
/// senders, tuple-component splitting) without the evaluator knowing
/// anything about message passing. Handlers may mutate the frame, push
/// further frames and set the thread's code register.
using NativeFn = NativeAction (*)(Machine&, Capability&, Tso&, std::size_t frame_idx,
                                  Obj* v);

using ThreadId = std::uint32_t;
constexpr ThreadId kNoThread = ~ThreadId{0};

/// Environments map de Bruijn levels to heap values. The Code register's
/// environment keeps its capacity from step to step; a frame that needs
/// an environment later saves a copy on its thread's value stack
/// (Tso::vstack), so frames own no heap memory.
using Env = std::vector<Obj*>;

enum class CodeMode : std::uint8_t {
  Eval,  // evaluate expr under env
  Enter, // force heap object ptr to WHNF
  Ret    // deliver WHNF ptr to the top stack frame
};

/// Sentinel for Code::bc_pc: the activation has no suspended bytecode
/// position (equals bc::kNoPc).
constexpr std::uint32_t kNoBytecodePc = 0xffffffffu;

struct Code {
  CodeMode mode = CodeMode::Ret;
  ExprId expr = kNoExpr;
  Env env;
  Obj* ptr = nullptr;
  /// Bytecode engine only: instruction to retry after a NeedGc inside a
  /// block (kNoBytecodePc when not suspended mid-block).
  std::uint32_t bc_pc = kNoBytecodePc;
  /// Bytecode engine only: the operand stack of the current block. A GC
  /// root like env; empty whenever the thread is outside the bytecode
  /// dispatch loop (a suspended block's operands sit on the value stack).
  Env scratch;

  /// Back to the default register, keeping env's and scratch's capacity.
  void reset() {
    mode = CodeMode::Ret;
    expr = kNoExpr;
    env.clear();
    ptr = nullptr;
    bc_pc = kNoBytecodePc;
    scratch.clear();
  }
};

/// Where each kind keeps its state. "Saves" names the values the frame
/// keeps on the value stack: `nenv` environment slots, then `nvals` more.
enum class FrameKind : std::uint8_t {
  Case,        // expr = Case node; saves its env: scrutinise the returned WHNF
  Update,      // obj = thunk/black hole to update with the returned value
  Apply,       // saves the pending arguments (nvals) for the returned function
  Prim,        // expr = Prim node, idx = next kid; saves its env, then the
               // operands already evaluated (nvals)
  Seq,         // expr = continuation body; saves its env
  ForceDeep,   // deep (normal-form) forcing: obj = Con being traversed or
               // nullptr while awaiting the root WHNF; idx = next field
  Native,      // native = handler, aux = handler state (e.g. an outport),
               // obj = a value the handler keeps (a stream sender's tail)
  Bytecode     // suspended bytecode block: aux = resume pc, expr = the
               // activation's root expression (diagnostics/kill only);
               // saves the block's env, then its operand stack (nvals)
};

/// A continuation frame. Frames own no heap memory: the values a frame
/// saves sit on its thread's value stack (Tso::vstack), and they are the
/// top `saved()` slots of it whenever the frame is the top frame.
struct Frame {
  FrameKind kind;
  ExprId expr = kNoExpr;
  Obj* obj = nullptr;
  std::uint32_t idx = 0;
  std::uint32_t nenv = 0;   // saved environment slots
  std::uint32_t nvals = 0;  // saved slots after the environment
  std::uint64_t aux = 0;
  NativeFn native = nullptr;

  std::uint32_t saved() const { return nenv + nvals; }
};
static_assert(std::is_trivially_copyable_v<Frame>);

enum class ThreadState : std::uint8_t {
  Runnable,
  Running,
  BlockedOnBlackHole,
  BlockedOnPlaceholder,
  Finished
};

struct Tso {
  ThreadId id = kNoThread;
  ThreadState state = ThreadState::Runnable;
  std::uint32_t home_cap = 0;  // capability whose run queue owns this TSO
  bool is_spark_thread = false;

  Code code;
  std::vector<Frame> stack;
  /// The values the frames on `stack` save, bottom frame first, so the
  /// counts the frames record sum to its size. It keeps its capacity:
  /// once a thread has warmed up, suspending and resuming a frame never
  /// calls the C++ allocator.
  std::vector<Obj*> vstack;
  Obj* result = nullptr;  // valid once state == Finished
  /// Set by Machine::kill_thread when the thread was unwound instead of
  /// finishing normally (e.g. "heap overflow"); static-lifetime string.
  const char* error = nullptr;

  /// Virtual time before which the thread must not be scheduled (used by
  /// the Eden driver to model process-instantiation latency).
  std::uint64_t start_time = 0;

  // statistics
  std::uint64_t steps = 0;
  std::uint64_t allocated_words = 0;

  /// The values the top frame saved: its environment, then the rest.
  Obj** top_values() { return vstack.data() + (vstack.size() - stack.back().saved()); }
  /// Pushes a frame that saves `env` followed by the `nvals` values at `vals`.
  void push_frame(Frame f, const Env& env, Obj* const* vals = nullptr,
                  std::uint32_t nvals = 0) {
    vstack.insert(vstack.end(), env.begin(), env.end());
    vstack.insert(vstack.end(), vals, vals + nvals);
    f.nenv = static_cast<std::uint32_t>(env.size());
    f.nvals = nvals;
    stack.push_back(f);
  }
  /// Pops the top frame together with the values it saved.
  void pop_frame() {
    vstack.resize(vstack.size() - stack.back().saved());
    stack.pop_back();
  }
  /// Drops every frame and saved value, keeping the buffers' capacity.
  void clear_stack() {
    stack.clear();
    vstack.clear();
  }
};

}  // namespace ph
