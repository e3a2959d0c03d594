// The bytecode dispatch loop: Machine::step_bytecode (DESIGN.md §15).
//
// One call runs a whole straight-line block of the compiled program — a
// sequence of pushes, allocations and primitive operations ending at a
// call, a value return or an enter — instead of the interpreter's one
// tree node. The safepoint contract of Machine::step is preserved: a
// block is one "step" (quantum accounting, the driver's alloc-debt GC
// poll and the cancel poll all sit between steps as before), and every
// instruction is individually transactional w.r.t. allocation: on OOM
// nothing has been mutated, Code::bc_pc records the failing instruction
// and the step returns NeedGc, so the driver collects and retries the
// instruction — the mid-block analogue of retrying an interpreter step.
//
// Suspension points (forcing a non-WHNF object, making a call) push a
// FrameKind::Bytecode continuation recording the resume pc, and append
// the environment and the operand stack to the thread's value stack; the
// shared Enter/Ret machinery (locking, black holes, updates, scheduling
// hooks) then runs unchanged, and a resume copies both back into the Code
// register, whose buffers keep their capacity, and pushes the returned
// WHNF onto the operand stack.
#include <cassert>

#include "eval/bytecode.hpp"
#include "eval/prim.hpp"
#include "rts/machine.hpp"
#include "rts/schedtest.hpp"

namespace ph {

namespace {

// Upper bound on blocks chained per step. Large enough that dispatch
// overhead is amortised away, small enough that a step stays a short
// bounded transaction for GC polls, cancellation and preemption.
constexpr int kBlockChainFuel = 64;

}  // namespace

StepOutcome Machine::step_bytecode(Capability& c, Tso& t) {
  const bc::CodeBlob& blob = *bytecode_;
  const std::uint32_t* code = blob.code.data();

  bool oom = false;
  auto alloc = [&](ObjKind k, std::uint16_t tag, std::uint32_t n) -> Obj* {
    if (fault_ != nullptr && fault_->fail_alloc(t.id)) {
      oom = true;
      heap_->request_gc();
      return nullptr;
    }
    Obj* o = heap_->alloc(c.id(), k, tag, n);
    if (o == nullptr) {
      oom = true;
      heap_->request_gc();
      return nullptr;
    }
    const std::uint64_t words = 1 + std::max<std::uint32_t>(1, n);
    c.alloc_debt += words;
    t.allocated_words += words;
    return o;
  };
  auto make_int = [&](std::int64_t v) -> Obj* {
    if (Obj* s = small_int(v)) return s;
    Obj* o = alloc(ObjKind::Int, 0, 1);
    if (o != nullptr) o->payload()[0] = static_cast<Word>(v);
    return o;
  };

  t.steps++;

  // Block chaining: a saturated call whose callee is compiled, and a
  // return that lands in a suspended bytecode frame, continue inside this
  // step instead of bouncing off the scheduler — the round trip (quantum
  // bookkeeping, dispatch, cancel poll) costs more than a typical block.
  // The fuel bound keeps the step a bounded transaction: GC polls, cancel
  // polls and preemption still happen at least every kBlockFuel blocks,
  // and per-instruction OOM transactionality (bc_pc + NeedGc) is
  // untouched because env/scratch live in t.code throughout the chain.
  int fuel = kBlockChainFuel;

  Env& env = t.code.env;
  Env& sk = t.code.scratch;

  std::uint32_t pc = 0;

  // Suspends the block as a Bytecode frame resuming at `resume_pc`; the
  // environment and operand stack are saved on the value stack.
  auto suspend = [&](std::uint32_t resume_pc) {
    Frame f;
    f.kind = FrameKind::Bytecode;
    f.expr = t.code.expr;
    f.aux = resume_pc;
    t.push_frame(f, env, sk.data(), static_cast<std::uint32_t>(sk.size()));
    sk.clear();
  };
  // A WHNF `v` returning into the suspended block on top of the stack:
  // restore its environment and operand stack, push `v`, continue at the
  // resume pc.
  auto resume = [&](Obj* v) {
    const Frame& f = t.stack.back();
    Obj** saved = t.top_values();
    env.assign(saved, saved + f.nenv);
    sk.assign(saved + f.nenv, saved + f.saved());
    sk.push_back(v);
    pc = static_cast<std::uint32_t>(f.aux);
    t.code.expr = f.expr;
    t.pop_frame();
    t.code.mode = CodeMode::Eval;
    t.code.ptr = nullptr;
  };

  // The shared Enter transition (eval.cpp CodeMode::Enter: yield hooks,
  // object locking, black-holing, blocking) run inline so a thunk force
  // or a generic apply doesn't cost a scheduler round trip. The caller
  // must have fully suspended the thread first (mode == Enter, ptr set,
  // continuation frames pushed) — the yield hook may park us, and
  // kill_thread assumes a between-steps thread shape. Returns Chained
  // when pc has been retargeted and the block loop should continue.
  enum class EnterAction { Chained, Return, Blocked };
  auto enter_chain = [&](Obj* entered) -> EnterAction {
    Obj* p = follow(entered);
    const ObjKind seen = kind_acquire(p);
    if (seen == ObjKind::BlackHole || seen == ObjKind::Placeholder)
      sched_hook::point(SchedPoint::BlackHoleEnter, t.id);
    else
      sched_hook::point(SchedPoint::ThunkEnter, t.id);
    // Values are entered without the lock, as in eval.cpp: a WHNF kind
    // cannot change before the next stop-the-world GC.
    if (seen == ObjKind::Int || seen == ObjKind::Con || seen == ObjKind::Pap) {
      t.code.mode = CodeMode::Ret;
      t.code.ptr = p;
      // Exactly-saturating generic apply of a bare global closure with
      // a compiled body: bind the arguments and jump, skipping the
      // Ret/Apply bounce (the shared FrameKind::Apply transition still
      // handles under/over-saturation and uncompiled bodies).
      if (seen == ObjKind::Pap && !t.stack.empty() &&
          t.stack.back().kind == FrameKind::Apply) {
        const GlobalId fun = p->pap_fun();
        const Global& g = prog_.global(fun);
        const std::uint32_t have = p->pap_nargs();
        const std::uint32_t given = t.stack.back().nvals;
        const std::uint32_t entry =
            blob.entries[static_cast<std::size_t>(g.body)];
        if (have + given == static_cast<std::uint32_t>(g.arity) &&
            entry != bc::kNoEntry) {
          Obj** args = t.top_values();
          env.assign(p->ptr_payload() + 1, p->ptr_payload() + 1 + have);
          env.insert(env.end(), args, args + given);
          t.pop_frame();
          t.code.mode = CodeMode::Eval;
          t.code.expr = g.body;
          t.code.ptr = nullptr;
          pc = entry;
          return EnterAction::Chained;
        }
      }
      // A value returning into a suspended bytecode block: restore it.
      if (!t.stack.empty() &&
          t.stack.back().kind == FrameKind::Bytecode) {
        resume(p);
        return EnterAction::Chained;
      }
      return EnterAction::Return;
    }
    auto lk = lock_obj(p);
    switch (p->kind) {
      case ObjKind::Thunk: {
        const ExprId body = p->thunk_expr();
        Frame uf;
        uf.kind = FrameKind::Update;
        uf.obj = p;
        uf.expr = body;  // black-holing overwrites it in the object
        t.stack.push_back(uf);
        if (cfg_.blackhole == BlackholePolicy::Eager) {
          p->payload()[0] = kNoQueue;
          set_kind_release(p, ObjKind::BlackHole);
        }
        t.code.mode = CodeMode::Eval;
        t.code.expr = body;
        env.assign(p->ptr_payload() + 1, p->ptr_payload() + p->size);
        t.code.ptr = nullptr;
        const std::uint32_t entry =
            blob.entries[static_cast<std::size_t>(body)];
        if (entry != bc::kNoEntry) {
          pc = entry;  // chain straight into the compiled thunk body
          return EnterAction::Chained;
        }
        return EnterAction::Return;  // interpreter body: next step runs it
      }
      case ObjKind::BlackHole:
      case ObjKind::Placeholder:
        t.code.ptr = p;
        block_on(p, t);
        return EnterAction::Blocked;
      case ObjKind::Ind:
        // Raced with an update after follow(): retry next step.
        t.code.ptr = p;
        return EnterAction::Return;
      case ObjKind::Int:  // values were handled above
      case ObjKind::Con:
      case ObjKind::Pap:
      case ObjKind::Fwd:
        break;
    }
    throw EvalError("entered a corrupt heap object");
  };

  if (t.code.mode == CodeMode::Ret) {
    assert(t.stack.back().kind == FrameKind::Bytecode);
    resume(t.code.ptr);
  } else if (t.code.bc_pc != kNoBytecodePc) {
    pc = t.code.bc_pc;  // NeedGc retry of one instruction
    t.code.bc_pc = kNoBytecodePc;
  } else {
    pc = blob.entries[static_cast<std::size_t>(t.code.expr)];
  }

  for (;;) {
    const std::uint32_t at = pc;
    const auto op = static_cast<bc::Op>(code[pc++]);
    switch (op) {
      case bc::Op::PushVar:
        sk.push_back(env[code[pc]]);
        pc += 1;
        continue;

      case bc::Op::PushLit: {
        Obj* v = make_int(blob.lits[code[pc]]);
        if (oom) {
          t.code.bc_pc = at;
          return StepOutcome::NeedGc;
        }
        sk.push_back(v);
        pc += 1;
        continue;
      }

      case bc::Op::PushFun:
        sk.push_back(static_fun(static_cast<GlobalId>(code[pc])));
        pc += 1;
        continue;

      case bc::Op::PushCaf:
        sk.push_back(caf_cell(static_cast<GlobalId>(code[pc])));
        pc += 1;
        continue;

      case bc::Op::PushCon0: {
        Obj* s = static_con(static_cast<std::uint16_t>(code[pc]));
        if (s == nullptr) {
          s = alloc(ObjKind::Con, static_cast<std::uint16_t>(code[pc]), 0);
          if (oom) {
            t.code.bc_pc = at;
            return StepOutcome::NeedGc;
          }
        }
        sk.push_back(s);
        pc += 1;
        continue;
      }

      case bc::Op::MkThunk: {
        Obj* o = alloc(ObjKind::Thunk, 0, static_cast<std::uint32_t>(1 + env.size()));
        if (oom) {
          t.code.bc_pc = at;
          return StepOutcome::NeedGc;
        }
        o->payload()[0] = static_cast<Word>(code[pc]);
        for (std::size_t i = 0; i < env.size(); ++i) o->ptr_payload()[1 + i] = env[i];
        sk.push_back(o);
        pc += 1;
        continue;
      }

      case bc::Op::MkCon: {
        const auto tag = static_cast<std::uint16_t>(code[pc]);
        const std::uint32_t n = code[pc + 1];
        Obj* v = alloc(ObjKind::Con, tag, n);
        if (oom) {
          t.code.bc_pc = at;
          return StepOutcome::NeedGc;
        }
        for (std::uint32_t i = 0; i < n; ++i)
          v->ptr_payload()[i] = sk[sk.size() - n + i];
        sk.resize(sk.size() - n);
        sk.push_back(v);
        pc += 2;
        continue;
      }

      case bc::Op::Force: {
        Obj* v = follow(sk.back());
        if (is_whnf_acquire(v)) {
          sk.back() = v;
          continue;
        }
        // Suspend the block first — the thread must look exactly like an
        // interpreter thread parked at an Enter(v) step before the yield
        // hook below can run (a scenario controller may park us here, and
        // kill_thread unwinds threads from between-step states).
        sk.pop_back();
        suspend(pc);
        env.clear();
        t.code.mode = CodeMode::Enter;
        t.code.ptr = v;
        if (--fuel <= 0) return StepOutcome::Ok;
        switch (enter_chain(v)) {
          case EnterAction::Chained: continue;
          case EnterAction::Return: return StepOutcome::Ok;
          case EnterAction::Blocked: return StepOutcome::Blocked;
        }
        continue;
      }

      case bc::Op::Drop:
        sk.pop_back();
        continue;

      case bc::Op::Prim: {
        const auto pop = static_cast<PrimOp>(code[pc]);
        const std::uint32_t n = code[pc + 1];
        for (std::uint32_t i = 0; i < n; ++i)
          if (sk[sk.size() - n + i]->kind != ObjKind::Int)
            throw EvalError(std::string("non-integer operand for ") + prim_op_name(pop));
        const std::int64_t y = sk.back()->int_value();
        const std::int64_t x = n >= 2 ? sk[sk.size() - n]->int_value() : 0;
        const PrimResult pr = apply_prim(pop, x, y);
        Obj* r = pr.is_bool ? static_con(static_cast<std::uint16_t>(pr.value))
                            : make_int(pr.value);
        if (oom) {
          t.code.bc_pc = at;
          return StepOutcome::NeedGc;
        }
        sk.resize(sk.size() - n);
        sk.push_back(r);
        pc += 2;
        continue;
      }

      case bc::Op::Let: {
        const std::uint32_t n = code[pc];
        const std::size_t base = env.size();
        const std::size_t new_size = base + n;
        // The interpreter's two-pass letrec: all allocation happens in
        // pass 1 (any failure leaves env untouched); pass 2 extends the
        // environment and ties the recursive knots. Small binder groups
        // (all real programs) stay off the C++ heap.
        constexpr std::uint32_t kInlineBinders = 16;
        Obj* binders_buf[kInlineBinders];
        char thunk_buf[kInlineBinders] = {};
        std::vector<Obj*> binders_vec;
        std::vector<char> thunk_vec;
        Obj** binders = binders_buf;
        char* is_thunk = thunk_buf;
        if (n > kInlineBinders) {
          binders_vec.assign(n, nullptr);
          thunk_vec.assign(n, 0);
          binders = binders_vec.data();
          is_thunk = thunk_vec.data();
        }
        for (std::uint32_t i = 0; i < n; ++i) {
          const auto kind = static_cast<bc::BindKind>(code[pc + 1 + 2 * i]);
          const std::uint32_t a = code[pc + 2 + 2 * i];
          switch (kind) {
            case bc::BindKind::Var:
              binders[i] = env[a];
              break;
            case bc::BindKind::Lit:
              binders[i] = make_int(blob.lits[a]);
              break;
            case bc::BindKind::Fun:
              binders[i] = static_fun(static_cast<GlobalId>(a));
              break;
            case bc::BindKind::Caf:
              binders[i] = caf_cell(static_cast<GlobalId>(a));
              break;
            case bc::BindKind::Con0: {
              Obj* s = static_con(static_cast<std::uint16_t>(a));
              if (s == nullptr)
                s = alloc(ObjKind::Con, static_cast<std::uint16_t>(a), 0);
              binders[i] = s;
              break;
            }
            case bc::BindKind::Thunk: {
              Obj* th = alloc(ObjKind::Thunk, 0,
                              static_cast<std::uint32_t>(1 + new_size));
              if (th != nullptr) th->payload()[0] = static_cast<Word>(a);
              binders[i] = th;
              is_thunk[i] = true;
              break;
            }
          }
          if (oom) {
            t.code.bc_pc = at;
            return StepOutcome::NeedGc;
          }
        }
        env.resize(new_size);
        for (std::uint32_t i = 0; i < n; ++i) env[base + i] = binders[i];
        for (std::uint32_t i = 0; i < n; ++i) {
          if (!is_thunk[i]) continue;
          for (std::size_t j = 0; j < new_size; ++j)
            binders[i]->ptr_payload()[1 + j] = env[j];
        }
        pc += 1 + 2 * n;
        continue;
      }

      case bc::Op::CaseTop: {
        const std::uint32_t nalts = code[pc];
        const std::uint32_t flags = code[pc + 1];
        const std::uint32_t dflt = code[pc + 2];
        const std::uint32_t* alts = code + pc + 3;
        Obj* v = sk.back();
        sk.pop_back();
        const std::uint32_t* chosen = nullptr;
        if (v->kind == ObjKind::Con) {
          for (std::uint32_t i = 0; i < nalts; ++i)
            if (blob.lits[alts[3 * i]] == v->tag) {
              chosen = alts + 3 * i;
              break;
            }
        } else if (v->kind == ObjKind::Int) {
          const std::int64_t val = v->int_value();
          for (std::uint32_t i = 0; i < nalts; ++i)
            if (alts[3 * i + 1] == 0 && blob.lits[alts[3 * i]] == val) {
              chosen = alts + 3 * i;
              break;
            }
        } else {
          throw EvalError("case scrutinee is not a constructor or integer");
        }
        if (chosen != nullptr) {
          const std::uint32_t arity = chosen[1];
          if (v->kind == ObjKind::Con && arity != v->size)
            throw EvalError("constructor arity mismatch in case alternative");
          for (std::uint32_t i = 0; i < arity; ++i)
            env.push_back(v->ptr_payload()[i]);
          pc = chosen[2];
          continue;
        }
        if (dflt != bc::kNoTarget) {
          if ((flags & bc::kCaseBindsScrut) != 0) env.push_back(v);
          pc = dflt;
          continue;
        }
        throw EvalError("pattern-match failure (no alternative matched)");
      }

      case bc::Op::EnvTrim:
        env.resize(env.size() - code[pc]);
        pc += 1;
        continue;

      case bc::Op::Jump:
        pc = code[pc];
        continue;

      case bc::Op::PushFrame:
        suspend(code[pc]);  // the block keeps using env for the arguments
        pc += 1;
        continue;


      case bc::Op::CallGlobal: {
        const Global& gl = prog_.global(static_cast<GlobalId>(code[pc]));
        const std::uint32_t n = code[pc + 1];
        env.assign(sk.end() - n, sk.end());
        sk.resize(sk.size() - n);
        assert(sk.empty());
        t.code.mode = CodeMode::Eval;
        t.code.expr = gl.body;
        t.code.ptr = nullptr;
        const std::uint32_t entry =
            blob.entries[static_cast<std::size_t>(gl.body)];
        if (entry != bc::kNoEntry && --fuel > 0) {
          pc = entry;  // chain straight into the callee's compiled body
          continue;
        }
        return StepOutcome::Ok;
      }

      case bc::Op::ApplyPush: {
        const std::uint32_t n = code[pc];
        Frame f;
        f.kind = FrameKind::Apply;
        t.push_frame(f, {}, sk.data() + (sk.size() - n), n);
        sk.resize(sk.size() - n);
        pc += 1;
        continue;
      }

      case bc::Op::SparkTop:
        c.spark(sk.back());
        sk.pop_back();
        continue;

      case bc::Op::RetTop: {
        Obj* v = sk.back();
        sk.pop_back();
        assert(sk.empty());
        // Pop update frames here (same update() the shared Ret transition
        // calls: indirection write, wake queue drain) so each completed
        // thunk doesn't cost one scheduler round trip per frame.
        while (!t.stack.empty() &&
               t.stack.back().kind == FrameKind::Update && --fuel > 0) {
          update(c, t.stack.back().obj, v);
          t.pop_frame();
        }
        if (!t.stack.empty() &&
            t.stack.back().kind == FrameKind::Bytecode && --fuel > 0) {
          // Returning into a suspended bytecode block: same restore as the
          // CodeMode::Ret entry path above, chained without a scheduler
          // round trip. Update/Case/Apply frames still take the shared
          // Ret machinery (thunk updates, black-hole wakeups).
          resume(v);
          continue;
        }
        t.code.mode = CodeMode::Ret;
        t.code.ptr = v;
        env.clear();
        return StepOutcome::Ok;
      }

      case bc::Op::EnterTop: {
        Obj* o = sk.back();
        sk.pop_back();
        assert(sk.empty());
        t.code.mode = CodeMode::Enter;
        t.code.ptr = o;
        env.clear();
        if (--fuel <= 0) return StepOutcome::Ok;
        switch (enter_chain(o)) {
          case EnterAction::Chained: continue;
          case EnterAction::Return: return StepOutcome::Ok;
          case EnterAction::Blocked: return StepOutcome::Blocked;
        }
        return StepOutcome::Ok;
      }
    }
    throw EvalError("corrupt bytecode instruction");
  }
}

}  // namespace ph
