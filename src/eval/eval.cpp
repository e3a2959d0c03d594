// The abstract graph-reduction machine: Machine::step.
//
// A lazy, spineless evaluation machine in the STG tradition. Each call
// performs one small-step transition of a TSO and is *transactional with
// respect to allocation*: if the nursery is full the step returns
// StepOutcome::NeedGc having mutated nothing, so the driver can run the
// stop-the-world collection and retry the very same step.
//
// Laziness, sharing, updates and black holes are implemented exactly as
// the paper discusses them:
//  * thunk entry pushes an Update frame; the thunk is black-holed either
//    eagerly (on entry) or lazily (when the thread is next suspended),
//    per RtsConfig::blackhole (§IV.A.3);
//  * a thread entering a black hole blocks on its wait queue;
//  * an update finding an indirection means the evaluation was duplicated
//    (possible under lazy black-holing) — counted, and the result dropped.
//
// A step builds its temporaries in place, in the thread's Code register
// and on its value stack (Tso::vstack), and truncates them again before
// returning NeedGc. Once those buffers have grown to the program's needs,
// pushing and popping frames and building temporaries allocate no C++
// heap memory.
#include <cassert>

#include "eval/bytecode.hpp"
#include "eval/prim.hpp"
#include "rts/machine.hpp"
#include "rts/schedtest.hpp"

namespace ph {

StepOutcome Machine::step(Capability& c, Tso& t) {
  // Cooperative cancellation: throttled so an unarmed machine pays one
  // branch. Must run before any mutation — kill_thread unwinds a thread
  // that is between steps, and returning Finished here is safe because
  // every driver already handles a thread that finished with
  // result == nullptr and `error` set (the HeapOverflow path).
  if (cancel_ && ++cancel_tick_ >= kCancelPollSteps) {
    cancel_tick_ = 0;
    if (const char* why = cancel_(t)) {
      kill_thread(c, t, why);
      return StepOutcome::Finished;
    }
  }
  // Compiled-code dispatch: an Eval of an activation the translator
  // covered (or a resume after NeedGc mid-block), and a value returning
  // to a suspended bytecode block. Everything else — Enter, interpreter
  // frames, uncovered expressions — runs below; the engines interleave
  // freely because they share the machine state model.
  if (bytecode_ != nullptr) {
    if ((t.code.mode == CodeMode::Eval &&
         (t.code.bc_pc != kNoBytecodePc ||
          bytecode_->entries[static_cast<std::size_t>(t.code.expr)] !=
              bc::kNoEntry)) ||
        (t.code.mode == CodeMode::Ret && !t.stack.empty() &&
         t.stack.back().kind == FrameKind::Bytecode))
      return step_bytecode(c, t);
  }
  bool oom = false;
  auto alloc = [&](ObjKind k, std::uint16_t tag, std::uint32_t n) -> Obj* {
    if (fault_ != nullptr && fault_->fail_alloc(t.id)) {
      // Injected allocation failure: behaves exactly like a full nursery,
      // so the step stays transactional and the driver escalates normally.
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
  // Atomic expressions evaluate without building a thunk. `env_limit`
  // guards letrec: a Var naming a not-yet-bound sibling binder is not
  // atomic.
  auto is_atom = [&](ExprId eid, std::size_t env_limit) -> bool {
    const Expr& e = prog_.expr(eid);
    switch (e.tag) {
      case ExprTag::Var:
        return static_cast<std::size_t>(e.a) < env_limit;
      case ExprTag::Lit:
      case ExprTag::Global:
        return true;
      case ExprTag::Con:
        return e.kids.empty() && static_con(static_cast<std::uint16_t>(e.a)) != nullptr;
      default:
        return false;
    }
  };
  // The value of an atom, or nullptr for a non-atom.
  auto atom = [&](ExprId eid, const Env& env, std::size_t env_limit) -> Obj* {
    if (!is_atom(eid, env_limit)) return nullptr;
    const Expr& e = prog_.expr(eid);
    switch (e.tag) {
      case ExprTag::Var:
        return env[static_cast<std::size_t>(e.a)];
      case ExprTag::Lit:
        return make_int(e.lit);  // may set oom
      case ExprTag::Global: {
        const Global& g = prog_.global(e.a);
        return g.arity > 0 ? static_fun(e.a) : caf_cell(e.a);
      }
      default:  // a nullary constructor with a static instance
        return static_con(static_cast<std::uint16_t>(e.a));
    }
  };
  auto make_thunk = [&](ExprId eid, const Env& env) -> Obj* {
    Obj* o = alloc(ObjKind::Thunk, 0, static_cast<std::uint32_t>(1 + env.size()));
    if (o == nullptr) return nullptr;
    o->payload()[0] = static_cast<Word>(eid);
    for (std::size_t i = 0; i < env.size(); ++i) o->ptr_payload()[1 + i] = env[i];
    return o;
  };
  // Builds the object for an argument/field expression: atom or thunk.
  auto arg_obj = [&](ExprId eid, const Env& env) -> Obj* {
    if (Obj* a = atom(eid, env, env.size())) return a;
    if (oom) return nullptr;
    return make_thunk(eid, env);
  };

  t.steps++;

  switch (t.code.mode) {
    // =====================================================================
    case CodeMode::Eval: {
      const Expr& e = prog_.expr(t.code.expr);
      switch (e.tag) {
        case ExprTag::Var: {
          Obj* p = t.code.env[static_cast<std::size_t>(e.a)];
          t.code.mode = CodeMode::Enter;
          t.code.ptr = p;
          t.code.env.clear();
          return StepOutcome::Ok;
        }
        case ExprTag::Global: {
          const Global& g = prog_.global(e.a);
          if (g.arity > 0) {
            t.code.mode = CodeMode::Ret;
            t.code.ptr = static_fun(e.a);
          } else {
            t.code.mode = CodeMode::Enter;
            t.code.ptr = caf_cell(e.a);
          }
          t.code.env.clear();
          return StepOutcome::Ok;
        }
        case ExprTag::Lit: {
          Obj* v = make_int(e.lit);
          if (oom) return StepOutcome::NeedGc;
          t.code.mode = CodeMode::Ret;
          t.code.ptr = v;
          t.code.env.clear();
          return StepOutcome::Ok;
        }
        case ExprTag::App: {
          // The arguments go straight onto the value stack as the Apply
          // frame's saved values.
          const std::size_t base = t.vstack.size();
          for (std::size_t i = 1; i < e.kids.size(); ++i) {
            Obj* a = arg_obj(e.kids[i], t.code.env);
            if (oom) {
              t.vstack.resize(base);
              return StepOutcome::NeedGc;
            }
            t.vstack.push_back(a);
          }
          Frame f;
          f.kind = FrameKind::Apply;
          f.nvals = static_cast<std::uint32_t>(e.kids.size() - 1);
          t.stack.push_back(f);
          t.code.expr = e.kids[0];  // evaluate the function (env unchanged)
          return StepOutcome::Ok;
        }
        case ExprTag::Let: {
          const std::size_t n = e.kids.size() - 1;
          Env& env = t.code.env;
          const std::size_t base = env.size();
          const std::size_t new_size = base + n;
          // Pass 1: create binder objects straight into the extended
          // environment (truncated again if an allocation fails). Atoms
          // (w.r.t. the outer scope) bind directly; everything else gets
          // a thunk whose environment will include all the letrec binders.
          for (std::size_t i = 0; i < n; ++i) {
            Obj* b = atom(e.kids[i], env, base);
            if (b == nullptr && !oom) {
              b = alloc(ObjKind::Thunk, 0, static_cast<std::uint32_t>(1 + new_size));
              if (b != nullptr) b->payload()[0] = static_cast<Word>(e.kids[i]);
            }
            if (oom) {
              env.resize(base);
              return StepOutcome::NeedGc;
            }
            env.push_back(b);
          }
          // Pass 2 (no allocation): tie the recursive knots. A binder is a
          // thunk of this Let exactly when its expression is no atom.
          for (std::size_t i = 0; i < n; ++i) {
            if (is_atom(e.kids[i], base)) continue;
            Obj* th = env[base + i];
            for (std::size_t j = 0; j < new_size; ++j) th->ptr_payload()[1 + j] = env[j];
          }
          t.code.expr = e.kids[n];
          return StepOutcome::Ok;
        }
        case ExprTag::Case: {
          Frame f;
          f.kind = FrameKind::Case;
          f.expr = t.code.expr;
          t.push_frame(f, t.code.env);  // a copy: the scrutinee consumes code.env
          t.code.expr = e.kids[0];
          return StepOutcome::Ok;
        }
        case ExprTag::Con: {
          if (e.kids.empty()) {
            Obj* s = static_con(static_cast<std::uint16_t>(e.a));
            Obj* v = s != nullptr ? s : alloc(ObjKind::Con, static_cast<std::uint16_t>(e.a), 0);
            if (oom) return StepOutcome::NeedGc;
            t.code.mode = CodeMode::Ret;
            t.code.ptr = v;
            t.code.env.clear();
            return StepOutcome::Ok;
          }
          // The fields are built on top of the value stack, then copied
          // into the constructor, which is allocated last.
          const std::size_t base = t.vstack.size();
          for (ExprId k : e.kids) {
            Obj* a = arg_obj(k, t.code.env);
            if (oom) break;
            t.vstack.push_back(a);
          }
          Obj* v = nullptr;
          if (!oom)
            v = alloc(ObjKind::Con, static_cast<std::uint16_t>(e.a),
                      static_cast<std::uint32_t>(e.kids.size()));
          if (oom) {
            t.vstack.resize(base);
            return StepOutcome::NeedGc;
          }
          for (std::size_t i = 0; i < e.kids.size(); ++i) v->ptr_payload()[i] = t.vstack[base + i];
          t.vstack.resize(base);
          t.code.mode = CodeMode::Ret;
          t.code.ptr = v;
          t.code.env.clear();
          return StepOutcome::Ok;
        }
        case ExprTag::Prim: {
          Frame f;
          f.kind = FrameKind::Prim;
          f.expr = t.code.expr;
          f.idx = 1;  // next operand to evaluate after kids[0]
          t.push_frame(f, t.code.env);
          t.code.expr = e.kids[0];
          return StepOutcome::Ok;
        }
        case ExprTag::Par: {
          // `par`: record the first operand as a spark (a closure that
          // *could* be evaluated in parallel), continue with the second.
          Obj* sp = arg_obj(e.kids[0], t.code.env);
          if (oom) return StepOutcome::NeedGc;
          c.spark(sp);
          t.code.expr = e.kids[1];
          return StepOutcome::Ok;
        }
        case ExprTag::Seq: {
          Frame f;
          f.kind = FrameKind::Seq;
          f.expr = e.kids[1];
          t.push_frame(f, t.code.env);
          t.code.expr = e.kids[0];
          return StepOutcome::Ok;
        }
      }
      throw EvalError("corrupt expression tag");
    }

    // =====================================================================
    case CodeMode::Enter: {
      Obj* p = follow(t.code.ptr);
      const ObjKind seen = kind_acquire(p);
      // Yield points in the entry window: between observing the object and
      // locking it, another thread may enter/update/black-hole the same
      // thunk (the duplicate-work race of §IV.A.3), or update the black
      // hole we are about to block on. Both hooks sit BEFORE lock_obj —
      // a serialised scenario thread must never park holding a stripe
      // lock, or the schedule controller could grant a thread that then
      // blocks on that lock outside the controller's sight.
      if (seen == ObjKind::BlackHole || seen == ObjKind::Placeholder)
        sched_hook::point(SchedPoint::BlackHoleEnter, t.id);
      else
        sched_hook::point(SchedPoint::ThunkEnter, t.id);
      // A value is entered without the lock: Int/Con/Pap never change
      // kind before the next stop-the-world GC, and no other kind becomes
      // one (updates leave an Ind), so the kind seen above still holds.
      if (seen == ObjKind::Int || seen == ObjKind::Con || seen == ObjKind::Pap) {
        t.code.mode = CodeMode::Ret;
        t.code.ptr = p;
        return StepOutcome::Ok;
      }
      // Serialise the entry transition against concurrent updates /
      // black-holing when a threaded driver is active (no-op otherwise);
      // the kind may have changed between follow() and acquiring the lock,
      // so the dispatch below re-reads it under the lock.
      auto lk = lock_obj(p);
      switch (p->kind) {
        case ObjKind::Thunk: {
          const ExprId body = p->thunk_expr();
          Frame f;
          f.kind = FrameKind::Update;
          f.obj = p;
          // Record the body in the frame: black-holing overwrites it in the
          // object, and kill_thread needs it to restore the thunk.
          f.expr = body;
          t.stack.push_back(f);
          if (cfg_.blackhole == BlackholePolicy::Eager) {
            p->payload()[0] = kNoQueue;
            set_kind_release(p, ObjKind::BlackHole);
          }
          t.code.mode = CodeMode::Eval;
          t.code.expr = body;
          t.code.env.assign(p->ptr_payload() + 1, p->ptr_payload() + p->size);
          t.code.ptr = nullptr;
          return StepOutcome::Ok;
        }
        case ObjKind::BlackHole:
        case ObjKind::Placeholder:
          // Leave code as Enter(p): when woken the object will have been
          // updated with an indirection to the value and entry retries.
          t.code.ptr = p;
          block_on(p, t);
          return StepOutcome::Blocked;
        case ObjKind::Ind:
          // Raced with an update after follow(): retry next step.
          t.code.ptr = p;
          return StepOutcome::Ok;
        case ObjKind::Int:  // values were handled above
        case ObjKind::Con:
        case ObjKind::Pap:
        case ObjKind::Fwd:
          break;
      }
      throw EvalError("entered a corrupt heap object");
    }

    // =====================================================================
    case CodeMode::Ret: {
      Obj* v = t.code.ptr;
      if (t.stack.empty()) {
        t.state = ThreadState::Finished;
        t.result = v;
        return StepOutcome::Finished;
      }
      Frame& f = t.stack.back();
      switch (f.kind) {
        case FrameKind::Update: {
          update(c, f.obj, v);
          t.pop_frame();
          return StepOutcome::Ok;  // still Ret(v), next frame next step
        }
        case FrameKind::Case: {
          const Expr& e = prog_.expr(f.expr);
          const Alt* chosen = nullptr;
          if (v->kind == ObjKind::Con) {
            for (const Alt& a : e.alts)
              if (a.tag == v->tag) {
                chosen = &a;
                break;
              }
          } else if (v->kind == ObjKind::Int) {
            for (const Alt& a : e.alts)
              if (a.arity == 0 && a.tag == v->int_value()) {
                chosen = &a;
                break;
              }
          } else {
            throw EvalError("case scrutinee is not a constructor or integer");
          }
          if (chosen == nullptr && e.dflt == kNoExpr)
            throw EvalError("pattern-match failure (no alternative matched)");
          if (chosen != nullptr && v->kind == ObjKind::Con &&
              chosen->arity != static_cast<std::int32_t>(v->size))
            throw EvalError("constructor arity mismatch in case alternative");
          Env& env = t.code.env;
          Obj** saved = t.top_values();
          env.assign(saved, saved + f.nenv);
          t.code.mode = CodeMode::Eval;
          t.code.ptr = nullptr;
          if (chosen != nullptr) {
            for (std::int32_t i = 0; i < chosen->arity; ++i)
              env.push_back(v->ptr_payload()[i]);
            t.code.expr = chosen->body;
          } else {
            if (e.a != 0) env.push_back(v);  // default binds the scrutinee
            t.code.expr = e.dflt;
          }
          t.pop_frame();
          return StepOutcome::Ok;
        }
        case FrameKind::Apply: {
          if (v->kind != ObjKind::Pap)
            throw EvalError("application of a non-function value");
          const GlobalId fun = v->pap_fun();
          const Global& g = prog_.global(fun);
          const std::uint32_t have = v->pap_nargs();
          const std::uint32_t given = f.nvals;
          const std::uint32_t arity = static_cast<std::uint32_t>(g.arity);
          const std::uint32_t total = have + given;
          Obj** args = t.top_values();
          if (total < arity) {
            Obj* pap = alloc(ObjKind::Pap, 0, 1 + total);
            if (oom) return StepOutcome::NeedGc;
            pap->payload()[0] = static_cast<Word>(fun);
            for (std::uint32_t i = 0; i < have; ++i)
              pap->ptr_payload()[1 + i] = v->ptr_payload()[1 + i];
            for (std::uint32_t i = 0; i < given; ++i)
              pap->ptr_payload()[1 + have + i] = args[i];
            t.pop_frame();
            t.code.ptr = pap;  // still Ret
            return StepOutcome::Ok;
          }
          const std::uint32_t consumed = arity - have;
          Env& env = t.code.env;
          env.assign(v->ptr_payload() + 1, v->ptr_payload() + 1 + have);
          env.insert(env.end(), args, args + consumed);
          if (total == arity) {
            t.pop_frame();
          } else {
            // Over-application: keep the frame with the leftover args.
            t.vstack.erase(t.vstack.end() - given, t.vstack.end() - given + consumed);
            f.nvals -= consumed;
          }
          t.code.mode = CodeMode::Eval;
          t.code.expr = g.body;
          t.code.ptr = nullptr;
          return StepOutcome::Ok;
        }
        case FrameKind::Prim: {
          const Expr& e = prog_.expr(f.expr);
          const auto op = static_cast<PrimOp>(e.a);
          if (v->kind != ObjKind::Int)
            throw EvalError(std::string("non-integer operand for ") + prim_op_name(op));
          if (f.nvals + 1 < e.kids.size()) {
            // More operands to evaluate, each under the saved environment.
            t.vstack.push_back(v);
            f.nvals++;
            Obj** saved = t.top_values();
            t.code.mode = CodeMode::Eval;
            t.code.expr = e.kids[f.idx++];
            t.code.env.assign(saved, saved + f.nenv);
            t.code.ptr = nullptr;
            return StepOutcome::Ok;
          }
          const std::int64_t y = v->int_value();
          const std::int64_t x = f.nvals == 0 ? 0 : t.top_values()[f.nenv]->int_value();
          const PrimResult pr = apply_prim(op, x, y);
          Obj* r = pr.is_bool ? static_con(static_cast<std::uint16_t>(pr.value))
                              : make_int(pr.value);
          if (oom) return StepOutcome::NeedGc;
          t.pop_frame();
          t.code.ptr = r;  // still Ret
          return StepOutcome::Ok;
        }
        case FrameKind::Seq: {
          Obj** saved = t.top_values();
          t.code.mode = CodeMode::Eval;
          t.code.expr = f.expr;
          t.code.env.assign(saved, saved + f.nenv);
          t.code.ptr = nullptr;
          t.pop_frame();
          return StepOutcome::Ok;
        }
        case FrameKind::ForceDeep: {
          if (f.obj == nullptr) {
            if (v->kind == ObjKind::Con && v->size > 0) {
              f.obj = v;
              f.idx = 0;
            } else {
              t.pop_frame();
              return StepOutcome::Ok;  // WHNF == NF here; still Ret(v)
            }
          }
          Obj* con = f.obj;
          if (f.idx < con->size) {
            Obj* field = con->ptr_payload()[f.idx];
            f.idx++;
            Frame sub;
            sub.kind = FrameKind::ForceDeep;
            sub.obj = nullptr;
            t.stack.push_back(sub);  // invalidates f
            t.code.mode = CodeMode::Enter;
            t.code.ptr = field;
            return StepOutcome::Ok;
          }
          t.pop_frame();
          t.code.ptr = con;  // the fully forced constructor; still Ret
          return StepOutcome::Ok;
        }
        case FrameKind::Native: {
          NativeFn fn = f.native;
          const std::size_t idx = t.stack.size() - 1;
          switch (fn(*this, c, t, idx, v)) {
            case NativeAction::Done:
              t.pop_frame();
              return StepOutcome::Ok;  // still Ret(v)
            case NativeAction::Retry:
              return StepOutcome::Ok;
          }
          throw EvalError("corrupt native action");
        }
        case FrameKind::Bytecode:
          // Unreachable: the dispatch above routes returns into Bytecode
          // frames to step_bytecode, and such frames only exist while
          // bytecode_ is loaded.
          throw EvalError("bytecode frame reached the interpreter");
      }
      throw EvalError("corrupt stack frame");
    }
  }
  throw EvalError("corrupt code mode");
}

}  // namespace ph
