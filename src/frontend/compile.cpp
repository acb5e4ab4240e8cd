#include "frontend/compile.hpp"

#include <algorithm>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "fir/builder.hpp"
#include "frontend/parser.hpp"
#include "support/error.hpp"

namespace mojave::frontend {

namespace {

using fir::Atom;
using fir::Binop;
using fir::FunctionBuilder;
using fir::ProgramBuilder;
using fir::Type;
using fir::Unop;

Type fir_ty(MojTy t) {
  switch (t) {
    case MojTy::kInt:
      return Type::integer();
    case MojTy::kFloat:
      return Type::real();
    case MojTy::kPtr:
      return Type::ptr();
    case MojTy::kVoid:
      return Type::unit();
  }
  throw TypeError("unmappable MojC type");
}

/// The FIR type of a function's return continuation: k(ret, kenv).
Type cont_ty(MojTy ret) {
  return Type::fun(
      {ret == MojTy::kVoid ? Type::integer() : fir_ty(ret), Type::ptr()});
}

/// A typed expression value.
struct Val {
  Atom atom;
  MojTy ty = MojTy::kInt;
};

struct Sig {
  MojTy ret = MojTy::kVoid;
  std::vector<MojTy> params;
  bool is_extern = false;
  std::uint32_t fir_id = 0;  ///< entry part id (user functions only)
};

struct Local {
  MojTy ty = MojTy::kInt;
  std::int64_t slot = 0;  ///< home slot: where the local waits out a call
};

/// A local in scope at some point, named for the FIR parameter it becomes.
struct InScope {
  std::string name;
  Local local;
};

/// A declared continuation part. Apart from a call's return part, every
/// part takes the locals in scope where it is declared, in slot order,
/// after its leading parameters and before `frame`.
struct Part {
  std::uint32_t id = 0;
  std::vector<InScope> locals;
};

/// One open FIR function part under construction plus the lexical
/// environment along this compilation path. Scopes are per-path values:
/// sibling branches must not see each other's declarations.
struct Ctx {
  FunctionBuilder* fb;
  Atom frame;
  std::vector<std::map<std::string, Local>> scopes;
  /// The current value of each local, by home slot: a read is this atom,
  /// a write rebinds it, and a transfer passes it to the next part.
  std::map<std::int64_t, Atom> vals;
  /// Per home slot, the variable this part read back from it: while
  /// `vals` still holds that variable, the slot already holds the value.
  std::map<std::int64_t, Atom> home;
};

constexpr std::int64_t kSlotK = 0;
constexpr std::int64_t kSlotKEnv = 1;

class Compiler {
 public:
  explicit Compiler(const Unit& unit) : unit_(unit), pb_(unit.name) {}

  fir::Program run() {
    register_builtin_externs();
    // Pass 1: signatures + FIR declarations for entry parts.
    for (const FunDecl& fn : unit_.functions) {
      if (sigs_.contains(fn.name)) {
        throw TypeError("duplicate function: " + fn.name);
      }
      Sig sig;
      sig.ret = fn.ret;
      sig.params = fn.param_tys;
      sig.is_extern = fn.is_extern;
      if (!fn.is_extern) {
        std::vector<Type> ptys;
        for (MojTy t : fn.param_tys) ptys.push_back(fir_ty(t));
        ptys.push_back(cont_ty(fn.ret));
        ptys.push_back(Type::ptr());
        sig.fir_id = pb_.declare(fn.name, std::move(ptys));
      }
      sigs_.emplace(fn.name, std::move(sig));
    }

    const auto main_it = sigs_.find("main");
    if (main_it == sigs_.end() || main_it->second.is_extern) {
      throw TypeError("program has no main function");
    }
    if (!main_it->second.params.empty()) {
      throw TypeError("main must take no parameters");
    }

    // $exit is the top-level continuation: k(code, env) = halt code.
    exit_id_ = pb_.declare("$exit", {Type::integer(), Type::ptr()});
    {
      FunctionBuilder fb = pb_.define(exit_id_, {"code", "env"});
      fb.halt(fb.arg(0));
    }
    const std::uint32_t start_id = pb_.declare("$start", {});
    {
      FunctionBuilder fb = pb_.define(start_id, {});
      fb.tail_call(Atom::fun_ref(main_it->second.fir_id),
                   {Atom::fun_ref(exit_id_), Atom::null_ptr()});
    }

    // Pass 2: bodies.
    for (const FunDecl& fn : unit_.functions) {
      if (!fn.is_extern) compile_function(fn);
    }
    return pb_.take("$start");
  }

 private:
  [[noreturn]] void fail(int line, const std::string& msg) const {
    throw TypeError(unit_.name + ":" + std::to_string(line) + ": " + msg);
  }

  void register_builtin_externs() {
    const auto ext = [&](const std::string& name, MojTy ret,
                         std::vector<MojTy> params) {
      Sig s;
      s.ret = ret;
      s.params = std::move(params);
      s.is_extern = true;
      sigs_.emplace(name, std::move(s));
    };
    ext("print_string", MojTy::kVoid, {MojTy::kPtr});
    ext("print_int", MojTy::kVoid, {MojTy::kInt});
    ext("print_float", MojTy::kVoid, {MojTy::kFloat});
    ext("clock_us", MojTy::kInt, {});
    ext("spec_level", MojTy::kInt, {});
    ext("heap_live_bytes", MojTy::kInt, {});
  }

  // --- Per-function state ------------------------------------------------

  static void count_decls(const std::vector<StmtP>& stmts, std::int64_t& n) {
    for (const StmtP& s : stmts) {
      if (s->kind == StKind::kDecl) ++n;
      if (s->for_init && s->for_init->kind == StKind::kDecl) ++n;
      if (s->for_step && s->for_step->kind == StKind::kDecl) ++n;
      count_decls(s->body, n);
      count_decls(s->else_body, n);
    }
  }

  using Rest = std::function<void(Ctx&)>;

  void compile_function(const FunDecl& fn) {
    cur_fn_ = &fn;
    part_counter_ = 0;
    next_slot_ = kSlotKEnv + 1 + static_cast<std::int64_t>(fn.param_tys.size());

    std::int64_t ndecls = 0;
    count_decls(fn.body, ndecls);
    const std::int64_t frame_slots = next_slot_ + ndecls;

    // Entry part: allocate the frame and store k/kenv into it. Parameters
    // are locals bound to the entry's arguments; they reach their home
    // slots only when a call needs the frame as its continuation.
    std::vector<std::string> names = fn.param_names;
    names.push_back("k");
    names.push_back("kenv");
    builders_.push_back(pb_.define(sigs_.at(fn.name).fir_id, std::move(names)));
    Ctx ctx{&builders_.back(), Atom::unit(), {}, {}, {}};
    const fir::VarId frame_var = ctx.fb->let_alloc(
        "frame", Atom::integer(frame_slots), Atom::integer(0));
    ctx.frame = Atom::variable(frame_var);
    const auto nparams = static_cast<std::uint32_t>(fn.param_tys.size());
    ctx.fb->write(ctx.frame, Atom::integer(kSlotK), ctx.fb->arg(nparams));
    ctx.fb->write(ctx.frame, Atom::integer(kSlotKEnv),
                  ctx.fb->arg(nparams + 1));
    ctx.scopes.emplace_back();
    for (std::uint32_t i = 0; i < nparams; ++i) {
      const std::int64_t slot = kSlotKEnv + 1 + i;
      ctx.scopes.back()[fn.param_names[i]] = Local{fn.param_tys[i], slot};
      ctx.vals[slot] = ctx.fb->arg(i);
    }

    compile_list(ctx, fn.body, 0,
                 [this](Ctx& c) { emit_return(c, std::nullopt, 0); });
    cur_fn_ = nullptr;
  }

  /// The locals in scope in `ctx`, shadowed ones included, in slot order.
  static std::vector<InScope> in_scope(const Ctx& ctx) {
    std::vector<InScope> out;
    for (const auto& scope : ctx.scopes) {
      for (const auto& [name, local] : scope) out.push_back({name, local});
    }
    std::sort(out.begin(), out.end(), [](const InScope& a, const InScope& b) {
      return a.local.slot < b.local.slot;
    });
    return out;
  }

  /// Declare a new continuation part of the current function taking
  /// `leading` parameters, then `locals`, then the frame pointer.
  Part declare_part(const std::string& kind, std::vector<Type> leading,
                    std::vector<InScope> locals) {
    std::vector<Type> ptys = std::move(leading);
    for (const InScope& l : locals) ptys.push_back(fir_ty(l.local.ty));
    ptys.push_back(Type::ptr());
    const std::string name = cur_fn_->name + "$" + kind +
                             std::to_string(part_counter_++);
    return Part{pb_.declare(name, std::move(ptys)), std::move(locals)};
  }

  /// A part taking the locals in scope in `at`.
  Part declare_part(const std::string& kind, const Ctx& at) {
    return declare_part(kind, {}, in_scope(at));
  }

  /// Open `part` with the lexical environment of `at`; its locals are
  /// bound to the part's parameters.
  Ctx open_part(const Part& part, std::vector<std::string> names,
                const Ctx& at) {
    const auto nleading = static_cast<std::uint32_t>(names.size());
    for (const InScope& l : part.locals) names.push_back(l.name);
    names.push_back("frame");
    builders_.push_back(pb_.define(part.id, std::move(names)));
    Ctx ctx{&builders_.back(), Atom::unit(), at.scopes, {}, {}};
    std::uint32_t i = nleading;
    for (const InScope& l : part.locals) {
      ctx.vals[l.local.slot] = ctx.fb->arg(i++);
    }
    ctx.frame = ctx.fb->arg(i);
    return ctx;
  }

  /// The arguments of a transfer to `part`: its locals' current values,
  /// then the frame.
  static std::vector<Atom> part_args(const Ctx& ctx, const Part& part) {
    std::vector<Atom> args;
    for (const InScope& l : part.locals) {
      args.push_back(ctx.vals.at(l.local.slot));
    }
    args.push_back(ctx.frame);
    return args;
  }

  // --- Slot access ---------------------------------------------------------

  const Local& lookup(const Ctx& ctx, int line, const std::string& name) const {
    for (auto it = ctx.scopes.rbegin(); it != ctx.scopes.rend(); ++it) {
      const auto f = it->find(name);
      if (f != it->end()) return f->second;
    }
    fail(line, "use of undeclared variable '" + name + "'");
  }

  static Val read_local(const Ctx& ctx, const Local& l) {
    return Val{ctx.vals.at(l.slot), l.ty};
  }

  void write_local(Ctx& ctx, const Local& l, Val v, int line) {
    ctx.vals[l.slot] = promote(ctx, v, l.ty, line).atom;
  }

  // --- Types & promotion --------------------------------------------------

  Val promote(Ctx& ctx, Val v, MojTy want, int line) {
    if (v.ty == want) return v;
    if (v.ty == MojTy::kInt && want == MojTy::kFloat) {
      const fir::VarId f = ctx.fb->let_unop("f", Unop::kFloatOfInt, v.atom);
      return Val{Atom::variable(f), MojTy::kFloat};
    }
    fail(line, std::string("type mismatch: have ") + moj_ty_name(v.ty) +
                   ", need " + moj_ty_name(want));
  }

  // --- Expressions ----------------------------------------------------------

  Val compile_expr(Ctx& ctx, const Expr& e) {
    switch (e.kind) {
      case ExKind::kIntLit:
        return Val{Atom::integer(e.ival), MojTy::kInt};
      case ExKind::kFloatLit:
        return Val{Atom::real(e.fval), MojTy::kFloat};
      case ExKind::kStringLit:
        return Val{pb_.str(e.text), MojTy::kPtr};
      case ExKind::kVar: {
        return read_local(ctx, lookup(ctx, e.line, e.text));
      }
      case ExKind::kUnary: {
        Val v = compile_expr(ctx, *e.lhs);
        if (e.op == '-') {
          if (v.ty == MojTy::kInt) {
            return Val{Atom::variable(ctx.fb->let_unop("n", Unop::kNeg, v.atom)),
                       MojTy::kInt};
          }
          if (v.ty == MojTy::kFloat) {
            return Val{
                Atom::variable(ctx.fb->let_unop("n", Unop::kFNeg, v.atom)),
                MojTy::kFloat};
          }
          fail(e.line, "cannot negate this type");
        }
        if (e.op == '!') {
          v = promote(ctx, v, MojTy::kInt, e.line);
          return Val{Atom::variable(ctx.fb->let_unop("b", Unop::kNot, v.atom)),
                     MojTy::kInt};
        }
        fail(e.line, "unknown unary operator");
      }
      case ExKind::kBinary:
        return compile_binary(ctx, e);
      case ExKind::kIndex: {
        Val base = compile_expr(ctx, *e.lhs);
        if (base.ty != MojTy::kPtr) fail(e.line, "indexing a non-pointer");
        Val idx = compile_expr(ctx, *e.rhs);
        if (idx.ty != MojTy::kInt) fail(e.line, "index must be int");
        const fir::VarId v =
            ctx.fb->let_read("elt", Type::integer(), base.atom, idx.atom);
        return Val{Atom::variable(v), MojTy::kInt};
      }
      case ExKind::kCall:
        return compile_value_call(ctx, e);
    }
    fail(e.line, "malformed expression");
  }

  Val compile_binary(Ctx& ctx, const Expr& e) {
    const std::string& op = e.op2;
    Val a = compile_expr(ctx, *e.lhs);
    Val b = compile_expr(ctx, *e.rhs);

    if (op == "&&" || op == "||") {
      // Statement-level conditions get proper short-circuit via
      // compile_cond; in value position both sides are evaluated.
      a = to_bool(ctx, a, e.line);
      b = to_bool(ctx, b, e.line);
      const Binop bo = op == "&&" ? Binop::kAnd : Binop::kOr;
      return Val{Atom::variable(ctx.fb->let_binop("b", bo, a.atom, b.atom)),
                 MojTy::kInt};
    }

    const bool int_only = op == "%" || op == "&" || op == "|" || op == "^" ||
                          op == "<<" || op == ">>";
    if (int_only) {
      if (a.ty != MojTy::kInt || b.ty != MojTy::kInt) {
        fail(e.line, "operator " + op + " requires int operands");
      }
      Binop bo;
      if (op == "%") bo = Binop::kMod;
      else if (op == "&") bo = Binop::kAnd;
      else if (op == "|") bo = Binop::kOr;
      else if (op == "^") bo = Binop::kXor;
      else if (op == "<<") bo = Binop::kShl;
      else bo = Binop::kShr;
      return Val{Atom::variable(ctx.fb->let_binop("i", bo, a.atom, b.atom)),
                 MojTy::kInt};
    }

    if (a.ty == MojTy::kPtr || b.ty == MojTy::kPtr) {
      fail(e.line, "operator " + op + " is not defined on pointers");
    }
    const bool use_float = a.ty == MojTy::kFloat || b.ty == MojTy::kFloat;
    if (use_float) {
      a = promote(ctx, a, MojTy::kFloat, e.line);
      b = promote(ctx, b, MojTy::kFloat, e.line);
    }

    struct OpRow {
      const char* name;
      Binop int_op;
      Binop float_op;
      bool compare;
    };
    static const OpRow rows[] = {
        {"+", Binop::kAdd, Binop::kFAdd, false},
        {"-", Binop::kSub, Binop::kFSub, false},
        {"*", Binop::kMul, Binop::kFMul, false},
        {"/", Binop::kDiv, Binop::kFDiv, false},
        {"==", Binop::kEq, Binop::kFEq, true},
        {"!=", Binop::kNe, Binop::kFNe, true},
        {"<", Binop::kLt, Binop::kFLt, true},
        {"<=", Binop::kLe, Binop::kFLe, true},
        {">", Binop::kGt, Binop::kFGt, true},
        {">=", Binop::kGe, Binop::kFGe, true},
    };
    for (const OpRow& row : rows) {
      if (op == row.name) {
        const Binop bo = use_float ? row.float_op : row.int_op;
        const MojTy result =
            row.compare ? MojTy::kInt
                        : (use_float ? MojTy::kFloat : MojTy::kInt);
        return Val{Atom::variable(ctx.fb->let_binop("t", bo, a.atom, b.atom)),
                   result};
      }
    }
    fail(e.line, "unknown operator " + op);
  }

  Val to_bool(Ctx& ctx, Val v, int line) {
    if (v.ty == MojTy::kInt) {
      return Val{Atom::variable(ctx.fb->let_binop("nz", Binop::kNe, v.atom,
                                                 Atom::integer(0))),
                 MojTy::kInt};
    }
    if (v.ty == MojTy::kFloat) {
      return Val{Atom::variable(ctx.fb->let_binop("nz", Binop::kFNe, v.atom,
                                                 Atom::real(0.0))),
                 MojTy::kInt};
    }
    fail(line, "condition must be numeric");
  }

  /// Builtins and externs that produce a value without transferring
  /// control. User-function calls are rejected here — they are statements.
  Val compile_value_call(Ctx& ctx, const Expr& e) {
    const std::string& name = e.text;
    const auto args_exact = [&](std::size_t n) {
      if (e.args.size() != n) {
        fail(e.line, name + " expects " + std::to_string(n) + " argument(s)");
      }
    };
    const auto arg = [&](std::size_t i, MojTy want) {
      Val v = compile_expr(ctx, *e.args[i]);
      return promote(ctx, v, want, e.line);
    };

    if (name == "alloc") {
      args_exact(1);
      const fir::VarId v = ctx.fb->let_alloc(
          "blk", arg(0, MojTy::kInt).atom, Atom::integer(0));
      return Val{Atom::variable(v), MojTy::kPtr};
    }
    if (name == "alloc_raw") {
      args_exact(1);
      const fir::VarId v =
          ctx.fb->let_alloc_raw("raw", arg(0, MojTy::kInt).atom);
      return Val{Atom::variable(v), MojTy::kPtr};
    }
    if (name == "len") {
      args_exact(1);
      const fir::VarId v = ctx.fb->let_len("n", arg(0, MojTy::kPtr).atom);
      return Val{Atom::variable(v), MojTy::kInt};
    }
    if (name == "ptr_add") {
      args_exact(2);
      const Atom p = arg(0, MojTy::kPtr).atom;
      const Atom d = arg(1, MojTy::kInt).atom;
      return Val{Atom::variable(ctx.fb->let_ptr_add("p", p, d)), MojTy::kPtr};
    }
    if (name == "readf") {
      args_exact(2);
      const Atom p = arg(0, MojTy::kPtr).atom;
      const Atom i = arg(1, MojTy::kInt).atom;
      return Val{Atom::variable(ctx.fb->let_read("f", Type::real(), p, i)),
                 MojTy::kFloat};
    }
    if (name == "readp") {
      args_exact(2);
      const Atom p = arg(0, MojTy::kPtr).atom;
      const Atom i = arg(1, MojTy::kInt).atom;
      return Val{Atom::variable(ctx.fb->let_read("q", Type::ptr(), p, i)),
                 MojTy::kPtr};
    }
    if (name == "i2f") {
      args_exact(1);
      return Val{Atom::variable(ctx.fb->let_unop("f", Unop::kFloatOfInt,
                                                arg(0, MojTy::kInt).atom)),
                 MojTy::kFloat};
    }
    if (name == "f2i") {
      args_exact(1);
      return Val{Atom::variable(ctx.fb->let_unop("i", Unop::kIntOfFloat,
                                                arg(0, MojTy::kFloat).atom)),
                 MojTy::kInt};
    }
    if (name == "null") {
      args_exact(0);
      return Val{Atom::null_ptr(), MojTy::kPtr};
    }
    if (name == "load8" || name == "load16" || name == "load32" ||
        name == "load64") {
      args_exact(2);
      const std::uint32_t width = name == "load8" ? 1
                                  : name == "load16" ? 2
                                  : name == "load32" ? 4
                                                     : 8;
      const Atom p = arg(0, MojTy::kPtr).atom;
      const Atom off = arg(1, MojTy::kInt).atom;
      return Val{Atom::variable(ctx.fb->let_raw_load("v", width, p, off)),
                 MojTy::kInt};
    }
    if (name == "loadf64") {
      args_exact(2);
      const Atom p = arg(0, MojTy::kPtr).atom;
      const Atom off = arg(1, MojTy::kInt).atom;
      return Val{Atom::variable(ctx.fb->let_raw_loadf("v", p, off)),
                 MojTy::kFloat};
    }
    if (name == "store8" || name == "store16" || name == "store32" ||
        name == "store64") {
      args_exact(3);
      const std::uint32_t width = name == "store8" ? 1
                                  : name == "store16" ? 2
                                  : name == "store32" ? 4
                                                      : 8;
      const Atom p = arg(0, MojTy::kPtr).atom;
      const Atom off = arg(1, MojTy::kInt).atom;
      const Atom v = arg(2, MojTy::kInt).atom;
      ctx.fb->raw_store(width, p, off, v);
      return Val{Atom::unit(), MojTy::kVoid};
    }
    if (name == "storef64") {
      args_exact(3);
      const Atom p = arg(0, MojTy::kPtr).atom;
      const Atom off = arg(1, MojTy::kInt).atom;
      const Atom v = arg(2, MojTy::kFloat).atom;
      ctx.fb->raw_storef(p, off, v);
      return Val{Atom::unit(), MojTy::kVoid};
    }
    if (name == "writef" || name == "writep" || name == "writei") {
      args_exact(3);
      const Atom p = arg(0, MojTy::kPtr).atom;
      const Atom i = arg(1, MojTy::kInt).atom;
      const MojTy vt = name == "writef" ? MojTy::kFloat
                       : name == "writep" ? MojTy::kPtr
                                          : MojTy::kInt;
      const Atom v = arg(2, vt).atom;
      ctx.fb->write(p, i, v);
      return Val{Atom::unit(), MojTy::kVoid};
    }

    if (name == "speculate" || name == "commit" || name == "abort" ||
        name == "rollback" || name == "migrate" || name == "exit") {
      fail(e.line, name + " is a statement-level primitive; it cannot be "
                          "nested inside an expression");
    }

    const auto it = sigs_.find(name);
    if (it == sigs_.end()) {
      fail(e.line, "call of undeclared function '" + name + "'");
    }
    const Sig& sig = it->second;
    if (!sig.is_extern) {
      fail(e.line,
           "user function calls are statements in MojC; write 'x = " + name +
               "(...);' or '" + name + "(...);'");
    }
    if (e.args.size() != sig.params.size()) {
      fail(e.line, name + " expects " + std::to_string(sig.params.size()) +
                       " argument(s)");
    }
    std::vector<Atom> ext_args;
    for (std::size_t i = 0; i < e.args.size(); ++i) {
      ext_args.push_back(arg(i, sig.params[i]).atom);
    }
    const fir::VarId v =
        ctx.fb->let_external("x", fir_ty(sig.ret), name, std::move(ext_args));
    return Val{Atom::variable(v), sig.ret};
  }

  // --- Conditions with short-circuit --------------------------------------

  void compile_cond(Ctx& ctx, const Expr& e,
                    const std::function<void(Ctx&)>& on_true,
                    const std::function<void(Ctx&)>& on_false) {
    if (e.kind == ExKind::kBinary && e.op2 == "&&") {
      compile_cond(ctx, *e.lhs,
                   [&](Ctx& c) { compile_cond(c, *e.rhs, on_true, on_false); },
                   on_false);
      return;
    }
    if (e.kind == ExKind::kBinary && e.op2 == "||") {
      compile_cond(ctx, *e.lhs, on_true, [&](Ctx& c) {
        compile_cond(c, *e.rhs, on_true, on_false);
      });
      return;
    }
    if (e.kind == ExKind::kUnary && e.op == '!') {
      compile_cond(ctx, *e.lhs, on_false, on_true);
      return;
    }
    Val v = compile_expr(ctx, e);
    v = to_bool(ctx, v, e.line);
    const Ctx base = ctx;
    ctx.fb->branch(
        v.atom,
        [&](FunctionBuilder& fb) {
          Ctx arm = base;
          arm.fb = &fb;
          on_true(arm);
        },
        [&](FunctionBuilder& fb) {
          Ctx arm = base;
          arm.fb = &fb;
          on_false(arm);
        });
  }

  // --- Statements -----------------------------------------------------------

  void emit_goto(Ctx& ctx, const Part& part) {
    ctx.fb->tail_call(Atom::fun_ref(part.id), part_args(ctx, part));
  }

  /// return [value]: read k/kenv back out of the frame and invoke k.
  void emit_return(Ctx& ctx, std::optional<Val> value, int line) {
    const MojTy ret = cur_fn_->ret;
    Atom val;
    if (ret == MojTy::kVoid) {
      if (value.has_value()) fail(line, "void function returning a value");
      val = Atom::integer(0);
    } else if (!value.has_value()) {
      // Falling off the end of a non-void function returns 0/0.0/null.
      val = ret == MojTy::kFloat ? Atom::real(0.0)
            : ret == MojTy::kPtr ? Atom::null_ptr()
                                 : Atom::integer(0);
    } else {
      val = promote(ctx, *value, ret, line).atom;
    }
    const fir::VarId k = ctx.fb->let_read("k", cont_ty(ret), ctx.frame,
                                         Atom::integer(kSlotK));
    const fir::VarId kenv = ctx.fb->let_read("kenv", Type::ptr(), ctx.frame,
                                            Atom::integer(kSlotKEnv));
    ctx.fb->tail_call(Atom::variable(k), {val, Atom::variable(kenv)});
  }

  void compile_list(Ctx& ctx, const std::vector<StmtP>& stmts, std::size_t i,
                    const Rest& after) {
    if (i == stmts.size()) {
      after(ctx);
      return;
    }
    compile_stmt(ctx, *stmts[i], [this, &stmts, i, &after](Ctx& c) {
      compile_list(c, stmts, i + 1, after);
    });
  }

  /// Assign the result of `rhs` to the local `target`, splitting the
  /// function if rhs suspends (speculate() or a user call), then continue
  /// with `rest`.
  void compile_assign_into(Ctx& ctx, const Local& target, const Expr& rhs,
                           int line, const Rest& rest) {
    if (rhs.kind == ExKind::kCall && rhs.text == "speculate") {
      if (!rhs.args.empty()) fail(line, "speculate() takes no arguments");
      if (target.ty != MojTy::kInt) {
        fail(line, "speculate() result must be stored in an int");
      }
      // The locals are the continuation's arguments, so a rollback
      // re-enters with the values they had here.
      const Part part =
          declare_part("spec", {Type::integer()}, in_scope(ctx));
      ctx.fb->speculate(Atom::fun_ref(part.id), part_args(ctx, part));
      Ctx pctx = open_part(part, {"c"}, ctx);
      pctx.vals[target.slot] = pctx.fb->arg(0);
      rest(pctx);
      return;
    }
    if (rhs.kind == ExKind::kCall) {
      const auto it = sigs_.find(rhs.text);
      if (it != sigs_.end() && !it->second.is_extern) {
        const Sig& sig = it->second;
        if (sig.ret == MojTy::kVoid) {
          fail(line, "assigning the result of void function " + rhs.text);
        }
        if (sig.ret != target.ty &&
            !(sig.ret == MojTy::kInt && target.ty == MojTy::kFloat)) {
          fail(line, "cannot store " + std::string(moj_ty_name(sig.ret)) +
                         " result of " + rhs.text + " into " +
                         moj_ty_name(target.ty));
        }
        compile_user_call(ctx, rhs, sig, line,
                          [this, &target, &rest](Ctx& c, Val ret_val) {
                            write_local(c, target, ret_val, 0);
                            rest(c);
                          });
        return;
      }
    }
    Val v = compile_expr(ctx, rhs);
    write_local(ctx, target, v, line);
    rest(ctx);
  }

  /// Tail-call a user function with a freshly declared return part;
  /// `then` receives the part context and the (typed) return value. The
  /// return part's signature is fixed by k(ret, kenv), so the frame is the
  /// continuation environment: the locals in scope are written to their
  /// home slots before the call and, unless `reload` is false (the part
  /// only returns), read back at the top of the return part.
  void compile_user_call(Ctx& ctx, const Expr& call, const Sig& sig, int line,
                         const std::function<void(Ctx&, Val)>& then,
                         bool reload = true) {
    if (call.args.size() != sig.params.size()) {
      fail(line, call.text + " expects " +
                     std::to_string(sig.params.size()) + " argument(s)");
    }
    std::vector<Atom> args;
    for (std::size_t i = 0; i < call.args.size(); ++i) {
      Val v = compile_expr(ctx, *call.args[i]);
      args.push_back(promote(ctx, v, sig.params[i], line).atom);
    }
    const std::vector<InScope> live = in_scope(ctx);
    for (const InScope& l : live) {
      const Atom& v = ctx.vals.at(l.local.slot);
      const auto h = ctx.home.find(l.local.slot);
      if (h != ctx.home.end() && v.kind == Atom::Kind::kVar &&
          h->second.var == v.var) {
        continue;  // read back from this slot and not reassigned since
      }
      ctx.fb->write(ctx.frame, Atom::integer(l.local.slot), v);
    }
    const MojTy rty = sig.ret == MojTy::kVoid ? MojTy::kInt : sig.ret;
    const Part part = declare_part("ret", {fir_ty(rty)}, {});
    args.push_back(Atom::fun_ref(part.id));
    args.push_back(ctx.frame);
    ctx.fb->tail_call(Atom::fun_ref(sig.fir_id), std::move(args));

    Ctx pctx = open_part(part, {"ret"}, ctx);
    if (reload) {
      for (const InScope& l : live) {
        pctx.vals[l.local.slot] = pctx.home[l.local.slot] = Atom::variable(
            pctx.fb->let_read(l.name, fir_ty(l.local.ty), pctx.frame,
                              Atom::integer(l.local.slot)));
      }
    }
    then(pctx, Val{pctx.fb->arg(0), rty});
  }

  void compile_stmt(Ctx& ctx, const Stmt& s, const Rest& rest) {
    switch (s.kind) {
      case StKind::kDecl: {
        const std::int64_t slot = next_slot_++;
        if (ctx.scopes.back().contains(s.name)) {
          fail(s.line, "redeclaration of '" + s.name + "' in this scope");
        }
        const Local local{s.ty, slot};
        // The name becomes visible only after its initializer, per C.
        if (s.expr != nullptr) {
          compile_assign_into(ctx, local, *s.expr, s.line, [&](Ctx& c) {
            c.scopes.back()[s.name] = local;
            rest(c);
          });
        } else {
          const Atom init = s.ty == MojTy::kFloat ? Atom::real(0.0)
                            : s.ty == MojTy::kPtr ? Atom::null_ptr()
                                                  : Atom::integer(0);
          ctx.vals[slot] = init;
          ctx.scopes.back()[s.name] = local;
          rest(ctx);
        }
        return;
      }
      case StKind::kAssign: {
        const Local local = lookup(ctx, s.line, s.name);
        compile_assign_into(ctx, local, *s.expr, s.line, rest);
        return;
      }
      case StKind::kIndexAssign: {
        Val base = compile_expr(ctx, *s.index_base);
        if (base.ty != MojTy::kPtr) fail(s.line, "indexing a non-pointer");
        Val idx = compile_expr(ctx, *s.index);
        if (idx.ty != MojTy::kInt) fail(s.line, "index must be int");
        Val v = compile_expr(ctx, *s.expr);
        if (v.ty == MojTy::kVoid) fail(s.line, "storing a void value");
        ctx.fb->write(base.atom, idx.atom, v.atom);
        rest(ctx);
        return;
      }
      case StKind::kExprStmt:
        compile_expr_stmt(ctx, s, rest);
        return;
      case StKind::kIf: {
        const Part then_part = declare_part("then", ctx);
        const Part else_part = declare_part("else", ctx);
        const Part join_part = declare_part("join", ctx);
        compile_cond(ctx, *s.expr,
                     [&](Ctx& c) { emit_goto(c, then_part); },
                     [&](Ctx& c) { emit_goto(c, else_part); });
        {
          Ctx tctx = open_part(then_part, {}, ctx);
          tctx.scopes.emplace_back();
          compile_list(tctx, s.body, 0,
                       [&](Ctx& c) { emit_goto(c, join_part); });
        }
        {
          Ctx ectx = open_part(else_part, {}, ctx);
          ectx.scopes.emplace_back();
          compile_list(ectx, s.else_body, 0,
                       [&](Ctx& c) { emit_goto(c, join_part); });
        }
        Ctx jctx = open_part(join_part, {}, ctx);
        rest(jctx);
        return;
      }
      case StKind::kWhile: {
        const Part loop_part = declare_part("loop", ctx);
        const Part body_part = declare_part("body", ctx);
        const Part after_part = declare_part("after", ctx);
        emit_goto(ctx, loop_part);
        {
          Ctx lctx = open_part(loop_part, {}, ctx);
          compile_cond(lctx, *s.expr,
                       [&](Ctx& c) { emit_goto(c, body_part); },
                       [&](Ctx& c) { emit_goto(c, after_part); });
        }
        {
          Ctx bctx = open_part(body_part, {}, ctx);
          bctx.scopes.emplace_back();
          loops_.push_back({loop_part, after_part});
          compile_list(bctx, s.body, 0,
                       [&](Ctx& c) { emit_goto(c, loop_part); });
          loops_.pop_back();
        }
        Ctx actx = open_part(after_part, {}, ctx);
        rest(actx);
        return;
      }
      case StKind::kFor: {
        // for (init; cond; step) — continue jumps to the step part, so
        // the loop structure is: init → $loop(cond) → $body → $step → $loop.
        ctx.scopes.emplace_back();  // the init declaration's scope
        const auto compile_loop = [&](Ctx& c) {
          const Part loop_part = declare_part("floop", c);
          const Part body_part = declare_part("fbody", c);
          const Part step_part = declare_part("fstep", c);
          const Part after_part = declare_part("fafter", c);
          emit_goto(c, loop_part);
          {
            Ctx lctx = open_part(loop_part, {}, c);
            if (s.expr != nullptr) {
              compile_cond(lctx, *s.expr,
                           [&](Ctx& t) { emit_goto(t, body_part); },
                           [&](Ctx& e2) { emit_goto(e2, after_part); });
            } else {
              emit_goto(lctx, body_part);  // for(;;): always taken
            }
          }
          {
            Ctx bctx = open_part(body_part, {}, c);
            bctx.scopes.emplace_back();
            loops_.push_back({step_part, after_part});
            compile_list(bctx, s.body, 0,
                         [&](Ctx& b) { emit_goto(b, step_part); });
            loops_.pop_back();
          }
          {
            Ctx sctx = open_part(step_part, {}, c);
            if (s.for_step != nullptr) {
              compile_stmt(sctx, *s.for_step,
                           [&](Ctx& s2) { emit_goto(s2, loop_part); });
            } else {
              emit_goto(sctx, loop_part);
            }
          }
          Ctx actx = open_part(after_part, {}, c);
          actx.scopes.pop_back();  // leave the init scope
          rest(actx);
        };
        if (s.for_init != nullptr) {
          compile_stmt(ctx, *s.for_init, compile_loop);
        } else {
          compile_loop(ctx);
        }
        return;
      }
      case StKind::kDoWhile: {
        const Part body_part = declare_part("dbody", ctx);
        const Part cond_part = declare_part("dcond", ctx);
        const Part after_part = declare_part("dafter", ctx);
        emit_goto(ctx, body_part);
        {
          Ctx bctx = open_part(body_part, {}, ctx);
          bctx.scopes.emplace_back();
          loops_.push_back({cond_part, after_part});
          compile_list(bctx, s.body, 0,
                       [&](Ctx& b) { emit_goto(b, cond_part); });
          loops_.pop_back();
        }
        {
          Ctx cctx = open_part(cond_part, {}, ctx);
          compile_cond(cctx, *s.expr,
                       [&](Ctx& t) { emit_goto(t, body_part); },
                       [&](Ctx& e2) { emit_goto(e2, after_part); });
        }
        Ctx actx = open_part(after_part, {}, ctx);
        rest(actx);
        return;
      }
      case StKind::kReturn: {
        if (s.expr != nullptr) {
          // `return f(...);` on a user function: call, then return the
          // result from the continuation part.
          if (s.expr->kind == ExKind::kCall) {
            const auto it = sigs_.find(s.expr->text);
            if (it != sigs_.end() && !it->second.is_extern) {
              const int line = s.line;
              compile_user_call(
                  ctx, *s.expr, it->second, line,
                  [this, line](Ctx& c, Val ret_val) {
                    emit_return(c, ret_val, line);
                  },
                  /*reload=*/false);
              return;
            }
          }
          Val v = compile_expr(ctx, *s.expr);
          emit_return(ctx, v, s.line);
        } else {
          emit_return(ctx, std::nullopt, s.line);
        }
        return;  // terminator: the rest is unreachable
      }
      case StKind::kBreak:
        if (loops_.empty()) fail(s.line, "break outside a loop");
        emit_goto(ctx, loops_.back().after_part);
        return;
      case StKind::kContinue:
        if (loops_.empty()) fail(s.line, "continue outside a loop");
        emit_goto(ctx, loops_.back().loop_part);
        return;
      case StKind::kBlock: {
        ctx.scopes.emplace_back();
        compile_list(ctx, s.body, 0, [&](Ctx& c) {
          c.scopes.pop_back();
          rest(c);
        });
        return;
      }
    }
    fail(s.line, "malformed statement");
  }

  void compile_expr_stmt(Ctx& ctx, const Stmt& s, const Rest& rest) {
    const Expr& e = *s.expr;
    if (e.kind != ExKind::kCall) {
      // Evaluate for effect (reads can trap, which is an effect).
      (void)compile_expr(ctx, e);
      rest(ctx);
      return;
    }
    const std::string& name = e.text;

    const auto int_arg = [&](std::size_t i) {
      Val v = compile_expr(ctx, *e.args[i]);
      return promote(ctx, v, MojTy::kInt, s.line).atom;
    };

    if (name == "speculate") {
      fail(s.line, "speculate() must be assigned: 'int id = speculate();'");
    }
    if (name == "commit") {
      if (e.args.size() != 1) fail(s.line, "commit(level) takes one argument");
      const Atom level = int_arg(0);
      const Part part = declare_part("cont", ctx);
      ctx.fb->commit(level, Atom::fun_ref(part.id), part_args(ctx, part));
      Ctx pctx = open_part(part, {}, ctx);
      rest(pctx);
      return;
    }
    if (name == "abort") {
      if (e.args.empty() || e.args.size() > 2) {
        fail(s.line, "abort(level[, c]) takes one or two arguments");
      }
      const Atom level = int_arg(0);
      const Atom c = e.args.size() == 2 ? int_arg(1) : Atom::integer(0);
      ctx.fb->abort_spec(level, c);
      return;  // terminator
    }
    if (name == "rollback") {
      if (e.args.size() != 2) {
        fail(s.line, "rollback(level, c) takes two arguments");
      }
      const Atom level = int_arg(0);
      const Atom c = int_arg(1);
      ctx.fb->rollback(level, c);
      return;  // terminator
    }
    if (name == "migrate") {
      if (e.args.size() != 1) {
        fail(s.line, "migrate(target) takes one argument");
      }
      Val target = compile_expr(ctx, *e.args[0]);
      if (target.ty != MojTy::kPtr) {
        fail(s.line, "migrate target must be a string");
      }
      const Part part = declare_part("mig", ctx);
      ctx.fb->migrate(next_label_++, target.atom, Atom::fun_ref(part.id),
                      part_args(ctx, part));
      Ctx pctx = open_part(part, {}, ctx);
      rest(pctx);
      return;
    }
    if (name == "exit") {
      if (e.args.size() != 1) fail(s.line, "exit(code) takes one argument");
      ctx.fb->halt(int_arg(0));
      return;  // terminator
    }

    const auto it = sigs_.find(name);
    if (it != sigs_.end() && !it->second.is_extern) {
      compile_user_call(ctx, e, it->second, s.line,
                        [&rest](Ctx& c, Val) { rest(c); });
      return;
    }

    // Builtin or extern call for effect.
    (void)compile_value_call(ctx, e);
    rest(ctx);
    return;
  }

  const Unit& unit_;
  ProgramBuilder pb_;
  std::map<std::string, Sig> sigs_;
  std::uint32_t exit_id_ = 0;
  MigrateLabel next_label_ = 1;

  const FunDecl* cur_fn_ = nullptr;
  std::uint32_t part_counter_ = 0;
  std::int64_t next_slot_ = 0;

  std::deque<FunctionBuilder> builders_;

  struct LoopCtx {
    Part loop_part;
    Part after_part;
  };
  std::vector<LoopCtx> loops_;
};

}  // namespace

fir::Program compile(const Unit& unit) { return Compiler(unit).run(); }

fir::Program compile_source(const std::string& name,
                            const std::string& source) {
  const Unit unit = parse(name, source);
  return compile(unit);
}

}  // namespace mojave::frontend
