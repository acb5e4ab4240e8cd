#include "native/compiler.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <map>
#include <set>

#include "native/abi.hpp"
#include "native/asm_x64.hpp"
#include "native/helpers.hpp"
#include "runtime/value.hpp"

namespace mojave::native {

namespace {

using runtime::Tag;
using vm::CompiledFunction;
using vm::CompiledProgram;
using vm::Insn;
using vm::Op;

// Compile-time sanity bound (kMaxCode is in compiler.hpp, kMaxRegs in
// abi.hpp); programs outside it stay interpreted.
constexpr std::size_t kMaxFunctions = 1 << 24;

// The direct-jump move addresses argbuf slot i at disp32 16 * i.
static_assert(sizeof(runtime::Value) * kMaxRegs <= 0x7fffffff);

// --- Type lattice ------------------------------------------------------------

enum class Kind : std::uint8_t { kUnit, kInt, kFloat, kPtr, kFun, kAny };

/// Per-register abstract state: the runtime tag if statically known, plus
/// the function id for registers that provably hold one specific function
/// reference (what makes a tail call bind to a direct jump).
struct TypeInfo {
  Kind kind = Kind::kAny;
  bool has_fun = false;
  std::uint32_t fun = 0;

  [[nodiscard]] bool operator==(const TypeInfo&) const = default;
};

using State = std::vector<TypeInfo>;

TypeInfo info_of(Kind k) { return TypeInfo{k, false, 0}; }

TypeInfo fun_const(std::uint32_t f) { return TypeInfo{Kind::kFun, true, f}; }

Kind kind_of_tag(Tag t) {
  switch (t) {
    case Tag::kUnit: return Kind::kUnit;
    case Tag::kInt: return Kind::kInt;
    case Tag::kFloat: return Kind::kFloat;
    case Tag::kPtr: return Kind::kPtr;
    case Tag::kFun: return Kind::kFun;
  }
  return Kind::kAny;
}

Tag tag_of_kind(Kind k) {
  switch (k) {
    case Kind::kUnit: return Tag::kUnit;
    case Kind::kInt: return Tag::kInt;
    case Kind::kFloat: return Tag::kFloat;
    case Kind::kPtr: return Tag::kPtr;
    case Kind::kFun: return Tag::kFun;
    case Kind::kAny: break;
  }
  return Tag::kUnit;  // unreachable for definite kinds
}

/// Lattice meet at control-flow joins: disagreement lowers toward kAny, so
/// contributions from not-yet-final predecessor states are always sound.
TypeInfo meet(const TypeInfo& a, const TypeInfo& b) {
  if (a.kind != b.kind) return info_of(Kind::kAny);
  if (a.kind == Kind::kFun) {
    if (a.has_fun && b.has_fun && a.fun == b.fun) return a;
    return info_of(Kind::kFun);
  }
  return info_of(a.kind);
}

// --- Per-instruction plan ----------------------------------------------------

struct TagGuard {
  std::uint16_t reg = 0;
  std::uint8_t tag = 0;
};

/// What the codegen will emit for one instruction — computed from (and
/// refining) the abstract state. The dataflow pass and the emission pass
/// call the same planner, so the state each one sees is identical.
struct Plan {
  enum class Act : std::uint8_t {
    kInline,  ///< fully inlined machine code
    kHelper,  ///< one C helper call, trap → deopt
    kHybrid,  ///< inlined store, helper fallback when a clone is due
    kDeopt,   ///< unconditional deoptimization at this pc
    kDirect,  ///< statically-bound tail call: native-to-native jump
  };

  Act act = Act::kInline;
  DeoptReason reason = DeoptReason::kUnsupported;
  std::vector<TagGuard> guards;
  std::uint32_t callee = 0;  ///< kDirect
  /// True when nothing after this instruction can execute natively on this
  /// path (deopt or a control transfer).
  bool ends_path = false;
};

constexpr int kGuardOk = 0;        // kind already proven
constexpr int kGuardCheck = 1;     // runtime tag compare needed
constexpr int kGuardImpossible = 2;

int guard_need(const TypeInfo& ti, Tag want) {
  if (ti.kind == Kind::kAny) return kGuardCheck;
  return ti.kind == kind_of_tag(want) ? kGuardOk : kGuardImpossible;
}

bool is_int_binop(std::uint8_t sub) { return sub <= 15; }
bool is_float_arith(std::uint8_t sub) { return sub >= 16 && sub <= 19; }
bool is_float_cmp(std::uint8_t sub) { return sub >= 20 && sub <= 25; }

/// Build the plan for `I` and advance `st` across it. Returns false (with
/// `err` set) only for malformed bytecode the compiler refuses outright.
bool plan_insn(const CompiledProgram& prog, const CompiledFunction& f,
               const Insn& I, State& st, Plan& plan, std::string& err) {
  plan = Plan{};
  const auto bad_reg = [&](std::uint16_t r) { return r >= f.num_regs; };

  // Operand collection: require the listed (reg, tag) pairs; a statically
  // impossible requirement turns the whole instruction into a deopt (the
  // interpreter re-executes it and raises the canonical SafetyError).
  bool impossible = false;
  const auto want = [&](std::uint16_t reg, Tag t) {
    switch (guard_need(st[reg], t)) {
      case kGuardOk:
        break;
      case kGuardCheck:
        plan.guards.push_back(TagGuard{reg, static_cast<std::uint8_t>(t)});
        break;
      default:
        impossible = true;
        break;
    }
  };
  const auto refine = [&]() {
    for (const TagGuard& g : plan.guards) {
      st[g.reg] = info_of(kind_of_tag(static_cast<Tag>(g.tag)));
    }
  };
  const auto deopt = [&](DeoptReason r) {
    plan = Plan{};
    plan.act = Plan::Act::kDeopt;
    plan.reason = r;
    plan.ends_path = true;
  };
  const auto set_dst = [&](Kind k) { st[I.dst] = info_of(k); };

  switch (I.op) {
    case Op::kLoadUnit:
      if (bad_reg(I.dst)) { err = "register out of range"; return false; }
      set_dst(Kind::kUnit);
      break;
    case Op::kLoadInt:
      if (bad_reg(I.dst)) { err = "register out of range"; return false; }
      set_dst(Kind::kInt);
      break;
    case Op::kLoadFloat:
      if (bad_reg(I.dst)) { err = "register out of range"; return false; }
      set_dst(Kind::kFloat);
      break;
    case Op::kLoadString:
      if (bad_reg(I.dst)) { err = "register out of range"; return false; }
      if (I.aux >= prog.strings.size()) { deopt(DeoptReason::kUnsupported); break; }
      set_dst(Kind::kPtr);
      break;
    case Op::kLoadFun:
      if (bad_reg(I.dst)) { err = "register out of range"; return false; }
      if (I.aux >= prog.functions.size()) { deopt(DeoptReason::kUnsupported); break; }
      st[I.dst] = fun_const(I.aux);
      break;
    case Op::kLoadNull:
      if (bad_reg(I.dst)) { err = "register out of range"; return false; }
      set_dst(Kind::kPtr);
      break;
    case Op::kMove:
      if (bad_reg(I.dst) || bad_reg(I.r1)) { err = "register out of range"; return false; }
      st[I.dst] = st[I.r1];
      break;

    case Op::kUnop: {
      if (bad_reg(I.dst) || bad_reg(I.r1)) { err = "register out of range"; return false; }
      Kind out;
      Tag in;
      switch (I.sub) {
        case 0: case 1: case 2: in = Tag::kInt; out = Kind::kInt; break;
        case 3: in = Tag::kFloat; out = Kind::kFloat; break;
        case 4: in = Tag::kFloat; out = Kind::kInt; break;
        case 5: in = Tag::kInt; out = Kind::kFloat; break;
        default: deopt(DeoptReason::kUnsupported); goto done;
      }
      want(I.r1, in);
      if (impossible) { deopt(DeoptReason::kGuard); break; }
      refine();
      set_dst(out);
      break;
    }

    case Op::kBinop: {
      if (bad_reg(I.dst) || bad_reg(I.r1) || bad_reg(I.r2)) {
        err = "register out of range";
        return false;
      }
      Kind out;
      Tag in;
      if (is_int_binop(I.sub)) { in = Tag::kInt; out = Kind::kInt; }
      else if (is_float_arith(I.sub)) { in = Tag::kFloat; out = Kind::kFloat; }
      else if (is_float_cmp(I.sub)) { in = Tag::kFloat; out = Kind::kInt; }
      else { deopt(DeoptReason::kUnsupported); break; }
      want(I.r1, in);
      want(I.r2, in);
      if (impossible) { deopt(DeoptReason::kGuard); break; }
      refine();
      set_dst(out);
      break;
    }

    case Op::kAllocTagged:
      if (bad_reg(I.dst) || bad_reg(I.r1) || bad_reg(I.r2)) {
        err = "register out of range";
        return false;
      }
      plan.act = Plan::Act::kHelper;
      // Helper success implies the operand checks passed.
      st[I.r1] = meet(st[I.r1], info_of(Kind::kInt));
      if (st[I.r1].kind == Kind::kAny) st[I.r1] = info_of(Kind::kInt);
      set_dst(Kind::kPtr);
      break;
    case Op::kAllocRaw:
      if (bad_reg(I.dst) || bad_reg(I.r1)) { err = "register out of range"; return false; }
      plan.act = Plan::Act::kHelper;
      if (st[I.r1].kind == Kind::kAny) st[I.r1] = info_of(Kind::kInt);
      set_dst(Kind::kPtr);
      break;

    case Op::kRead:
      if (bad_reg(I.dst) || bad_reg(I.r1) || bad_reg(I.r2)) {
        err = "register out of range";
        return false;
      }
      if (I.sub > static_cast<std::uint8_t>(Tag::kFun)) {
        deopt(DeoptReason::kUnsupported);
        break;
      }
      want(I.r1, Tag::kPtr);
      want(I.r2, Tag::kInt);
      if (impossible) { deopt(DeoptReason::kGuard); break; }
      refine();
      set_dst(kind_of_tag(static_cast<Tag>(I.sub)));
      break;

    case Op::kWrite: {
      if (bad_reg(I.r1) || bad_reg(I.r2) || bad_reg(I.r3)) {
        err = "register out of range";
        return false;
      }
      const TypeInfo& v = st[I.r3];
      const bool v_nonptr = v.kind != Kind::kAny && v.kind != Kind::kPtr;
      const bool p_ok = guard_need(st[I.r1], Tag::kPtr) != kGuardImpossible;
      const bool o_ok = guard_need(st[I.r2], Tag::kInt) != kGuardImpossible;
      if (v_nonptr && p_ok && o_ok) {
        // Non-pointer store: the write barrier is a no-op, so when the
        // copy-on-write hook has nothing to do (no level, or the block is
        // already versioned in the newest one) the store is inlined. A
        // runtime level-count and epoch test picks the path.
        plan.act = Plan::Act::kHybrid;
        want(I.r1, Tag::kPtr);
        want(I.r2, Tag::kInt);
        refine();
      } else {
        plan.act = Plan::Act::kHelper;
        if (st[I.r1].kind == Kind::kAny) st[I.r1] = info_of(Kind::kPtr);
        if (st[I.r2].kind == Kind::kAny) st[I.r2] = info_of(Kind::kInt);
      }
      break;
    }

    case Op::kRawLoad:
      if (bad_reg(I.dst) || bad_reg(I.r1) || bad_reg(I.r2)) {
        err = "register out of range";
        return false;
      }
      if (I.sub != 1 && I.sub != 2 && I.sub != 4 && I.sub != 8) {
        deopt(DeoptReason::kGuard);  // interpreter raises "width must be..."
        break;
      }
      want(I.r1, Tag::kPtr);
      want(I.r2, Tag::kInt);
      if (impossible) { deopt(DeoptReason::kGuard); break; }
      refine();
      set_dst(Kind::kInt);
      break;

    case Op::kRawStore: {
      if (bad_reg(I.r1) || bad_reg(I.r2) || bad_reg(I.r3)) {
        err = "register out of range";
        return false;
      }
      if (I.sub != 1 && I.sub != 2 && I.sub != 4 && I.sub != 8) {
        deopt(DeoptReason::kGuard);
        break;
      }
      const bool p_ok = guard_need(st[I.r1], Tag::kPtr) != kGuardImpossible;
      const bool o_ok = guard_need(st[I.r2], Tag::kInt) != kGuardImpossible;
      const bool v_ok = guard_need(st[I.r3], Tag::kInt) != kGuardImpossible;
      if (p_ok && o_ok && v_ok) {
        plan.act = Plan::Act::kHybrid;
        want(I.r1, Tag::kPtr);
        want(I.r2, Tag::kInt);
        want(I.r3, Tag::kInt);
        refine();
      } else {
        plan.act = Plan::Act::kHelper;
      }
      break;
    }

    case Op::kRawLoadF:
      if (bad_reg(I.dst) || bad_reg(I.r1) || bad_reg(I.r2)) {
        err = "register out of range";
        return false;
      }
      want(I.r1, Tag::kPtr);
      want(I.r2, Tag::kInt);
      if (impossible) { deopt(DeoptReason::kGuard); break; }
      refine();
      set_dst(Kind::kFloat);
      break;

    case Op::kRawStoreF: {
      if (bad_reg(I.r1) || bad_reg(I.r2) || bad_reg(I.r3)) {
        err = "register out of range";
        return false;
      }
      const bool p_ok = guard_need(st[I.r1], Tag::kPtr) != kGuardImpossible;
      const bool o_ok = guard_need(st[I.r2], Tag::kInt) != kGuardImpossible;
      const bool v_ok = guard_need(st[I.r3], Tag::kFloat) != kGuardImpossible;
      if (p_ok && o_ok && v_ok) {
        plan.act = Plan::Act::kHybrid;
        want(I.r1, Tag::kPtr);
        want(I.r2, Tag::kInt);
        want(I.r3, Tag::kFloat);
        refine();
      } else {
        plan.act = Plan::Act::kHelper;
      }
      break;
    }

    case Op::kLen:
      if (bad_reg(I.dst) || bad_reg(I.r1)) { err = "register out of range"; return false; }
      want(I.r1, Tag::kPtr);
      if (impossible) { deopt(DeoptReason::kGuard); break; }
      refine();
      set_dst(Kind::kInt);
      break;

    case Op::kPtrAdd:
      if (bad_reg(I.dst) || bad_reg(I.r1) || bad_reg(I.r2)) {
        err = "register out of range";
        return false;
      }
      want(I.r1, Tag::kPtr);
      want(I.r2, Tag::kInt);
      if (impossible) { deopt(DeoptReason::kGuard); break; }
      refine();
      set_dst(Kind::kPtr);
      break;

    case Op::kJump:
      if (I.aux > f.code.size()) { err = "jump out of range"; return false; }
      plan.ends_path = true;
      break;

    case Op::kJumpIfZero:
      if (bad_reg(I.r1)) { err = "register out of range"; return false; }
      if (I.aux > f.code.size()) { err = "jump out of range"; return false; }
      want(I.r1, Tag::kInt);
      if (impossible) { deopt(DeoptReason::kGuard); break; }
      refine();
      break;

    case Op::kTailCall: {
      if (bad_reg(I.r1)) { err = "register out of range"; return false; }
      for (std::uint16_t r : I.args) {
        if (bad_reg(r)) { err = "register out of range"; return false; }
      }
      const TypeInfo& callee = st[I.r1];
      bool direct = callee.kind == Kind::kFun && callee.has_fun &&
                    callee.fun < prog.functions.size() &&
                    I.args.size() <= kMaxRegs;
      if (direct) {
        const CompiledFunction& target = prog.functions[callee.fun];
        direct = I.args.size() == target.arity &&
                 target.param_tags.size() == target.arity;
        if (direct) {
          for (std::size_t i = 0; i < I.args.size(); ++i) {
            const TypeInfo& a = st[I.args[i]];
            if (a.kind == Kind::kAny ||
                tag_of_kind(a.kind) != target.param_tags[i]) {
              direct = false;
              break;
            }
          }
        }
      }
      if (direct) {
        plan.act = Plan::Act::kDirect;
        plan.callee = callee.fun;
        plan.ends_path = true;
      } else {
        deopt(DeoptReason::kCall);
      }
      break;
    }

    case Op::kSpeculate: deopt(DeoptReason::kSpeculate); break;
    case Op::kCommit: deopt(DeoptReason::kCommit); break;
    case Op::kRollback:
    case Op::kAbort: deopt(DeoptReason::kRollback); break;
    case Op::kMigrate: deopt(DeoptReason::kMigrate); break;
    case Op::kExternal: deopt(DeoptReason::kExternal); break;
    case Op::kHalt: deopt(DeoptReason::kHalt); break;
  }
done:
  return true;
}

// --- Chunks ------------------------------------------------------------------

bool ends_chunk(Op op) {
  switch (op) {
    case Op::kJump:
    case Op::kJumpIfZero:
    case Op::kTailCall:
    case Op::kSpeculate:
    case Op::kCommit:
    case Op::kRollback:
    case Op::kAbort:
    case Op::kMigrate:
    case Op::kHalt:
      return true;
    default:
      return false;
  }
}

// --- Register assignment -----------------------------------------------------

/// One bit per virtual register (validate() bounds num_regs by kMaxRegs).
using RegSet = DeoptResets::Bits;

bool has_reg(const RegSet& s, std::uint16_t r) {
  return ((s[r >> 6] >> (r & 63)) & 1) != 0;
}

void add_reg(RegSet& s, std::uint16_t r) { s[r >> 6] |= 1ULL << (r & 63); }

/// The register `I` writes when it completes natively, or -1.
int written_reg(const Insn& I) {
  switch (I.op) {
    case Op::kLoadUnit: case Op::kLoadInt: case Op::kLoadFloat:
    case Op::kLoadString: case Op::kLoadFun: case Op::kLoadNull:
    case Op::kMove: case Op::kUnop: case Op::kBinop:
    case Op::kAllocTagged: case Op::kAllocRaw: case Op::kRead:
    case Op::kRawLoad: case Op::kRawLoadF: case Op::kLen: case Op::kPtrAdd:
      return I.dst;
    default:
      return -1;
  }
}

/// Calls `fn` on every register native code for `I` reads.
template <class Fn>
void for_each_read(const Insn& I, Fn fn) {
  switch (I.op) {
    case Op::kMove: case Op::kUnop: case Op::kAllocRaw: case Op::kLen:
    case Op::kJumpIfZero:
      fn(I.r1);
      break;
    case Op::kBinop: case Op::kAllocTagged: case Op::kRead:
    case Op::kRawLoad: case Op::kRawLoadF: case Op::kPtrAdd:
      fn(I.r1);
      fn(I.r2);
      break;
    case Op::kWrite: case Op::kRawStore: case Op::kRawStoreF:
      fn(I.r1);
      fn(I.r2);
      fn(I.r3);
      break;
    case Op::kTailCall:
      fn(I.r1);
      for (const std::uint16_t r : I.args) fn(r);
      break;
    default:
      break;
  }
}

/// The abstract state at a chunk start: register types, plus which
/// registers every path (must) and some path (may) from the function
/// entry has written. Parameters count as written.
struct PointState {
  State types;
  RegSet must;
  RegSet may;
};

using ClassCounts = std::array<std::uint64_t, vm::kNumOpClasses>;

struct DeoptStub {
  Assembler::Label label;
  std::uint32_t pc = 0;
  DeoptReason reason = DeoptReason::kUnsupported;
  std::int32_t refund = 0;
  ClassCounts counts{};
};

// --- The compiler ------------------------------------------------------------

class FunctionCompiler {
 public:
  FunctionCompiler(const CompiledProgram& prog, FunIndex fun)
      : prog_(prog), fun_(fun), f_(prog.functions[fun]) {}

  CompileResult run() {
    CompileResult result;
    if (!validate()) { result.error = err_; return result; }
    find_leaders();
    if (!dataflow()) { result.error = err_; return result; }
    emit();
    if (!err_.empty()) { result.error = err_; return result; }
    if (!a_.finalize()) {
      result.error = "unresolved label";
      return result;
    }
    result.ok = true;
    result.code.assign(a_.data(), a_.data() + a_.size());
    result.jump_entry = jump_entry_;
    result.eager_clears = eager_clears_;
    result.resets = std::move(resets_);
    return result;
  }

 private:
  // Frame addressing.
  static Mem vtag(std::uint16_t r) { return mem(R12, 16 * r); }
  static Mem vpay(std::uint16_t r) { return mem(R12, 16 * r + 8); }
  static Mem vidx(std::uint16_t r) { return mem(R12, 16 * r + 8); }
  static Mem voff(std::uint16_t r) { return mem(R12, 16 * r + 12); }

  bool validate() {
    if (f_.code.empty()) { err_ = "empty function"; return false; }
    if (f_.code.size() > kMaxCode) { err_ = "function too large"; return false; }
    if (f_.num_regs > kMaxRegs) { err_ = "too many registers"; return false; }
    if (f_.arity > f_.num_regs) { err_ = "arity exceeds registers"; return false; }
    if (f_.param_tags.size() != f_.arity) { err_ = "bad param tags"; return false; }
    if (prog_.functions.size() > kMaxFunctions) { err_ = "program too large"; return false; }
    return true;
  }

  void find_leaders() {
    leaders_.insert(0);
    for (std::uint32_t i = 0; i < f_.code.size(); ++i) {
      const Insn& I = f_.code[i];
      if (I.op == Op::kJump) leaders_.insert(I.aux);
      if (I.op == Op::kJumpIfZero) {
        leaders_.insert(I.aux);
        leaders_.insert(i + 1);
      }
      if (ends_chunk(I.op) && i + 1 < f_.code.size()) leaders_.insert(i + 1);
    }
  }

  [[nodiscard]] std::uint32_t chunk_end(std::uint32_t start) const {
    for (std::uint32_t i = start; i < f_.code.size(); ++i) {
      if (i > start && leaders_.count(i) != 0) return i;
      if (ends_chunk(f_.code[i].op)) return i + 1;
    }
    return static_cast<std::uint32_t>(f_.code.size());
  }

  PointState entry_state() const {
    PointState st{State(f_.num_regs, info_of(Kind::kUnit)), {}, {}};
    for (std::uint16_t i = 0; i < f_.arity; ++i) {
      st.types[i] = info_of(kind_of_tag(f_.param_tags[i]));
      add_reg(st.must, i);
      add_reg(st.may, i);
    }
    return st;
  }

  void propagate(std::uint32_t target, const PointState& st,
                 std::vector<std::uint32_t>& worklist) {
    auto it = in_states_.find(target);
    if (it == in_states_.end()) {
      in_states_.emplace(target, st);
      worklist.push_back(target);
      return;
    }
    PointState& in = it->second;
    bool changed = false;
    for (std::size_t r = 0; r < st.types.size(); ++r) {
      const TypeInfo m = meet(in.types[r], st.types[r]);
      if (!(m == in.types[r])) {
        in.types[r] = m;
        changed = true;
      }
    }
    for (std::size_t w = 0; w < in.must.size(); ++w) {
      const std::uint64_t must = in.must[w] & st.must[w];
      const std::uint64_t may = in.may[w] | st.may[w];
      changed = changed || must != in.must[w] || may != in.may[w];
      in.must[w] = must;
      in.may[w] = may;
    }
    if (changed) worklist.push_back(target);
  }

  /// Type and assignment dataflow to a fixpoint. It also collects the
  /// registers the jump entry must still zero: (a) any register read
  /// natively where some path has not written it, and (b) any register
  /// written on some but not all paths to a chunk start, where a deopt
  /// could not tell whether it holds a value. Every other register is
  /// either written or reset from `resets_` at a deopt. Types only lose
  /// precision and must-sets only shrink as the fixpoint proceeds, so
  /// accumulating over every visit equals the final visit's answer.
  bool dataflow() {
    std::vector<std::uint32_t> worklist;
    RegSet eager{};
    in_states_.emplace(0, entry_state());
    worklist.push_back(0);
    while (!worklist.empty()) {
      const std::uint32_t start = worklist.back();
      worklist.pop_back();
      PointState st = in_states_.at(start);
      for (std::size_t w = 0; w < eager.size(); ++w) {
        eager[w] |= st.may[w] & ~st.must[w];
      }
      if (start >= f_.code.size()) continue;  // fell-off-the-end sentinel
      const std::uint32_t end = chunk_end(start);
      bool fell_through = true;
      for (std::uint32_t pc = start; pc < end; ++pc) {
        const Insn& I = f_.code[pc];
        Plan plan;
        if (!plan_insn(prog_, f_, I, st.types, plan, err_)) return false;
        if (plan.act == Plan::Act::kDeopt) { fell_through = false; break; }
        for_each_read(I, [&](std::uint16_t r) {
          if (!has_reg(st.must, r)) add_reg(eager, r);
        });
        if (const int w = written_reg(I); w >= 0) {
          add_reg(st.must, static_cast<std::uint16_t>(w));
          add_reg(st.may, static_cast<std::uint16_t>(w));
        }
        if (I.op == Op::kJump) {
          propagate(I.aux, st, worklist);
          fell_through = false;
          break;
        }
        if (I.op == Op::kJumpIfZero) {
          propagate(I.aux, st, worklist);
          propagate(pc + 1, st, worklist);
          fell_through = false;
          break;
        }
        if (plan.ends_path) { fell_through = false; break; }  // direct jump
      }
      if (fell_through) propagate(end, st, worklist);
    }
    for (std::uint16_t r = f_.arity; r < f_.num_regs; ++r) {
      if (has_reg(eager, r)) eager_clears_.push_back(r);
    }
    return true;
  }

  Assembler::Label chunk_label(std::uint32_t pc) {
    auto it = chunk_labels_.find(pc);
    if (it != chunk_labels_.end()) return it->second;
    const Assembler::Label l = a_.make_label();
    chunk_labels_.emplace(pc, l);
    return l;
  }

  Assembler::Label stub(std::uint32_t pc, DeoptReason reason,
                        const ClassCounts& counts, std::int32_t refund) {
    stubs_.push_back(DeoptStub{a_.make_label(), pc, reason, refund, counts});
    // Chunks are emitted in ascending pc order, so the table stays sorted;
    // several stubs at one pc share a row.
    if (resets_.pcs.empty() || resets_.pcs.back() != pc) {
      resets_.pcs.push_back(pc);
      RegSet& unwritten = resets_.bits.emplace_back();
      for (std::size_t w = 0; w < unwritten.size(); ++w) {
        unwritten[w] = ~emit_may_[w];
      }
    }
    return stubs_.back().label;
  }

  void emit_counts_add(const ClassCounts& counts) {
    bool any = false;
    for (const std::uint64_t v : counts) any = any || v != 0;
    if (!any) return;
    a_.mov_rm64(RAX, mem(RBX, kCtxClassCounts));
    for (std::size_t c = 0; c < counts.size(); ++c) {
      if (counts[c] != 0) {
        a_.add_mi64(mem(RAX, static_cast<std::int32_t>(8 * c)),
                    static_cast<std::int32_t>(counts[c]));
      }
    }
  }

  /// Pointer dereference through the table view. Expects the pointer value
  /// in frame[preg] (tag already guarded); leaves Block* in RAX. Clobbers
  /// RSI, RDI. Preserves RDX (which usually holds the effective offset).
  void emit_deref(std::uint16_t preg, Assembler::Label g) {
    a_.mov_rm32(RSI, vidx(preg));
    a_.mov_rm64(RDI, mem(RBX, kCtxTableView));
    a_.test_rr(RSI, RSI);
    a_.jcc(kE, g);
    a_.cmp_rm64(RSI, mem(RDI, 8));
    a_.jcc(kAe, g);
    a_.mov_rm64(RDI, mem(RDI, 0));
    a_.mov_rm64(RAX, mem(RDI, RSI, 8, 0));
    a_.test_rr(RAX, RAX);
    a_.jcc(kE, g);
  }

  /// effective_offset(frame[preg].ptr, frame[offreg].int) → RDX, guarded
  /// to fit in [0, 2^32). Clobbers RCX.
  void emit_eff(std::uint16_t preg, std::uint16_t offreg, Assembler::Label g) {
    a_.mov_rm32(RCX, voff(preg));
    a_.mov_rm64(RDX, vpay(offreg));
    a_.add_rr(RDX, RCX);
    a_.mov_rr(RCX, RDX);
    a_.sar_ri(RCX, 32);
    a_.test_rr(RCX, RCX);
    a_.jcc(kNe, g);
  }

  void emit_store_tag(std::uint16_t dst, Tag t) {
    a_.mov_mi64(vtag(dst), static_cast<std::int32_t>(t));
  }

  void emit_store_int_result(std::uint16_t dst, Reg r) {
    emit_store_tag(dst, Tag::kInt);
    a_.mov_mr64(vpay(dst), r);
  }

  void emit_helper_call(const void* helper, std::uint32_t nargs,
                        const std::array<std::uint32_t, 4>& args,
                        Assembler::Label trap) {
    a_.mov_rr(RDI, RBX);
    const Reg arg_regs[4] = {RSI, RDX, RCX, R8};
    for (std::uint32_t i = 0; i < nargs; ++i) {
      a_.mov_ri32(arg_regs[i], args[i]);
    }
    a_.mov_ri64(RAX, reinterpret_cast<std::uint64_t>(helper));
    a_.call_r(RAX);
    a_.test_rr(RAX, RAX);
    a_.jcc(kE, trap);
  }

  /// kRead/kWrite/kRaw* common prefix after tag guards: effective offset in
  /// RDX, Block* in RAX, kind checked. Bounds are checked per caller.
  void emit_access_prefix(const Insn& I, std::uint8_t kind,
                          Assembler::Label g) {
    emit_eff(I.r1, I.r2, g);
    emit_deref(I.r1, g);
    a_.cmp_mi8(mem(RAX, kBlockKind), kind);
    a_.jcc(kNe, g);
  }

  void emit_raw_bounds(std::uint32_t width, Assembler::Label g) {
    // off + width > count → trap (64-bit, no overflow possible).
    a_.mov_rm32(RCX, mem(RAX, kBlockCount));
    a_.lea(RSI, mem(RDX, static_cast<std::int32_t>(width)));
    a_.cmp_rr(RSI, RCX);
    a_.jcc(kA, g);
  }

  void emit_insn(const Insn& I, std::uint32_t pc, const Plan& plan,
                 const ClassCounts& prefix, std::int32_t refund) {
    const auto g = [&](DeoptReason r = DeoptReason::kGuard) {
      return stub(pc, r, prefix, refund);
    };
    // Tag guards first; a failed guard deopts to re-execute this insn.
    for (const TagGuard& gd : plan.guards) {
      a_.cmp_mi8(vtag(gd.reg), gd.tag);
      a_.jcc(kNe, g());
    }
    switch (plan.act) {
      case Plan::Act::kHelper:
      case Plan::Act::kHybrid:
        emit_slow_op(I, plan, g(DeoptReason::kHelperTrap), g());
        return;
      case Plan::Act::kDeopt:
      case Plan::Act::kDirect:
        return;  // handled by the chunk driver
      case Plan::Act::kInline:
        break;
    }
    emit_inline_op(I, g());
  }

  void emit_inline_op(const Insn& I, Assembler::Label g) {
    switch (I.op) {
      case Op::kLoadUnit:
        a_.mov_mi64(vtag(I.dst), 0);
        a_.mov_mi64(vpay(I.dst), 0);
        break;
      case Op::kLoadInt:
        emit_store_tag(I.dst, Tag::kInt);
        if (I.imm >= INT32_MIN && I.imm <= INT32_MAX) {
          a_.mov_mi64(vpay(I.dst), static_cast<std::int32_t>(I.imm));
        } else {
          a_.mov_ri64(RAX, static_cast<std::uint64_t>(I.imm));
          a_.mov_mr64(vpay(I.dst), RAX);
        }
        break;
      case Op::kLoadFloat: {
        std::uint64_t bits;
        std::memcpy(&bits, &I.fimm, sizeof(bits));
        emit_store_tag(I.dst, Tag::kFloat);
        a_.mov_ri64(RAX, bits);
        a_.mov_mr64(vpay(I.dst), RAX);
        break;
      }
      case Op::kLoadString:
        a_.mov_rm64(RAX, mem(RBX, kCtxStrings));
        a_.mov_rm32(RCX, mem(RAX, static_cast<std::int32_t>(4 * I.aux)));
        emit_store_tag(I.dst, Tag::kPtr);
        a_.mov_mr64(vpay(I.dst), RCX);
        break;
      case Op::kLoadFun:
        emit_store_tag(I.dst, Tag::kFun);
        a_.mov_mi64(vpay(I.dst), static_cast<std::int32_t>(I.aux));
        break;
      case Op::kLoadNull:
        emit_store_tag(I.dst, Tag::kPtr);
        a_.mov_mi64(vpay(I.dst), 0);
        break;
      case Op::kMove:
        a_.mov_rm64(RAX, vtag(I.r1));
        a_.mov_rm64(RCX, vpay(I.r1));
        a_.mov_mr64(vtag(I.dst), RAX);
        a_.mov_mr64(vpay(I.dst), RCX);
        break;
      case Op::kUnop:
        emit_unop(I);
        break;
      case Op::kBinop:
        emit_binop(I, g);
        break;
      case Op::kRead:
        emit_access_prefix(I, 0, g);
        a_.mov_rm32(RCX, mem(RAX, kBlockCount));
        a_.cmp_rr(RDX, RCX);
        a_.jcc(kAe, g);
        a_.shl_ri(RDX, 4);
        a_.cmp_mi8(mem(RAX, RDX, 1, kBlockPayload), I.sub);
        a_.jcc(kNe, g);
        a_.mov_rm64(RCX, mem(RAX, RDX, 1, kBlockPayload));
        a_.mov_rm64(RSI, mem(RAX, RDX, 1, kBlockPayload + 8));
        a_.mov_mr64(vtag(I.dst), RCX);
        a_.mov_mr64(vpay(I.dst), RSI);
        break;
      case Op::kRawLoad:
        emit_access_prefix(I, 1, g);
        emit_raw_bounds(I.sub, g);
        switch (I.sub) {
          case 8: a_.mov_rm64(RCX, mem(RAX, RDX, 1, kBlockPayload)); break;
          case 4: a_.movsx32_rm(RCX, mem(RAX, RDX, 1, kBlockPayload)); break;
          case 2: a_.movsx16_rm(RCX, mem(RAX, RDX, 1, kBlockPayload)); break;
          default: a_.movsx8_rm(RCX, mem(RAX, RDX, 1, kBlockPayload)); break;
        }
        emit_store_int_result(I.dst, RCX);
        break;
      case Op::kRawLoadF:
        emit_access_prefix(I, 1, g);
        emit_raw_bounds(8, g);
        a_.mov_rm64(RCX, mem(RAX, RDX, 1, kBlockPayload));
        emit_store_tag(I.dst, Tag::kFloat);
        a_.mov_mr64(vpay(I.dst), RCX);
        break;
      case Op::kLen:
        emit_deref(I.r1, g);
        a_.mov_rm32(RCX, mem(RAX, kBlockCount));
        emit_store_int_result(I.dst, RCX);
        break;
      case Op::kPtrAdd:
        emit_eff(I.r1, I.r2, g);
        a_.mov_rm32(RCX, vidx(I.r1));
        a_.shl_ri(RDX, 32);
        a_.or_rr(RDX, RCX);
        emit_store_tag(I.dst, Tag::kPtr);
        a_.mov_mr64(vpay(I.dst), RDX);
        break;
      default:
        break;  // control ops handled by the chunk driver
    }
  }

  void emit_unop(const Insn& I) {
    switch (I.sub) {
      case 0:  // neg
        a_.mov_rm64(RAX, vpay(I.r1));
        a_.neg_r(RAX);
        emit_store_int_result(I.dst, RAX);
        break;
      case 1:  // not
        a_.mov_rm64(RAX, vpay(I.r1));
        a_.xor_rr(RCX, RCX);
        a_.test_rr(RAX, RAX);
        a_.setcc(kE, RCX);
        emit_store_int_result(I.dst, RCX);
        break;
      case 2:  // bitnot
        a_.mov_rm64(RAX, vpay(I.r1));
        a_.not_r(RAX);
        emit_store_int_result(I.dst, RAX);
        break;
      case 3:  // fneg: flip the sign bit, exactly IEEE negation
        a_.mov_rm64(RAX, vpay(I.r1));
        a_.mov_ri64(RCX, 0x8000000000000000ULL);
        a_.xor_rr(RAX, RCX);
        emit_store_tag(I.dst, Tag::kFloat);
        a_.mov_mr64(vpay(I.dst), RAX);
        break;
      case 4:  // int_of_float: cvttsd2si, same as the compiled C++ cast
        a_.movsd_xm(XMM0, vpay(I.r1));
        a_.cvttsd2si(RAX, XMM0);
        emit_store_int_result(I.dst, RAX);
        break;
      default:  // 5: float_of_int
        a_.mov_rm64(RAX, vpay(I.r1));
        a_.cvtsi2sd(XMM0, RAX);
        emit_store_tag(I.dst, Tag::kFloat);
        a_.movsd_mx(vpay(I.dst), XMM0);
        break;
    }
  }

  void emit_binop(const Insn& I, Assembler::Label g) {
    using fir_sub = std::uint8_t;
    const fir_sub s = I.sub;
    if (is_float_arith(s)) {
      a_.movsd_xm(XMM0, vpay(I.r1));
      a_.movsd_xm(XMM1, vpay(I.r2));
      switch (s) {
        case 16: a_.addsd(XMM0, XMM1); break;
        case 17: a_.subsd(XMM0, XMM1); break;
        case 18: a_.mulsd(XMM0, XMM1); break;
        default: a_.divsd(XMM0, XMM1); break;
      }
      emit_store_tag(I.dst, Tag::kFloat);
      a_.movsd_mx(vpay(I.dst), XMM0);
      return;
    }
    if (is_float_cmp(s)) {
      // cmpsd predicates: 0=eq 1=lt 2=le 4=neq; gt/ge via operand swap.
      // Ordered predicates are false on NaN, matching C++ <, <=, ==; NEQ
      // is true on NaN, matching !=.
      bool swap = s == 22 || s == 23;  // FGt, FGe
      std::uint8_t pred;
      switch (s) {
        case 20: pred = 1; break;  // FLt
        case 21: pred = 2; break;  // FLe
        case 22: pred = 1; break;  // FGt  (b < a)
        case 23: pred = 2; break;  // FGe  (b <= a)
        case 24: pred = 0; break;  // FEq
        default: pred = 4; break;  // FNe
      }
      a_.movsd_xm(XMM0, vpay(swap ? I.r2 : I.r1));
      a_.movsd_xm(XMM1, vpay(swap ? I.r1 : I.r2));
      a_.cmpsd(XMM0, XMM1, pred);
      a_.movq_rx(RAX, XMM0);
      a_.and_ri(RAX, 1);
      emit_store_int_result(I.dst, RAX);
      return;
    }
    // Integer forms.
    switch (s) {
      case 0: case 1: case 2: case 5: case 6: case 7:  // add sub mul and or xor
        a_.mov_rm64(RAX, vpay(I.r1));
        a_.mov_rm64(RCX, vpay(I.r2));
        switch (s) {
          case 0: a_.add_rr(RAX, RCX); break;
          case 1: a_.sub_rr(RAX, RCX); break;
          case 2: a_.imul_rr(RAX, RCX); break;
          case 5: a_.and_rr(RAX, RCX); break;
          case 6: a_.or_rr(RAX, RCX); break;
          default: a_.xor_rr(RAX, RCX); break;
        }
        emit_store_int_result(I.dst, RAX);
        break;
      case 3: case 4: {
        // div, mod: a divisor of 0 or -1 deopts — the interpreter raises
        // the zero trap, and computes the wrapped INT64_MIN / -1 that
        // idiv would fault on. (divisor + 1) <= 1 unsigned is both cases.
        a_.mov_rm64(RAX, vpay(I.r1));
        a_.mov_rm64(RCX, vpay(I.r2));
        a_.lea(RDX, mem(RCX, 1));
        a_.cmp_ri(RDX, 1);
        a_.jcc(kBe, g);
        a_.cqo();
        a_.idiv_r(RCX);
        emit_store_int_result(I.dst, s == 3 ? RAX : RDX);
        break;
      }
      case 8: case 9:  // shl, shr — hardware masks the count to 63, as eval does
        a_.mov_rm64(RAX, vpay(I.r1));
        a_.mov_rm64(RCX, vpay(I.r2));
        if (s == 8) a_.shl_cl(RAX);
        else a_.sar_cl(RAX);
        emit_store_int_result(I.dst, RAX);
        break;
      default: {  // comparisons 10..15
        Cc cc;
        switch (s) {
          case 10: cc = kL; break;
          case 11: cc = kLe; break;
          case 12: cc = kG; break;
          case 13: cc = kGe; break;
          case 14: cc = kE; break;
          default: cc = kNe; break;
        }
        a_.xor_rr(RCX, RCX);
        a_.mov_rm64(RAX, vpay(I.r1));
        a_.cmp_rm64(RAX, vpay(I.r2));
        a_.setcc(cc, RCX);
        emit_store_int_result(I.dst, RCX);
        break;
      }
    }
  }

  /// SpeculationManager::before_write's early-out, inlined for the Block*
  /// in RAX: fall through when no level is active or the block's epoch is
  /// at least the newest level's entry epoch (already versioned there);
  /// otherwise jump to `slow`, where the helper runs the hook. Clobbers RCX.
  void emit_cow_test(Assembler::Label slow) {
    Assembler::Label store = a_.make_label();
    a_.mov_rm64(RCX, mem(RBX, kCtxSpecLevels));
    a_.cmp_mi64(mem(RCX, 0), 0);
    a_.jcc(kE, store);
    a_.mov_rm64(RCX, mem(RBX, kCtxSpecTopEpoch));
    a_.mov_rm64(RCX, mem(RCX, 0));
    a_.cmp_rm64(RCX, mem(RAX, kBlockSpecEpoch));
    a_.jcc(kA, slow);  // top epoch > block epoch: needs a clone
    a_.bind(store);
  }

  void emit_slow_op(const Insn& I, const Plan& plan, Assembler::Label trap,
                    Assembler::Label g) {
    const bool hybrid = plan.act == Plan::Act::kHybrid;
    Assembler::Label slow = a_.make_label();
    Assembler::Label done = a_.make_label();
    if (hybrid) {
      // Fast path: the access and bounds guards, then an inline store
      // whenever the copy-on-write hook has nothing to do. The stored value
      // is statically non-pointer, so the write barrier is a no-op.
      switch (I.op) {
        case Op::kWrite:
          emit_access_prefix(I, 0, g);
          a_.mov_rm32(RCX, mem(RAX, kBlockCount));
          a_.cmp_rr(RDX, RCX);
          a_.jcc(kAe, g);
          break;
        case Op::kRawStore:
          emit_access_prefix(I, 1, g);
          emit_raw_bounds(I.sub, g);
          break;
        default:  // kRawStoreF
          emit_access_prefix(I, 1, g);
          emit_raw_bounds(8, g);
          break;
      }
      emit_cow_test(slow);
      switch (I.op) {
        case Op::kWrite:
          a_.shl_ri(RDX, 4);
          a_.mov_rm64(RCX, vtag(I.r3));
          a_.mov_rm64(RSI, vpay(I.r3));
          a_.mov_mr64(mem(RAX, RDX, 1, kBlockPayload), RCX);
          a_.mov_mr64(mem(RAX, RDX, 1, kBlockPayload + 8), RSI);
          break;
        case Op::kRawStore:
          a_.mov_rm64(RCX, vpay(I.r3));
          switch (I.sub) {
            case 8: a_.mov_mr64(mem(RAX, RDX, 1, kBlockPayload), RCX); break;
            case 4: a_.mov_mr32(mem(RAX, RDX, 1, kBlockPayload), RCX); break;
            case 2: a_.mov_mr16(mem(RAX, RDX, 1, kBlockPayload), RCX); break;
            default: a_.mov_mr8(mem(RAX, RDX, 1, kBlockPayload), RCX); break;
          }
          break;
        default:  // kRawStoreF
          a_.mov_rm64(RCX, vpay(I.r3));
          a_.mov_mr64(mem(RAX, RDX, 1, kBlockPayload), RCX);
          break;
      }
      a_.jmp(done);
    }
    a_.bind(slow);
    switch (I.op) {
      case Op::kAllocTagged:
        emit_helper_call(reinterpret_cast<const void*>(&moj_nat_alloc_tagged),
                         3, {I.r1, I.r2, I.dst, 0}, trap);
        break;
      case Op::kAllocRaw:
        emit_helper_call(reinterpret_cast<const void*>(&moj_nat_alloc_raw), 2,
                         {I.r1, I.dst, 0, 0}, trap);
        break;
      case Op::kWrite:
        emit_helper_call(reinterpret_cast<const void*>(&moj_nat_write_slot), 3,
                         {I.r1, I.r2, I.r3, 0}, trap);
        break;
      case Op::kRawStore:
        emit_helper_call(reinterpret_cast<const void*>(&moj_nat_raw_store), 4,
                         {I.r1, I.r2, I.r3, I.sub}, trap);
        break;
      default:  // kRawStoreF
        emit_helper_call(reinterpret_cast<const void*>(&moj_nat_raw_store_f),
                         3, {I.r1, I.r2, I.r3, 0}, trap);
        break;
    }
    a_.bind(done);
  }

  void emit_direct_jump(const Insn& I, std::uint32_t pc, const Plan& plan,
                        const ClassCounts& prefix, std::int32_t refund,
                        const ClassCounts& full) {
    // Resolve the target's native entry; a not-yet-compiled target deopts
    // at this pc and the interpreter performs the transfer (which feeds the
    // target's own hotness counter).
    a_.mov_rm64(R9, mem(RBX, kCtxEntries));
    a_.mov_rm64(R9, mem(R9, static_cast<std::int32_t>(8 * plan.callee)));
    a_.test_rr(R9, R9);
    a_.jcc(kE, stub(pc, DeoptReason::kColdTarget, prefix, refund));
    // The transfer completes natively: account the whole chunk and the call.
    emit_counts_add(full);
    a_.mov_rm64(RCX, mem(RBX, kCtxCalls));
    a_.inc_m64(mem(RCX, 0));
    // Parallel argument move through argbuf (args may overlap the low
    // registers they land in). Only the positions whose source register
    // is not the destination move: an identity position (args[i] == i) is
    // already in place, and no other move writes register i, so skipping
    // it is exact. A block that passes its state through moves nothing.
    std::vector<std::size_t> moved;
    for (std::size_t i = 0; i < I.args.size(); ++i) {
      if (I.args[i] != i) moved.push_back(i);
    }
    if (!moved.empty()) {
      a_.mov_rm64(RCX, mem(RBX, kCtxArgbuf));
      for (const std::size_t i : moved) {
        const std::int32_t off = static_cast<std::int32_t>(16 * i);
        a_.mov_rm64(RDX, vtag(I.args[i]));
        a_.mov_mr64(mem(RCX, off), RDX);
        a_.mov_rm64(RDX, vpay(I.args[i]));
        a_.mov_mr64(mem(RCX, off + 8), RDX);
      }
      for (const std::size_t i : moved) {
        const std::int32_t off = static_cast<std::int32_t>(16 * i);
        a_.mov_rm64(RDX, mem(RCX, off));
        a_.mov_mr64(vtag(static_cast<std::uint16_t>(i)), RDX);
        a_.mov_rm64(RDX, mem(RCX, off + 8));
        a_.mov_mr64(vpay(static_cast<std::uint16_t>(i)), RDX);
      }
    }
    a_.jmp_r(R9);
  }

  void emit_chunk(std::uint32_t start) {
    a_.bind(chunk_label(start));
    const PointState& in = in_states_.at(start);
    emit_may_ = in.may;
    if (start >= f_.code.size()) {
      // Control fell off the end: deopt; the interpreter raises the
      // canonical "program counter fell off the end" error.
      a_.jmp(stub(start, DeoptReason::kGuard, ClassCounts{}, 0));
      return;
    }
    const std::uint32_t end = chunk_end(start);
    const auto cost = static_cast<std::int32_t>(end - start);
    // Pre-pay the chunk's instruction budget; exits refund the unexecuted
    // suffix, so the interpreter's exhaustion point is reproduced exactly.
    a_.sub_mi64(mem(RBX, kCtxBudget), cost);
    a_.jcc(kS, stub(start, DeoptReason::kBudget, ClassCounts{}, cost));

    State st = in.types;
    ClassCounts prefix{};
    std::int32_t done_insns = 0;
    for (std::uint32_t pc = start; pc < end; ++pc) {
      const Insn& I = f_.code[pc];
      const std::int32_t refund = cost - done_insns;
      Plan plan;
      if (!plan_insn(prog_, f_, I, st, plan, err_)) return;

      if (plan.act == Plan::Act::kDeopt) {
        emit_insn(I, pc, plan, prefix, refund);  // guards (none) — no-op
        a_.jmp(stub(pc, plan.reason, prefix, refund));
        return;
      }

      if (I.op == Op::kJump) {
        ClassCounts full = prefix;
        full[I.cls] += 1;
        emit_counts_add(full);
        a_.jmp(chunk_label(I.aux));
        return;
      }
      if (I.op == Op::kJumpIfZero) {
        emit_insn(I, pc, plan, prefix, refund);  // guards only
        ClassCounts full = prefix;
        full[I.cls] += 1;
        emit_counts_add(full);
        a_.mov_rm64(RAX, vpay(I.r1));
        a_.test_rr(RAX, RAX);
        a_.jcc(kE, chunk_label(I.aux));
        a_.jmp(chunk_label(pc + 1));
        return;
      }
      if (plan.act == Plan::Act::kDirect) {
        ClassCounts full = prefix;
        full[I.cls] += 1;
        emit_direct_jump(I, pc, plan, prefix, refund, full);
        return;
      }

      emit_insn(I, pc, plan, prefix, refund);
      if (const int w = written_reg(I); w >= 0) {
        add_reg(emit_may_, static_cast<std::uint16_t>(w));
      }
      prefix[I.cls] += 1;
      ++done_insns;
    }
    // Fell through to the next leader.
    emit_counts_add(prefix);
    a_.jmp(chunk_label(end));
  }

  void emit() {
    // Prologue (the C-callable entry, offset 0).
    a_.push_r(RBX);
    a_.push_r(R12);
    a_.push_r(R13);  // third push keeps rsp 16-aligned at helper calls
    a_.mov_rr(RBX, RDI);
    a_.mov_rm64(R12, mem(RBX, kCtxFrame));

    // The jump entry: arguments were placed by the caller, and every other
    // register still holds whatever the caller's frame left there. Only
    // the registers dataflow() found an exact deopt could not rebuild are
    // zeroed here (none, for code lowered from the FIR); the rest are
    // reset to unit by the engine at a deopt, from `resets_`.
    jump_entry_ = static_cast<std::size_t>(a_.pos());
    for (const std::uint16_t r : eager_clears_) {
      a_.mov_mi64(vtag(r), 0);
      a_.mov_mi64(vpay(r), 0);
    }

    // Chunks in ascending order; the entry chunk (pc 0) comes first, so
    // the jump entry falls straight into it.
    std::vector<std::uint32_t> order;
    for (const auto& [start, state] : in_states_) order.push_back(start);
    std::sort(order.begin(), order.end());
    for (const std::uint32_t start : order) {
      emit_chunk(start);
      if (!err_.empty()) return;
    }

    // Deoptimization stubs. (stubs_ may grow while emitting — index loop.)
    for (std::size_t i = 0; i < stubs_.size(); ++i) {
      const DeoptStub s = stubs_[i];
      a_.bind(s.label);
      if (s.refund != 0) a_.add_mi64(mem(RBX, kCtxBudget), s.refund);
      emit_counts_add(s.counts);
      a_.mov_mi32(mem(RBX, kCtxDeoptFun), static_cast<std::int32_t>(fun_));
      a_.mov_mi32(mem(RBX, kCtxDeoptPc), static_cast<std::int32_t>(s.pc));
      a_.mov_mi32(mem(RBX, kCtxDeoptReason),
                  static_cast<std::int32_t>(s.reason));
      a_.jmp(epilogue_);
    }

    a_.bind(epilogue_);
    a_.pop_r(R13);
    a_.pop_r(R12);
    a_.pop_r(RBX);
    a_.ret();
  }

  const CompiledProgram& prog_;
  const FunIndex fun_;
  const CompiledFunction& f_;

  Assembler a_;
  Assembler::Label epilogue_ = a_.make_label();
  std::set<std::uint32_t> leaders_;
  std::map<std::uint32_t, PointState> in_states_;
  std::vector<std::uint16_t> eager_clears_;
  DeoptResets resets_;
  /// Registers some path to the instruction being emitted has written.
  RegSet emit_may_{};
  std::map<std::uint32_t, Assembler::Label> chunk_labels_;
  std::vector<DeoptStub> stubs_;
  std::size_t jump_entry_ = 0;
  std::string err_;
};

}  // namespace

CompileResult compile_function(const CompiledProgram& prog, FunIndex fun) {
  if (fun >= prog.functions.size()) {
    CompileResult r;
    r.error = "function index out of range";
    return r;
  }
  return FunctionCompiler(prog, fun).run();
}

}  // namespace mojave::native
