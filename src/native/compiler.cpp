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

// --- Register cache ----------------------------------------------------------
//
// Inside a chunk, virtual registers live in machine registers: each is
// loaded from the frame at its first use, `ldi`/`ldf` results stay
// compile-time constants, and a pointer's Block* is derived once. The
// frame is brought up to date only where something outside the chunk can
// look at it: at a chunk end inside the function, in every deopt stub, and
// before every C helper call. A direct jump writes only the callee's
// argument slots.

/// Where a virtual register's current value is, inside one chunk.
enum class Loc : std::uint8_t {
  kFrame,  ///< only in its frame slot, which is current
  kConst,  ///< a compile-time constant (payload bits in `imm`)
  kGpr,    ///< in general-purpose register `reg`
  kXmm,    ///< in XMM register `reg` (floats, and ints parked there)
};

struct Slot {
  Loc loc = Loc::kFrame;
  std::uint8_t reg = 0;
  /// The frame slot is stale until this value is written back.
  bool dirty = false;
  Kind kind = Kind::kAny;      ///< the value's kind when loc != kFrame
  std::int64_t imm = 0;        ///< kConst payload
  std::int8_t frame_tag = -1;  ///< tag the frame slot provably holds, or -1
  std::int8_t blk = -1;        ///< GPR caching this pointer's Block*, or -1
  std::uint8_t kinds_ok = 0;   ///< bit k: block kind k already checked
};

/// One dirty value a deopt stub or a helper call writes back to the frame.
struct Spill {
  std::uint16_t vreg = 0;
  Loc loc = Loc::kConst;
  std::uint8_t reg = 0;
  std::int8_t tag = -1;  ///< tag to store, or -1 when the frame holds it
  std::int64_t imm = 0;

  [[nodiscard]] bool operator==(const Spill&) const = default;
};

using Spills = std::vector<Spill>;

/// Machine registers the cache hands out. RAX and RDX are scratch inside
/// one instruction's sequence and XMM15 is the float scratch; RBX (the
/// context), R12 (the frame), R13/R14 (the packed counters) and R15 (the
/// budget window) are pinned.
constexpr Reg kCacheGprs[] = {RCX, RSI, RDI, R8, R9, R10, R11, RBP};
constexpr std::uint8_t kCacheXmms = 15;  // XMM0..XMM14
constexpr Xmm kXmmScratch = XMM15;

// --- Accounting registers ---------------------------------------------------
//
// The instruction budget and the hot per-class counters live in pinned
// registers, so a chunk's accounting is register arithmetic rather than a
// chain of read-modify-writes through memory. R15 holds a window of the
// budget (at most kBudgetWindow; the rest stays in budget_left). R13 and
// R14 each pack three 21-bit counters. Both are flushed on every exit and
// whenever a chunk start refills the window; a window retires less than
// kBudgetWindow + kMaxCode instructions, so no field can overflow.
constexpr Reg kBudgetReg = R15;
constexpr Reg kCountsLo = R13;  ///< load | arith << 21 | control << 42
constexpr Reg kCountsHi = R14;  ///< heap_read | heap_write << 21 | calls << 42
constexpr int kFieldBits = 21;
constexpr std::int32_t kBudgetWindow = 1 << 20;
static_assert(kBudgetWindow + kMaxCode < (1 << kFieldBits));

/// Where a packed counter lives: its register and bit offset, and the
/// class it belongs to (kCallsField: the interpreter's call counter).
struct Field {
  Reg reg;
  int shift;
  int cls;
};
constexpr int kCallsField = -1;
constexpr Field kFields[] = {
    {kCountsLo, 0, static_cast<int>(vm::OpClass::kLoad)},
    {kCountsLo, kFieldBits, static_cast<int>(vm::OpClass::kArith)},
    {kCountsLo, 2 * kFieldBits, static_cast<int>(vm::OpClass::kControl)},
    {kCountsHi, 0, static_cast<int>(vm::OpClass::kHeapRead)},
    {kCountsHi, kFieldBits, static_cast<int>(vm::OpClass::kHeapWrite)},
    {kCountsHi, 2 * kFieldBits, kCallsField},
};

/// next_use() result for a value no later instruction of the chunk reads.
constexpr int kNever = 1 << 20;
/// next_use() looks this many instructions ahead at most.
constexpr int kLookahead = 256;

bool fits_i32(std::int64_t v) { return v >= INT32_MIN && v <= INT32_MAX; }

/// The register whose Block* `I` dereferences, or -1.
int accessed_ptr(const Insn& I) {
  switch (I.op) {
    case Op::kRead: case Op::kWrite: case Op::kRawLoad: case Op::kRawStore:
    case Op::kRawLoadF: case Op::kRawStoreF: case Op::kLen:
      return I.r1;
    default:
      return -1;
  }
}

struct DeoptStub {
  Assembler::Label label;
  std::uint32_t pc = 0;
  DeoptReason reason = DeoptReason::kUnsupported;
  std::int32_t refund = 0;
  ClassCounts counts{};
  Spills spills;  ///< dirty values written back before the record
};

/// A chunk start whose budget window ran out: refill it from budget_left
/// and retry, or deopt when the budget itself is exhausted.
struct BudgetPath {
  Assembler::Label entry;
  Assembler::Label chunk;
  std::int32_t cost = 0;
  Assembler::Label exhausted;
};

/// The out-of-line half of a hybrid store: write back, call the helper,
/// reload the cached registers it clobbered, rejoin the inline path.
struct SlowPath {
  Assembler::Label entry;
  Assembler::Label resume;
  Assembler::Label trap;
  const void* helper = nullptr;
  std::uint32_t nargs = 0;
  std::array<std::uint32_t, 4> args{};
  Spills spills;
  Spills reloads;  ///< values cached in machine registers (loc, reg, vreg)
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
                        const ClassCounts& counts, std::int32_t refund,
                        Spills spills) {
    // Consecutive exits of one instruction usually see the same state.
    if (!stubs_.empty()) {
      const DeoptStub& last = stubs_.back();
      if (last.pc == pc && last.reason == reason && last.refund == refund &&
          last.counts == counts && last.spills == spills) {
        return last.label;
      }
    }
    stubs_.push_back(DeoptStub{a_.make_label(), pc, reason, refund, counts,
                               std::move(spills)});
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

  /// A deopt exit at the instruction being emitted, with the cache as it
  /// stands now: the stub writes back every dirty value first.
  Assembler::Label exit(DeoptReason reason = DeoptReason::kGuard) {
    return stub(pc_, reason, prefix_, refund_, dirty_spills());
  }

  /// Retires `counts` (and `calls` direct jumps): packed classes into
  /// R13/R14, the rest straight into the interpreter's counters.
  void emit_retire(const ClassCounts& counts, std::uint64_t calls = 0) {
    ClassCounts rest = counts;
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    for (const Field& f : kFields) {
      std::uint64_t n = calls;
      if (f.cls != kCallsField) {
        n = counts[static_cast<std::size_t>(f.cls)];
        rest[static_cast<std::size_t>(f.cls)] = 0;
      }
      (f.reg == kCountsLo ? lo : hi) += n << f.shift;
    }
    for (const auto& [reg, v] : {std::pair{kCountsLo, lo}, {kCountsHi, hi}}) {
      if (v == 0) continue;
      if (v <= INT32_MAX) {
        a_.add_ri(reg, static_cast<std::int32_t>(v));
      } else {
        a_.mov_ri64(RAX, v);
        a_.add_rr(reg, RAX);
      }
    }
    emit_counts_add(rest);
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

  // --- Cache bookkeeping ----------------------------------------------------

  /// Chunk start: every value is in the frame. A slot's tag is known where
  /// every path has written the register and the dataflow knows its kind.
  void cache_reset(const PointState& in) {
    slots_.assign(f_.num_regs, Slot{});
    for (std::uint16_t r = 0; r < f_.num_regs; ++r) {
      if (has_reg(in.must, r) && in.types[r].kind != Kind::kAny) {
        slots_[r].frame_tag =
            static_cast<std::int8_t>(tag_of_kind(in.types[r].kind));
      }
    }
    gpr_val_.fill(-1);
    gpr_blk_.fill(-1);
    xmm_val_.fill(-1);
  }

  bool gpr_free(Reg r) const { return gpr_val_[r] < 0 && gpr_blk_[r] < 0; }
  bool gpr_locked(Reg r) const { return ((gpr_lock_ >> r) & 1) != 0; }
  bool xmm_locked(std::uint8_t x) const { return ((xmm_lock_ >> x) & 1) != 0; }
  void lock_gpr(Reg r) { gpr_lock_ |= 1U << r; }
  void lock_xmm(std::uint8_t x) { xmm_lock_ |= 1U << x; }

  /// Instructions from the current one to the next that reads `v`'s value
  /// (with `blk`, that dereferences it), or kNever when it is dead here.
  int next_use(std::uint16_t v, bool blk) const {
    const std::uint32_t stop =
        std::min<std::uint32_t>(end_, pc_ + kLookahead);
    for (std::uint32_t pc = pc_; pc < stop; ++pc) {
      const Insn& I = f_.code[pc];
      bool reads = false;
      if (blk) {
        reads = accessed_ptr(I) == v;
      } else {
        for_each_read(I, [&](std::uint16_t r) { reads = reads || r == v; });
      }
      if (reads) return static_cast<int>(pc - pc_);
      if (written_reg(I) == v) return kNever;
    }
    return stop == end_ ? kNever : kLookahead;
  }

  Spill spill_of(std::uint16_t v) const {
    const Slot& s = slots_[v];
    const auto tag = static_cast<std::int8_t>(tag_of_kind(s.kind));
    return Spill{v, s.loc, s.reg, s.frame_tag == tag ? std::int8_t{-1} : tag,
                 s.imm};
  }

  Spills dirty_spills() const {
    Spills out;
    for (std::uint16_t v = 0; v < f_.num_regs; ++v) {
      if (slots_[v].dirty) out.push_back(spill_of(v));
    }
    return out;
  }

  void store_imm(Mem m, std::int64_t v) {
    if (fits_i32(v)) {
      a_.mov_mi64(m, static_cast<std::int32_t>(v));
    } else {
      a_.mov_ri64(RAX, static_cast<std::uint64_t>(v));
      a_.mov_mr64(m, RAX);
    }
  }

  /// Stores the 64-bit payload of `v`'s value, found at (loc, reg, imm),
  /// to `m`. Uses RAX for a constant wider than 32 bits and to copy from
  /// the frame slot.
  void store_payload(Mem m, std::uint16_t v, Loc loc, std::uint8_t reg,
                     std::int64_t imm) {
    switch (loc) {
      case Loc::kGpr: a_.mov_mr64(m, static_cast<Reg>(reg)); break;
      case Loc::kXmm: a_.movsd_mx(m, static_cast<Xmm>(reg)); break;
      case Loc::kConst: store_imm(m, imm); break;
      case Loc::kFrame:
        a_.mov_rm64(RAX, vpay(v));
        a_.mov_mr64(m, RAX);
        break;
    }
  }

  /// Stores one dirty value into its frame slot, tag first when needed.
  void emit_spill(const Spill& sp) {
    if (sp.tag >= 0) a_.mov_mi64(vtag(sp.vreg), sp.tag);
    store_payload(vpay(sp.vreg), sp.vreg, sp.loc, sp.reg, sp.imm);
  }

  void write_back(std::uint16_t v) {
    Slot& s = slots_[v];
    if (!s.dirty) return;
    emit_spill(spill_of(v));
    s.dirty = false;
    s.frame_tag = static_cast<std::int8_t>(tag_of_kind(s.kind));
  }

  void write_back_all() {
    for (std::uint16_t v = 0; v < f_.num_regs; ++v) write_back(v);
  }

  /// `v` no longer has a cached value or Block*; its frame slot is as is.
  void forget(std::uint16_t v) {
    Slot& s = slots_[v];
    if (s.loc == Loc::kGpr) gpr_val_[s.reg] = -1;
    if (s.loc == Loc::kXmm) xmm_val_[s.reg] = -1;
    if (s.blk >= 0) gpr_blk_[s.blk] = -1;
    s.loc = Loc::kFrame;
    s.dirty = false;
    s.blk = -1;
    s.kinds_ok = 0;
  }

  /// Writes back every dirty value and empties the cache: what a C helper
  /// call needs, since it reads the frame and clobbers the registers.
  void flush_all() {
    write_back_all();
    for (std::uint16_t v = 0; v < f_.num_regs; ++v) forget(v);
  }

  void drop_blocks() {
    for (const Reg r : kCacheGprs) {
      if (gpr_blk_[r] < 0) continue;
      Slot& s = slots_[gpr_blk_[r]];
      s.blk = -1;
      s.kinds_ok = 0;
      gpr_blk_[r] = -1;
    }
  }

  /// `v` takes a new value (the instruction's result): dirty, its old
  /// register and Block* released. The frame slot's tag is unchanged.
  void define(std::uint16_t v, Loc loc, std::uint8_t reg, std::int64_t imm,
              Kind kind) {
    forget(v);
    Slot& s = slots_[v];
    s.loc = loc;
    s.reg = reg;
    s.imm = imm;
    s.kind = kind;
    s.dirty = true;
    if (loc == Loc::kGpr) gpr_val_[reg] = static_cast<std::int16_t>(v);
    if (loc == Loc::kXmm) xmm_val_[reg] = static_cast<std::int16_t>(v);
  }

  int free_xmm() const {
    for (std::uint8_t x = 0; x < kCacheXmms; ++x) {
      if (xmm_val_[x] < 0 && !xmm_locked(x)) return x;
    }
    return -1;
  }

  void evict_gpr(Reg r) {
    if (gpr_blk_[r] >= 0) {
      Slot& s = slots_[gpr_blk_[r]];
      s.blk = -1;
      s.kinds_ok = 0;
      gpr_blk_[r] = -1;
      return;
    }
    const auto v = static_cast<std::uint16_t>(gpr_val_[r]);
    Slot& s = slots_[v];
    if (s.dirty) {
      // Park a dirty value in a free XMM rather than store it.
      if (const int x = free_xmm(); x >= 0) {
        a_.movq_xr(static_cast<Xmm>(x), r);
        s.loc = Loc::kXmm;
        s.reg = static_cast<std::uint8_t>(x);
        xmm_val_[x] = static_cast<std::int16_t>(v);
        gpr_val_[r] = -1;
        return;
      }
      write_back(v);
    }
    s.loc = Loc::kFrame;
    gpr_val_[r] = -1;
  }

  void evict_xmm(std::uint8_t x) {
    const auto v = static_cast<std::uint16_t>(xmm_val_[x]);
    write_back(v);
    slots_[v].loc = Loc::kFrame;
    xmm_val_[x] = -1;
  }

  /// Eviction preference: dead or clean values first, then a Block* that
  /// is used again, then live dirty values (farthest next use first).
  int value_cost(std::int16_t v) const {
    const int d = next_use(static_cast<std::uint16_t>(v), false);
    if (!slots_[v].dirty) return d == kNever ? 0 : 2000 - d;
    return d == kNever ? 1000 : 4000 - d;
  }

  int eviction_cost(Reg r) const {
    if (gpr_blk_[r] < 0) return value_cost(gpr_val_[r]);
    const int d = next_use(static_cast<std::uint16_t>(gpr_blk_[r]), true);
    return d == kNever ? 0 : 3000 - d;
  }

  /// A free GPR, evicting a value if every one is taken. Locked for the
  /// rest of the instruction.
  Reg alloc_gpr() {
    Reg best = RAX;
    int best_cost = INT32_MAX;
    for (const Reg r : kCacheGprs) {
      if (gpr_locked(r)) continue;
      if (gpr_free(r)) {
        lock_gpr(r);
        return r;
      }
      const int cost = eviction_cost(r);
      if (cost < best_cost) {
        best = r;
        best_cost = cost;
      }
    }
    if (best == RAX) {
      err_ = "register cache exhausted";
      return RCX;
    }
    evict_gpr(best);
    lock_gpr(best);
    return best;
  }

  Xmm alloc_xmm() {
    int best = -1;
    int best_cost = INT32_MAX;
    for (std::uint8_t x = 0; x < kCacheXmms; ++x) {
      if (xmm_locked(x)) continue;
      if (xmm_val_[x] < 0) {
        lock_xmm(x);
        return static_cast<Xmm>(x);
      }
      const int cost = value_cost(xmm_val_[x]);
      if (cost < best_cost) {
        best = x;
        best_cost = cost;
      }
    }
    if (best < 0) {
      err_ = "register cache exhausted";
      return XMM0;
    }
    evict_xmm(static_cast<std::uint8_t>(best));
    lock_xmm(static_cast<std::uint8_t>(best));
    return static_cast<Xmm>(best);
  }

  /// `v`'s value in a GPR it keeps for the rest of the chunk (loaded at
  /// this first use); locked for the instruction.
  Reg gpr_of(std::uint16_t v) {
    Slot& s = slots_[v];
    if (s.loc == Loc::kGpr) {
      lock_gpr(static_cast<Reg>(s.reg));
      return static_cast<Reg>(s.reg);
    }
    const Reg r = alloc_gpr();
    switch (s.loc) {
      case Loc::kConst: a_.mov_imm(r, s.imm); break;
      case Loc::kXmm:
        a_.movq_rx(r, static_cast<Xmm>(s.reg));
        xmm_val_[s.reg] = -1;
        break;
      default: a_.mov_rm64(r, vpay(v)); break;
    }
    s.loc = Loc::kGpr;
    s.reg = r;
    gpr_val_[r] = static_cast<std::int16_t>(v);
    return r;
  }

  Xmm xmm_of(std::uint16_t v) {
    Slot& s = slots_[v];
    if (s.loc == Loc::kXmm) {
      lock_xmm(s.reg);
      return static_cast<Xmm>(s.reg);
    }
    const Xmm x = alloc_xmm();
    switch (s.loc) {
      case Loc::kConst:
        a_.mov_imm(RAX, s.imm);
        a_.movq_xr(x, RAX);
        break;
      case Loc::kGpr:
        a_.movq_xr(x, static_cast<Reg>(s.reg));
        gpr_val_[s.reg] = -1;
        break;
      default: a_.movsd_xm(x, vpay(v)); break;
    }
    s.loc = Loc::kXmm;
    s.reg = x;
    xmm_val_[x] = static_cast<std::int16_t>(v);
    return x;
  }

  /// Copies `v`'s 64-bit payload into `dst` without caching it there.
  void load_bits(Reg dst, std::uint16_t v) {
    const Slot& s = slots_[v];
    switch (s.loc) {
      case Loc::kGpr: a_.mov_rr(dst, static_cast<Reg>(s.reg)); break;
      case Loc::kXmm: a_.movq_rx(dst, static_cast<Xmm>(s.reg)); break;
      case Loc::kConst: a_.mov_imm(dst, s.imm); break;
      case Loc::kFrame: a_.mov_rm64(dst, vpay(v)); break;
    }
  }

  void load_float(Xmm dst, std::uint16_t v) {
    const Slot& s = slots_[v];
    switch (s.loc) {
      case Loc::kXmm: a_.movapd(dst, static_cast<Xmm>(s.reg)); break;
      case Loc::kGpr: a_.movq_xr(dst, static_cast<Reg>(s.reg)); break;
      case Loc::kConst:
        a_.mov_imm(RAX, s.imm);
        a_.movq_xr(dst, RAX);
        break;
      case Loc::kFrame: a_.movsd_xm(dst, vpay(v)); break;
    }
  }

  /// An integer source operand: an imm32 constant, else a register.
  struct Opnd {
    bool is_imm = false;
    Reg r = RAX;
    std::int32_t imm = 0;
  };

  /// Pins a source read by the current instruction: a frame-resident
  /// value is loaded into a register of its own when one is free, so
  /// later reads in the chunk reuse it.
  void pin_src(std::uint16_t v) {
    const Slot& s = slots_[v];
    if (s.loc == Loc::kFrame && any_gpr_free()) {
      (void)gpr_of(v);
    } else if (s.loc == Loc::kGpr) {
      lock_gpr(static_cast<Reg>(s.reg));
    }
  }

  /// A pointer operand for blk_of/emit_eff: a parked pointer moves to a
  /// GPR; a frame-resident one stays there, since its index and offset
  /// halves load straight from the slot.
  void ptr_ready(std::uint16_t p) {
    if (slots_[p].loc == Loc::kXmm) (void)gpr_of(p);
    if (slots_[p].loc == Loc::kGpr) lock_gpr(static_cast<Reg>(slots_[p].reg));
  }

  bool any_gpr_free() const {
    for (const Reg r : kCacheGprs) {
      if (gpr_free(r) && !gpr_locked(r)) return true;
    }
    return false;
  }

  Opnd int_opnd(std::uint16_t v) {
    const Slot& s = slots_[v];
    if (s.loc == Loc::kConst && fits_i32(s.imm)) {
      return Opnd{true, RAX, static_cast<std::int32_t>(s.imm)};
    }
    return Opnd{false, gpr_of(v), 0};
  }

  /// dst op= src for add/sub/mul/and/or/xor (binop codes 0, 1, 2, 5, 6, 7).
  void emit_alu(std::uint8_t sub, Reg dst, const Opnd& o) {
    if (!o.is_imm) {
      switch (sub) {
        case 0: a_.add_rr(dst, o.r); break;
        case 1: a_.sub_rr(dst, o.r); break;
        case 2: a_.imul_rr(dst, o.r); break;
        case 5: a_.and_rr(dst, o.r); break;
        case 6: a_.or_rr(dst, o.r); break;
        default: a_.xor_rr(dst, o.r); break;
      }
      return;
    }
    switch (sub) {
      case 0: a_.add_ri(dst, o.imm); break;
      case 1: a_.sub_ri(dst, o.imm); break;
      case 2: a_.imul_rri(dst, dst, o.imm); break;
      case 5: a_.and_ri(dst, o.imm); break;
      case 6: a_.or_ri(dst, o.imm); break;
      default: a_.xor_ri(dst, o.imm); break;
    }
  }

  // --- Heap access ----------------------------------------------------------

  /// The Block* of pointer register `p`, derived once per chunk: the
  /// pointer-table lookup with its null, bounds and empty-entry checks.
  Reg blk_of(std::uint16_t p) {
    Slot& s = slots_[p];
    if (s.blk >= 0) {
      lock_gpr(static_cast<Reg>(s.blk));
      return static_cast<Reg>(s.blk);
    }
    ptr_ready(p);
    const Reg b = alloc_gpr();
    switch (s.loc) {
      case Loc::kGpr: a_.mov_rr32(RAX, static_cast<Reg>(s.reg)); break;
      case Loc::kConst:
        a_.mov_ri32(RAX, static_cast<std::uint32_t>(s.imm));
        break;
      default: a_.mov_rm32(RAX, vidx(p)); break;
    }
    const Assembler::Label g = exit();
    a_.test_rr(RAX, RAX);
    a_.jcc(kE, g);
    a_.mov_rm64(RDX, mem(RBX, kCtxTableView));
    a_.cmp_rm64(RAX, mem(RDX, 8));
    a_.jcc(kAe, g);
    a_.mov_rm64(RDX, mem(RDX, 0));
    a_.mov_rm64(b, mem(RDX, RAX, 8, 0));
    a_.test_rr(b, b);
    a_.jcc(kE, g);
    s.blk = static_cast<std::int8_t>(b);
    gpr_blk_[b] = static_cast<std::int16_t>(p);
    return b;
  }

  void check_kind(std::uint16_t p, Reg b, std::uint8_t kind) {
    Slot& s = slots_[p];
    if ((s.kinds_ok >> kind) & 1) return;
    a_.cmp_mi8(mem(b, kBlockKind), kind);
    a_.jcc(kNe, exit());
    s.kinds_ok |= static_cast<std::uint8_t>(1U << kind);
  }

  /// effective_offset(p, off) into RDX as a 64-bit sum. One unsigned
  /// compare against the block's count then covers both the
  /// representable-range and the bounds check: a negative sum is huge.
  /// `o` must come from int_opnd(off) before any other RDX use.
  void emit_eff(std::uint16_t p, const Opnd& o) {
    const Slot& s = slots_[p];
    switch (s.loc) {
      case Loc::kGpr:
        a_.mov_rr(RDX, static_cast<Reg>(s.reg));
        a_.shr_ri(RDX, 32);
        break;
      case Loc::kConst:
        a_.mov_ri32(RDX, static_cast<std::uint32_t>(
                             static_cast<std::uint64_t>(s.imm) >> 32));
        break;
      default: a_.mov_rm32(RDX, voff(p)); break;
    }
    if (o.is_imm) a_.add_ri(RDX, o.imm);
    else a_.add_rr(RDX, o.r);
  }

  /// Tagged-slot bounds: RDX < count.
  void emit_slot_bounds(Reg b) {
    a_.mov_rm32(RAX, mem(b, kBlockCount));
    a_.cmp_rr(RDX, RAX);
    a_.jcc(kAe, exit());
  }

  /// Raw bounds: RDX + width <= count, without wrapping.
  void emit_raw_bounds(Reg b, std::uint32_t width) {
    const Assembler::Label g = exit();
    a_.mov_rm32(RAX, mem(b, kBlockCount));
    a_.sub_ri(RAX, static_cast<std::int32_t>(width));
    a_.jcc(kB, g);
    a_.cmp_rr(RDX, RAX);
    a_.jcc(kA, g);
  }

  // --- Instructions ---------------------------------------------------------

  void emit_op(const Insn& I, const Plan& plan, const State& st) {
    switch (plan.act) {
      case Plan::Act::kHelper: emit_helper_op(I); return;
      case Plan::Act::kHybrid: emit_hybrid_store(I, st); return;
      default: break;
    }
    switch (I.op) {
      case Op::kLoadUnit: define(I.dst, Loc::kConst, 0, 0, Kind::kUnit); break;
      case Op::kLoadInt:
        define(I.dst, Loc::kConst, 0, I.imm, Kind::kInt);
        break;
      case Op::kLoadFloat: {
        std::int64_t bits;
        std::memcpy(&bits, &I.fimm, sizeof(bits));
        define(I.dst, Loc::kConst, 0, bits, Kind::kFloat);
        break;
      }
      case Op::kLoadNull: define(I.dst, Loc::kConst, 0, 0, Kind::kPtr); break;
      case Op::kLoadFun:
        define(I.dst, Loc::kConst, 0, I.aux, Kind::kFun);
        break;
      case Op::kLoadString: {
        const Reg r = alloc_gpr();
        a_.mov_rm64(r, mem(RBX, kCtxStrings));
        a_.mov_rm32(r, mem(r, static_cast<std::int32_t>(4 * I.aux)));
        define(I.dst, Loc::kGpr, r, 0, Kind::kPtr);
        break;
      }
      case Op::kMove: emit_move(I, st[I.dst].kind); break;
      case Op::kUnop: emit_unop(I); break;
      case Op::kBinop: emit_binop(I); break;
      case Op::kRead: emit_read(I); break;
      case Op::kRawLoad:
      case Op::kRawLoadF: emit_raw_load(I); break;
      case Op::kLen: {
        const Reg b = blk_of(I.r1);
        const Reg r = alloc_gpr();
        a_.mov_rm32(r, mem(b, kBlockCount));
        define(I.dst, Loc::kGpr, r, 0, Kind::kInt);
        break;
      }
      case Op::kPtrAdd: emit_ptr_add(I); break;
      default: break;  // control ops are handled by the chunk driver
    }
  }

  void emit_move(const Insn& I, Kind k) {
    if (I.dst == I.r1) return;
    const Slot& s = slots_[I.r1];
    if (k == Kind::kAny) {
      // Unknown tag: the source is only in the frame; copy the whole Value.
      forget(I.dst);
      a_.mov_rm64(RAX, vtag(I.r1));
      a_.mov_mr64(vtag(I.dst), RAX);
      a_.mov_rm64(RAX, vpay(I.r1));
      a_.mov_mr64(vpay(I.dst), RAX);
      slots_[I.dst].frame_tag = -1;
      return;
    }
    if (s.loc == Loc::kConst) {
      define(I.dst, Loc::kConst, 0, s.imm, k);
      return;
    }
    if (k == Kind::kFloat) {
      if (s.loc == Loc::kXmm) lock_xmm(s.reg);
      const Xmm x = alloc_xmm();
      load_float(x, I.r1);
      define(I.dst, Loc::kXmm, x, 0, k);
      return;
    }
    pin_src(I.r1);
    const Reg r = alloc_gpr();
    load_bits(r, I.r1);
    define(I.dst, Loc::kGpr, r, 0, k);
  }

  void emit_unop(const Insn& I) {
    switch (I.sub) {
      case 0:    // neg
      case 2: {  // bitnot
        pin_src(I.r1);
        const Reg d = alloc_gpr();
        load_bits(d, I.r1);
        if (I.sub == 0) a_.neg_r(d);
        else a_.not_r(d);
        define(I.dst, Loc::kGpr, d, 0, Kind::kInt);
        break;
      }
      case 1: {  // not
        const Reg a = gpr_of(I.r1);
        const Reg d = alloc_gpr();
        a_.xor_rr(d, d);
        a_.test_rr(a, a);
        a_.setcc(kE, d);
        define(I.dst, Loc::kGpr, d, 0, Kind::kInt);
        break;
      }
      case 3: {  // fneg: flip the sign bit, exactly IEEE negation
        if (slots_[I.r1].loc == Loc::kXmm) lock_xmm(slots_[I.r1].reg);
        const Xmm x = alloc_xmm();
        load_float(x, I.r1);
        a_.mov_ri64(RAX, 0x8000000000000000ULL);
        a_.movq_xr(kXmmScratch, RAX);
        a_.xorpd(x, kXmmScratch);
        define(I.dst, Loc::kXmm, x, 0, Kind::kFloat);
        break;
      }
      case 4: {  // int_of_float: cvttsd2si, same as the compiled C++ cast
        const Xmm a = xmm_of(I.r1);
        const Reg d = alloc_gpr();
        a_.cvttsd2si(d, a);
        define(I.dst, Loc::kGpr, d, 0, Kind::kInt);
        break;
      }
      default: {  // 5: float_of_int
        const Reg a = gpr_of(I.r1);
        const Xmm x = alloc_xmm();
        a_.xorpd(x, x);
        a_.cvtsi2sd(x, a);
        define(I.dst, Loc::kXmm, x, 0, Kind::kFloat);
        break;
      }
    }
  }

  void emit_binop(const Insn& I) {
    const std::uint8_t s = I.sub;
    if (is_float_arith(s)) {
      const Xmm bx = xmm_of(I.r2);
      if (slots_[I.r1].loc == Loc::kXmm) lock_xmm(slots_[I.r1].reg);
      const Xmm x = alloc_xmm();
      load_float(x, I.r1);
      switch (s) {
        case 16: a_.addsd(x, bx); break;
        case 17: a_.subsd(x, bx); break;
        case 18: a_.mulsd(x, bx); break;
        default: a_.divsd(x, bx); break;
      }
      define(I.dst, Loc::kXmm, x, 0, Kind::kFloat);
      return;
    }
    if (is_float_cmp(s)) {
      // cmpsd predicates: 0=eq 1=lt 2=le 4=neq; gt/ge via operand swap.
      // Ordered predicates are false on NaN, matching C++ <, <=, ==; NEQ
      // is true on NaN, matching !=.
      const bool swap = s == 22 || s == 23;  // FGt, FGe
      std::uint8_t pred;
      switch (s) {
        case 20: case 22: pred = 1; break;  // FLt, FGt (b < a)
        case 21: case 23: pred = 2; break;  // FLe, FGe (b <= a)
        case 24: pred = 0; break;           // FEq
        default: pred = 4; break;           // FNe
      }
      const std::uint16_t lhs = swap ? I.r2 : I.r1;
      const Xmm rhs = xmm_of(swap ? I.r1 : I.r2);
      if (slots_[lhs].loc == Loc::kXmm) lock_xmm(slots_[lhs].reg);
      const Reg d = alloc_gpr();
      load_float(kXmmScratch, lhs);
      a_.cmpsd(kXmmScratch, rhs, pred);
      a_.movq_rx(d, kXmmScratch);
      a_.and_ri(d, 1);
      define(I.dst, Loc::kGpr, d, 0, Kind::kInt);
      return;
    }
    switch (s) {
      case 0: case 1: case 2: case 5: case 6: case 7: {  // + - * & | ^
        const Opnd b = int_opnd(I.r2);
        pin_src(I.r1);
        const Reg d = alloc_gpr();
        load_bits(d, I.r1);
        emit_alu(s, d, b);
        define(I.dst, Loc::kGpr, d, 0, Kind::kInt);
        break;
      }
      case 3: case 4: {
        // div, mod: a divisor of 0 or -1 deopts — the interpreter raises
        // the zero trap, and computes the wrapped INT64_MIN / -1 that
        // idiv would fault on. (divisor + 1) <= 1 unsigned is both cases.
        const Reg dv = gpr_of(I.r2);
        pin_src(I.r1);
        const Reg d = alloc_gpr();
        const Assembler::Label g = exit();
        load_bits(RAX, I.r1);
        a_.lea(RDX, mem(dv, 1));
        a_.cmp_ri(RDX, 1);
        a_.jcc(kBe, g);
        a_.cqo();
        a_.idiv_r(dv);
        a_.mov_rr(d, s == 3 ? RAX : RDX);
        define(I.dst, Loc::kGpr, d, 0, Kind::kInt);
        break;
      }
      case 8: case 9: {  // shl, shr: the count masked to 63, as eval does
        const Slot& c = slots_[I.r2];
        if (c.loc == Loc::kConst) {
          pin_src(I.r1);
          const Reg d = alloc_gpr();
          load_bits(d, I.r1);
          const auto n = static_cast<std::uint8_t>(c.imm & 63);
          if (s == 8) a_.shl_ri(d, n);
          else a_.sar_ri(d, n);
          define(I.dst, Loc::kGpr, d, 0, Kind::kInt);
          break;
        }
        // The count goes in CL: whatever RCX caches is evicted first (a
        // value of this instruction is then read from where it went).
        if (!gpr_free(RCX)) evict_gpr(RCX);
        lock_gpr(RCX);
        load_bits(RCX, I.r2);
        pin_src(I.r1);
        const Reg d = alloc_gpr();
        load_bits(d, I.r1);
        if (s == 8) a_.shl_cl(d);
        else a_.sar_cl(d);
        define(I.dst, Loc::kGpr, d, 0, Kind::kInt);
        break;
      }
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
        const Opnd b = int_opnd(I.r2);
        const Reg a = gpr_of(I.r1);
        const Reg d = alloc_gpr();
        a_.xor_rr(d, d);
        if (b.is_imm) a_.cmp_ri(a, b.imm);
        else a_.cmp_rr(a, b.r);
        a_.setcc(cc, d);
        define(I.dst, Loc::kGpr, d, 0, Kind::kInt);
        break;
      }
    }
  }

  void emit_read(const Insn& I) {
    const Reg b = blk_of(I.r1);
    check_kind(I.r1, b, 0);
    ptr_ready(I.r1);
    const Opnd o = int_opnd(I.r2);
    const bool is_float = I.sub == static_cast<std::uint8_t>(Tag::kFloat);
    const Xmm x = is_float ? alloc_xmm() : XMM0;
    const Reg d = is_float ? RAX : alloc_gpr();
    emit_eff(I.r1, o);
    emit_slot_bounds(b);
    a_.shl_ri(RDX, 4);
    a_.cmp_mi8(mem(b, RDX, 1, kBlockPayload), I.sub);
    a_.jcc(kNe, exit());
    if (is_float) {
      a_.movsd_xm(x, mem(b, RDX, 1, kBlockPayload + 8));
      define(I.dst, Loc::kXmm, x, 0, Kind::kFloat);
    } else {
      a_.mov_rm64(d, mem(b, RDX, 1, kBlockPayload + 8));
      define(I.dst, Loc::kGpr, d, 0, kind_of_tag(static_cast<Tag>(I.sub)));
    }
  }

  void emit_raw_load(const Insn& I) {
    const Reg b = blk_of(I.r1);
    check_kind(I.r1, b, 1);
    ptr_ready(I.r1);
    const Opnd o = int_opnd(I.r2);
    const Mem at = mem(b, RDX, 1, kBlockPayload);
    if (I.op == Op::kRawLoadF) {
      const Xmm x = alloc_xmm();
      emit_eff(I.r1, o);
      emit_raw_bounds(b, 8);
      a_.movsd_xm(x, at);
      define(I.dst, Loc::kXmm, x, 0, Kind::kFloat);
      return;
    }
    const Reg d = alloc_gpr();
    emit_eff(I.r1, o);
    emit_raw_bounds(b, I.sub);
    switch (I.sub) {
      case 8: a_.mov_rm64(d, at); break;
      case 4: a_.movsx32_rm(d, at); break;
      case 2: a_.movsx16_rm(d, at); break;
      default: a_.movsx8_rm(d, at); break;
    }
    define(I.dst, Loc::kGpr, d, 0, Kind::kInt);
  }

  void emit_ptr_add(const Insn& I) {
    ptr_ready(I.r1);
    const Opnd o = int_opnd(I.r2);
    const Reg d = alloc_gpr();
    emit_eff(I.r1, o);
    a_.mov_rr(RAX, RDX);
    a_.shr_ri(RAX, 32);
    a_.jcc(kNe, exit());
    a_.shl_ri(RDX, 32);
    const Slot& p = slots_[I.r1];
    switch (p.loc) {
      case Loc::kGpr: a_.mov_rr32(d, static_cast<Reg>(p.reg)); break;
      case Loc::kConst:
        a_.mov_ri32(d, static_cast<std::uint32_t>(p.imm));
        break;
      default: a_.mov_rm32(d, vidx(I.r1)); break;
    }
    a_.or_rr(d, RDX);
    define(I.dst, Loc::kGpr, d, 0, Kind::kPtr);
  }

  /// A C helper call: the frame is made current and the cache emptied
  /// first, so the helper is a GC safepoint and nothing it moves or
  /// clones can leave a stale Block* or value behind.
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

  static void helper_of(const Insn& I, const void*& fn, std::uint32_t& nargs,
                        std::array<std::uint32_t, 4>& args) {
    switch (I.op) {
      case Op::kAllocTagged:
        fn = reinterpret_cast<const void*>(&moj_nat_alloc_tagged);
        nargs = 3;
        args = {I.r1, I.r2, I.dst, 0};
        break;
      case Op::kAllocRaw:
        fn = reinterpret_cast<const void*>(&moj_nat_alloc_raw);
        nargs = 2;
        args = {I.r1, I.dst, 0, 0};
        break;
      case Op::kWrite:
        fn = reinterpret_cast<const void*>(&moj_nat_write_slot);
        nargs = 3;
        args = {I.r1, I.r2, I.r3, 0};
        break;
      case Op::kRawStore:
        fn = reinterpret_cast<const void*>(&moj_nat_raw_store);
        nargs = 4;
        args = {I.r1, I.r2, I.r3, I.sub};
        break;
      default:  // kRawStoreF
        fn = reinterpret_cast<const void*>(&moj_nat_raw_store_f);
        nargs = 3;
        args = {I.r1, I.r2, I.r3, 0};
        break;
    }
  }

  void emit_helper_op(const Insn& I) {
    flush_all();
    const void* fn = nullptr;
    std::uint32_t nargs = 0;
    std::array<std::uint32_t, 4> args{};
    helper_of(I, fn, nargs, args);
    emit_helper_call(fn, nargs, args, exit(DeoptReason::kHelperTrap));
    if (const int w = written_reg(I); w >= 0) {
      slots_[w].frame_tag = static_cast<std::int8_t>(Tag::kPtr);
    }
  }

  /// SpeculationManager::before_write's early-out, inlined for the Block*
  /// in `b`: fall through when no level is active or the block's epoch is
  /// at least the newest level's entry epoch (already versioned there);
  /// otherwise jump to `slow`, where the helper runs the hook.
  void emit_cow_test(Reg b, Assembler::Label slow) {
    Assembler::Label store = a_.make_label();
    a_.mov_rm64(RAX, mem(RBX, kCtxSpecLevels));
    a_.cmp_mi64(mem(RAX, 0), 0);
    a_.jcc(kE, store);
    a_.mov_rm64(RAX, mem(RBX, kCtxSpecTopEpoch));
    a_.mov_rm64(RAX, mem(RAX, 0));
    a_.cmp_rm64(RAX, mem(b, kBlockSpecEpoch));
    a_.jcc(kA, slow);  // top epoch > block epoch: needs a clone
    a_.bind(store);
  }

  /// A store of a statically non-pointer value: inline guards and store,
  /// with the helper (out of line) when the copy-on-write hook must run.
  void emit_hybrid_store(const Insn& I, const State& st) {
    const Reg b = blk_of(I.r1);
    check_kind(I.r1, b, I.op == Op::kWrite ? 0 : 1);
    ptr_ready(I.r1);
    const Slot& v = slots_[I.r3];
    if (v.loc == Loc::kGpr) lock_gpr(static_cast<Reg>(v.reg));
    if (v.loc == Loc::kXmm) lock_xmm(v.reg);
    const Opnd o = int_opnd(I.r2);
    emit_eff(I.r1, o);
    if (I.op == Op::kWrite) {
      emit_slot_bounds(b);
    } else {
      emit_raw_bounds(b, I.op == Op::kRawStore ? I.sub : 8);
    }
    SlowPath sp;
    sp.entry = a_.make_label();
    sp.resume = a_.make_label();
    emit_cow_test(b, sp.entry);
    if (I.op == Op::kWrite) {
      a_.shl_ri(RDX, 4);
      a_.mov_mi64(mem(b, RDX, 1, kBlockPayload),
                  static_cast<std::int32_t>(tag_of_kind(st[I.r3].kind)));
    }
    const Mem at = mem(b, RDX, 1, I.op == Op::kWrite ? kBlockPayload + 8
                                                     : kBlockPayload);
    if (I.op == Op::kRawStore && I.sub != 8) {
      load_bits(RAX, I.r3);
      switch (I.sub) {
        case 4: a_.mov_mr32(at, RAX); break;
        case 2: a_.mov_mr16(at, RAX); break;
        default: a_.mov_mr8(at, RAX); break;
      }
    } else {
      store_payload(at, I.r3, v.loc, v.reg, v.imm);
    }
    a_.bind(sp.resume);

    helper_of(I, sp.helper, sp.nargs, sp.args);
    sp.spills = dirty_spills();
    for (std::uint16_t r = 0; r < f_.num_regs; ++r) {
      const Slot& s = slots_[r];
      if (s.loc == Loc::kGpr || s.loc == Loc::kXmm) {
        sp.reloads.push_back(Spill{r, s.loc, s.reg, -1, 0});
      }
    }
    // The helper runs with nothing dirty: its trap exit writes nothing.
    sp.trap = stub(pc_, DeoptReason::kHelperTrap, prefix_, refund_, {});
    // The slow path stored tags the inline path did not.
    for (const Spill& s : sp.spills) {
      if (s.tag >= 0) slots_[s.vreg].frame_tag = -1;
    }
    slow_paths_.push_back(std::move(sp));
    drop_blocks();
  }

  void emit_slow_path(const SlowPath& sp) {
    a_.bind(sp.entry);
    for (const Spill& s : sp.spills) emit_spill(s);
    emit_helper_call(sp.helper, sp.nargs, sp.args, sp.trap);
    for (const Spill& s : sp.reloads) {
      if (s.loc == Loc::kGpr) {
        a_.mov_rm64(static_cast<Reg>(s.reg), vpay(s.vreg));
      } else {
        a_.movsd_xm(static_cast<Xmm>(s.reg), vpay(s.vreg));
      }
    }
    a_.jmp(sp.resume);
  }

  /// A statically bound tail call: the callee's argument slots are written
  /// straight from the cache, and nothing else is. A caller temporary is
  /// never seen again: the callee either writes its slot before reading
  /// it, or resets it to unit at a deopt (`resets_`).
  void emit_direct_jump(const Insn& I, const Plan& plan,
                        const ClassCounts& full) {
    // Resolve the target's native entry; a not-yet-compiled target deopts
    // at this pc and the interpreter performs the transfer (which feeds the
    // target's own hotness counter).
    a_.mov_rm64(RAX, mem(RBX, kCtxEntries));
    a_.mov_rm64(RDX, mem(RAX, static_cast<std::int32_t>(8 * plan.callee)));
    a_.test_rr(RDX, RDX);
    a_.jcc(kE, exit(DeoptReason::kColdTarget));
    // The transfer completes natively: account the whole chunk and the call.
    emit_retire(full, 1);

    // Position i is written unless its frame slot already holds the value
    // (args[i] == i and not dirty). A source read from a frame slot that
    // another position overwrites goes through the machine stack.
    const CompiledFunction& target = prog_.functions[plan.callee];
    const std::size_t n = I.args.size();
    // The callee may have more parameters than the caller has registers.
    const auto mine = [&](std::size_t i) { return i < f_.num_regs; };
    std::vector<bool> written(n);
    for (std::size_t i = 0; i < n; ++i) {
      written[i] = I.args[i] != i || (mine(i) && slots_[i].dirty);
    }
    const auto through_stack = [&](std::size_t i) {
      const std::uint16_t s = I.args[i];
      return s != i && s < n && written[s] && slots_[s].loc == Loc::kFrame;
    };
    const auto put_tag = [&](std::size_t i) {
      const auto tag = static_cast<std::int8_t>(target.param_tags[i]);
      if (!mine(i) || slots_[i].frame_tag != tag) {
        a_.mov_mi64(vtag(static_cast<std::uint16_t>(i)), tag);
      }
    };
    std::vector<std::size_t> stacked;
    for (std::size_t i = 0; i < n; ++i) {
      if (written[i] && through_stack(i)) {
        a_.push_m(vpay(I.args[i]));
        stacked.push_back(i);
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (!written[i] || through_stack(i)) continue;
      const auto dst = static_cast<std::uint16_t>(i);
      put_tag(i);
      const Slot& s = slots_[I.args[i]];
      store_payload(vpay(dst), I.args[i], s.loc, s.reg, s.imm);
    }
    for (auto it = stacked.rbegin(); it != stacked.rend(); ++it) {
      put_tag(*it);
      a_.pop_m(vpay(static_cast<std::uint16_t>(*it)));
    }
    a_.jmp_r(RDX);
  }

  void emit_chunk(std::uint32_t start, std::uint32_t next) {
    a_.bind(chunk_label(start));
    const PointState& in = in_states_.at(start);
    emit_may_ = in.may;
    cache_reset(in);
    prefix_ = ClassCounts{};
    if (start >= f_.code.size()) {
      // Control fell off the end: deopt; the interpreter raises the
      // canonical "program counter fell off the end" error.
      a_.jmp(stub(start, DeoptReason::kGuard, ClassCounts{}, 0, {}));
      return;
    }
    end_ = chunk_end(start);
    const auto cost = static_cast<std::int32_t>(end_ - start);
    // Pre-pay the chunk's instruction budget; exits refund the unexecuted
    // suffix, so the interpreter's exhaustion point is reproduced exactly.
    BudgetPath bp{a_.make_label(), chunk_label(start), cost,
                  stub(start, DeoptReason::kBudget, ClassCounts{}, 0, {})};
    a_.sub_ri(kBudgetReg, cost);
    a_.jcc(kS, bp.entry);
    budget_paths_.push_back(bp);
    const auto jump_to = [&](std::uint32_t target) {
      if (target != next) a_.jmp(chunk_label(target));
    };

    State st = in.types;
    std::int32_t done_insns = 0;
    for (pc_ = start; pc_ < end_; ++pc_) {
      const Insn& I = f_.code[pc_];
      refund_ = cost - done_insns;
      gpr_lock_ = 0;
      xmm_lock_ = 0;
      Plan plan;
      if (!plan_insn(prog_, f_, I, st, plan, err_)) return;

      if (plan.act == Plan::Act::kDeopt) {
        a_.jmp(exit(plan.reason));
        return;
      }
      // Tag guards read the frame: a register of unknown kind is never
      // cached, and a failed guard deopts to re-execute this instruction.
      for (const TagGuard& gd : plan.guards) {
        write_back(gd.reg);
        a_.cmp_mi8(vtag(gd.reg), gd.tag);
        a_.jcc(kNe, exit());
        slots_[gd.reg].frame_tag = static_cast<std::int8_t>(gd.tag);
      }
      ClassCounts full = prefix_;
      full[I.cls] += 1;
      if (I.op == Op::kJump) {
        write_back_all();
        emit_retire(full);
        jump_to(I.aux);
        return;
      }
      if (I.op == Op::kJumpIfZero) {
        write_back_all();
        emit_retire(full);
        const Slot& c = slots_[I.r1];
        switch (c.loc) {
          case Loc::kConst:
            jump_to(c.imm == 0 ? I.aux : pc_ + 1);
            return;
          case Loc::kGpr:
            a_.test_rr(static_cast<Reg>(c.reg), static_cast<Reg>(c.reg));
            break;
          case Loc::kXmm:
            a_.movq_rx(RAX, static_cast<Xmm>(c.reg));
            a_.test_rr(RAX, RAX);
            break;
          case Loc::kFrame:
            a_.cmp_mi64(vpay(I.r1), 0);
            break;
        }
        a_.jcc(kE, chunk_label(I.aux));
        jump_to(pc_ + 1);
        return;
      }
      if (plan.act == Plan::Act::kDirect) {
        emit_direct_jump(I, plan, full);
        return;
      }

      emit_op(I, plan, st);
      if (!err_.empty()) return;
      if (const int w = written_reg(I); w >= 0) {
        add_reg(emit_may_, static_cast<std::uint16_t>(w));
      }
      prefix_[I.cls] += 1;
      ++done_insns;
    }
    // Fell through to the next leader.
    write_back_all();
    emit_retire(prefix_);
    jump_to(end_);
  }

  /// flush_: adds the packed counters to the interpreter's and zeroes
  /// them. refill_: flushes, then moves up to kBudgetWindow from
  /// budget_left into R15 (the caller checked that budget_left > 0).
  void emit_accounting_subroutines() {
    a_.bind(flush_);
    for (const Field& f : kFields) {
      a_.mov_rr(RAX, f.reg);
      if (f.shift != 0) a_.shr_ri(RAX, static_cast<std::uint8_t>(f.shift));
      a_.and_ri(RAX, (1 << kFieldBits) - 1);
      if (f.cls == kCallsField) {
        a_.mov_rm64(RDX, mem(RBX, kCtxCalls));
        a_.add_mr64(mem(RDX, 0), RAX);
      } else {
        a_.mov_rm64(RDX, mem(RBX, kCtxClassCounts));
        a_.add_mr64(mem(RDX, 8 * f.cls), RAX);
      }
    }
    a_.xor_rr(kCountsLo, kCountsLo);
    a_.xor_rr(kCountsHi, kCountsHi);
    a_.ret();

    a_.bind(refill_);
    a_.call(flush_);
    const Assembler::Label take = a_.make_label();
    a_.mov_rm64(RAX, mem(RBX, kCtxBudget));
    a_.cmp_ri(RAX, kBudgetWindow);
    a_.jcc(kLe, take);
    a_.mov_ri32(RAX, kBudgetWindow);
    a_.bind(take);
    a_.sub_mr64(mem(RBX, kCtxBudget), RAX);
    a_.add_rr(kBudgetReg, RAX);
    a_.ret();
  }

  void emit() {
    // Prologue (the C-callable entry, offset 0). Six pushes and the
    // 8-byte adjustment keep rsp 16-aligned at helper calls.
    a_.push_r(RBX);
    a_.push_r(R12);
    a_.push_r(R13);
    a_.push_r(R14);
    a_.push_r(R15);
    a_.push_r(RBP);
    a_.sub_ri(RSP, 8);
    a_.mov_rr(RBX, RDI);
    a_.mov_rm64(R12, mem(RBX, kCtxFrame));
    // An empty budget window: the first chunk start refills it.
    a_.xor_rr(kBudgetReg, kBudgetReg);
    a_.xor_rr(kCountsLo, kCountsLo);
    a_.xor_rr(kCountsHi, kCountsHi);

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
    for (std::size_t i = 0; i < order.size(); ++i) {
      const std::uint32_t next =
          i + 1 < order.size() ? order[i + 1] : UINT32_MAX;
      emit_chunk(order[i], next);
      if (!err_.empty()) return;
    }

    for (const SlowPath& sp : slow_paths_) emit_slow_path(sp);
    for (const BudgetPath& bp : budget_paths_) {
      a_.bind(bp.entry);
      a_.add_ri(kBudgetReg, bp.cost);
      a_.cmp_mi64(mem(RBX, kCtxBudget), 0);
      a_.jcc(kE, bp.exhausted);
      a_.call(refill_);
      a_.jmp(bp.chunk);
    }
    emit_accounting_subroutines();

    // Deoptimization stubs: write back the dirty values, refund the
    // unexecuted suffix, credit the prefix, record where to resume.
    for (const DeoptStub& s : stubs_) {
      a_.bind(s.label);
      for (const Spill& sp : s.spills) emit_spill(sp);
      if (s.refund != 0) a_.add_ri(kBudgetReg, s.refund);
      emit_counts_add(s.counts);
      a_.mov_mi32(mem(RBX, kCtxDeoptFun), static_cast<std::int32_t>(fun_));
      a_.mov_mi32(mem(RBX, kCtxDeoptPc), static_cast<std::int32_t>(s.pc));
      a_.mov_mi32(mem(RBX, kCtxDeoptReason),
                  static_cast<std::int32_t>(s.reason));
      a_.jmp(epilogue_);
    }

    a_.bind(epilogue_);
    a_.call(flush_);
    a_.add_mr64(mem(RBX, kCtxBudget), kBudgetReg);
    a_.add_ri(RSP, 8);
    a_.pop_r(RBP);
    a_.pop_r(R15);
    a_.pop_r(R14);
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
  Assembler::Label flush_ = a_.make_label();
  Assembler::Label refill_ = a_.make_label();
  std::set<std::uint32_t> leaders_;
  std::map<std::uint32_t, PointState> in_states_;
  std::vector<std::uint16_t> eager_clears_;
  DeoptResets resets_;
  /// Registers some path to the instruction being emitted has written.
  RegSet emit_may_{};
  std::map<std::uint32_t, Assembler::Label> chunk_labels_;
  std::vector<DeoptStub> stubs_;
  std::vector<SlowPath> slow_paths_;
  std::vector<BudgetPath> budget_paths_;
  std::size_t jump_entry_ = 0;
  std::string err_;

  // The instruction being emitted and its chunk.
  std::uint32_t pc_ = 0;
  std::uint32_t end_ = 0;
  ClassCounts prefix_{};
  std::int32_t refund_ = 0;

  // The register cache of the chunk being emitted.
  std::vector<Slot> slots_;
  std::array<std::int16_t, 16> gpr_val_{};  ///< vreg whose value a GPR holds
  std::array<std::int16_t, 16> gpr_blk_{};  ///< vreg whose Block* a GPR holds
  std::array<std::int16_t, 16> xmm_val_{};
  std::uint32_t gpr_lock_ = 0;  ///< registers the current instruction uses
  std::uint32_t xmm_lock_ = 0;
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
