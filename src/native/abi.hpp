// The native tier's machine-level contract.
//
// Compiled code receives a single NativeContext* and communicates with the
// VM exclusively through it: the virtual register frame it mutates, the
// pointer-table / speculation mirrors it reads for inlined safety checks,
// the instruction accounting it maintains, and the deoptimization record
// it fills in before every exit. Native code NEVER completes a control
// transfer (`speculate`, `migrate`, commit/rollback, external calls, halt)
// itself — each such site is a deoptimization point that materializes the
// full interpreter frame state and returns, so a natively-running rank can
// roll back, checkpoint, or migrate exactly like an interpreted one.
//
// Register convention inside compiled code (System V x86-64 host):
//   rbx  NativeContext*                (callee-saved, pinned for the run)
//   r12  frame base (runtime::Value*)  (callee-saved, pinned for the run)
//   r15  remaining instruction budget  (callee-saved, pinned for the run;
//        stored back to budget_left on exit)
//   rcx rsi rdi r8-r11 r13 r14 rbp, xmm0-xmm14   the chunk's register cache
//   rax rdx xmm15                      scratch inside one instruction
//
// Inside a chunk (basic block) virtual registers live in machine
// registers; the frame is made current wherever C++ can look at it: before
// every C helper call (so each helper is a GC safepoint, and no Block*
// survives one), in every deopt stub, and at every chunk end inside the
// function. A direct jump writes only the callee's argument slots. A
// register the running function has not yet written may still hold a
// value from the caller (direct jumps do not clear the callee's
// registers); such stale slots are only conservative GC roots, and a
// deopt resets them to unit from a compile-time table before the
// interpreter sees the frame.
#pragma once

#include <cstddef>
#include <cstdint>

#include "runtime/block.hpp"
#include "runtime/pointer_table.hpp"
#include "runtime/value.hpp"
#include "support/common.hpp"

namespace mojave::runtime {
class Heap;
}

namespace mojave::native {

/// Why compiled code handed control back to the interpreter. The deopting
/// instruction is never counted as retired — the interpreter re-executes
/// it, so both the side effects and any error raised are bit-identical to
/// a pure interpreter run.
enum class DeoptReason : std::uint32_t {
  kSpeculate = 0,  ///< `speculate` site: interpreter captures the level
  kCommit,         ///< commit site
  kRollback,       ///< rollback / abort site
  kMigrate,        ///< `migrate` site (also checkpoint-yield, via its hook)
  kHalt,           ///< program halt
  kExternal,       ///< host external call
  kCall,           ///< transfer the compiler could not bind statically
  kColdTarget,     ///< direct-jump target not (yet) compiled
  kGuard,          ///< inlined safety check failed; interpreter will raise
  kHelperTrap,     ///< C++ helper caught a VM exception; re-raised on replay
  kBudget,         ///< instruction budget cannot cover the next block
  kUnsupported,    ///< instruction outside the compiled subset
};

inline constexpr std::size_t kNumDeoptReasons = 12;

[[nodiscard]] constexpr const char* deopt_reason_name(DeoptReason r) {
  switch (r) {
    case DeoptReason::kSpeculate: return "speculate";
    case DeoptReason::kCommit: return "commit";
    case DeoptReason::kRollback: return "rollback";
    case DeoptReason::kMigrate: return "migrate";
    case DeoptReason::kHalt: return "halt";
    case DeoptReason::kExternal: return "external";
    case DeoptReason::kCall: return "call";
    case DeoptReason::kColdTarget: return "cold_target";
    case DeoptReason::kGuard: return "guard";
    case DeoptReason::kHelperTrap: return "helper_trap";
    case DeoptReason::kBudget: return "budget";
    case DeoptReason::kUnsupported: return "unsupported";
  }
  return "?";
}

/// The single argument passed to compiled code. Field offsets are baked
/// into emitted instructions; the static_asserts below pin the layout.
struct NativeContext {
  /// Virtual register frame: `max(num_regs)` Values, engine-owned, GC
  /// root. Registers the running function has not written are stale.
  runtime::Value* frame = nullptr;
  /// Pointer-table mirror for inlined dereference validation.
  const runtime::PointerTable::View* table_view = nullptr;
  /// Active speculation level count. Zero lets a store skip the
  /// copy-on-write hook; nonzero makes it test the block's epoch first.
  const std::uint64_t* spec_levels = nullptr;
  /// The interpreter's per-opcode-class counters (kNumOpClasses entries);
  /// compiled code adds retired-block deltas directly.
  std::uint64_t* class_counts = nullptr;
  /// The interpreter's lifetime call counter; bumped on direct jumps.
  std::uint64_t* calls = nullptr;
  /// Remaining instruction budget. Decremented per block; a block only
  /// executes if it fits entirely, so the budget never overshoots.
  std::int64_t budget_left = 0;
  /// Per-function native entry points (post-prologue), null until
  /// compiled; read by direct-jump sequences.
  const void* const* entries = nullptr;
  /// Interned string blocks (interpreter's string_blocks_.data()).
  const BlockIndex* string_indices = nullptr;
  runtime::Heap* heap = nullptr;
  /// Deopt record: function / bytecode pc / reason to resume interpreting.
  std::uint32_t deopt_fun = 0;
  std::uint32_t deopt_pc = 0;
  std::uint32_t deopt_reason = 0;
  std::uint32_t reserved_ = 0;
  /// Newest speculation level's entry epoch. Inside a level, a store to a
  /// block whose spec_epoch is at least this value needs no clone and is
  /// done inline; any other store goes through the helper's hook.
  const std::uint64_t* spec_top_epoch = nullptr;
};

using NativeFn = void (*)(NativeContext*);

/// Virtual registers of a function the native compiler accepts. A direct
/// jump passes at most one argument per callee register, so this is also
/// the direct-jump arity limit.
inline constexpr std::uint16_t kMaxRegs = 256;

// Offsets baked into emitted code.
inline constexpr std::int32_t kCtxFrame = 0;
inline constexpr std::int32_t kCtxTableView = 8;
inline constexpr std::int32_t kCtxSpecLevels = 16;
inline constexpr std::int32_t kCtxClassCounts = 24;
inline constexpr std::int32_t kCtxCalls = 32;
inline constexpr std::int32_t kCtxBudget = 40;
inline constexpr std::int32_t kCtxEntries = 48;
inline constexpr std::int32_t kCtxStrings = 56;
inline constexpr std::int32_t kCtxHeap = 64;
inline constexpr std::int32_t kCtxDeoptFun = 72;
inline constexpr std::int32_t kCtxDeoptPc = 76;
inline constexpr std::int32_t kCtxDeoptReason = 80;
inline constexpr std::int32_t kCtxSpecTopEpoch = 88;

static_assert(offsetof(NativeContext, frame) == kCtxFrame);
static_assert(offsetof(NativeContext, table_view) == kCtxTableView);
static_assert(offsetof(NativeContext, spec_levels) == kCtxSpecLevels);
static_assert(offsetof(NativeContext, class_counts) == kCtxClassCounts);
static_assert(offsetof(NativeContext, calls) == kCtxCalls);
static_assert(offsetof(NativeContext, budget_left) == kCtxBudget);
static_assert(offsetof(NativeContext, entries) == kCtxEntries);
static_assert(offsetof(NativeContext, string_indices) == kCtxStrings);
static_assert(offsetof(NativeContext, heap) == kCtxHeap);
static_assert(offsetof(NativeContext, deopt_fun) == kCtxDeoptFun);
static_assert(offsetof(NativeContext, deopt_pc) == kCtxDeoptPc);
static_assert(offsetof(NativeContext, deopt_reason) == kCtxDeoptReason);
static_assert(offsetof(NativeContext, spec_top_epoch) == kCtxSpecTopEpoch);

// runtime::Value layout assumed by frame loads/stores.
static_assert(sizeof(runtime::Value) == 16);
inline constexpr std::int32_t kValTag = 0;
inline constexpr std::int32_t kValPayload = 8;
inline constexpr std::int32_t kValPtrIndex = 8;   ///< PtrValue.index
inline constexpr std::int32_t kValPtrOffset = 12; ///< PtrValue.offset

// runtime::Block layout assumed by inlined heap accesses.
static_assert(sizeof(runtime::Block) == 32);
static_assert(offsetof(runtime::BlockHeader, spec_epoch) == 0);
static_assert(offsetof(runtime::BlockHeader, index) == 16);
static_assert(offsetof(runtime::BlockHeader, count) == 20);
static_assert(offsetof(runtime::BlockHeader, kind) == 24);
inline constexpr std::int32_t kBlockSpecEpoch = 0;
inline constexpr std::int32_t kBlockCount = 20;
inline constexpr std::int32_t kBlockKind = 24;
inline constexpr std::int32_t kBlockPayload = 32;

// PointerTable::View layout.
static_assert(offsetof(runtime::PointerTable::View, data) == 0);
static_assert(offsetof(runtime::PointerTable::View, size) == 8);

}  // namespace mojave::native
