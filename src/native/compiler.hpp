// Bytecode → x86-64 compiler for the hot FIR subset.
//
// Compiles one CompiledFunction into self-contained machine code following
// the NativeContext ABI (abi.hpp). The compiled subset is the arithmetic /
// heap / loop core: register loads, unops, binops, tagged and raw heap
// access, allocation (via helpers), conditional and unconditional jumps,
// and statically-bound tail calls (compiled as direct jumps between native
// functions). Everything else — speculate, commit, rollback, migrate,
// externals, halt, dynamically-bound calls — compiles to a deoptimization
// stub that materializes (function, pc, reason) and returns to the VM.
//
// A forward type dataflow over basic blocks ("chunks") tracks each virtual
// register's runtime tag so most operations need no inline tag guard; where
// the lattice says "unknown", a one-byte tag compare guards the operation
// and failure deopts (the interpreter re-executes the instruction and
// raises the canonical SafetyError). The instruction budget and the
// per-opcode-class telemetry counters are maintained exactly: each chunk
// pre-pays its cost on entry and every exit stub refunds the unexecuted
// suffix and credits the completed prefix, so counts and budget-exhaustion
// points are bit-identical to a pure interpreter run.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "native/abi.hpp"
#include "support/common.hpp"
#include "vm/bytecode.hpp"

namespace mojave::native {

/// Functions larger than this bound or than kMaxRegs (abi.hpp) are
/// refused (they stay interpreted). The FIR inliner derives its size limit
/// from both, so a merged function never falls back to the interpreter.
inline constexpr std::size_t kMaxCode = 1 << 16;  ///< instructions

/// The deopt-time register reset. A direct jump does not clear the
/// callee's registers, so a register no path to a deopt point has written
/// still holds whatever the caller left in the frame. For each pc that has
/// a deoptimization stub (ascending), one bitset of those registers; the
/// engine writes unit into them in the rebuilt interpreter frame.
struct DeoptResets {
  /// One bit per register of a function the compiler accepts.
  using Bits = std::array<std::uint64_t, kMaxRegs / 64>;

  std::vector<std::uint32_t> pcs;
  std::vector<Bits> bits;  ///< parallel to `pcs`

  /// The bitset for `pc`, or null when `pc` has no stub.
  [[nodiscard]] const Bits* find(std::uint32_t pc) const {
    const auto it = std::lower_bound(pcs.begin(), pcs.end(), pc);
    if (it == pcs.end() || *it != pc) return nullptr;
    return &bits[static_cast<std::size_t>(it - pcs.begin())];
  }
};

struct CompileResult {
  bool ok = false;
  std::string error;          ///< why compilation was refused
  std::vector<std::uint8_t> code;
  /// Offset of the post-prologue ("jump") entry used by native-to-native
  /// direct jumps; offset 0 is the full C-callable entry.
  std::size_t jump_entry = 0;
  /// Non-argument registers the jump entry zeroes: those read before
  /// every path has written them, or written on only some paths to a
  /// point where the code may deopt. Empty for code lowered from the FIR.
  std::vector<std::uint16_t> eager_clears;
  DeoptResets resets;
};

/// Compile `prog.functions[fun]`. Never throws; unsupported or malformed
/// input yields ok = false.
[[nodiscard]] CompileResult compile_function(const vm::CompiledProgram& prog,
                                             FunIndex fun);

}  // namespace mojave::native
