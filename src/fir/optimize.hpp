// FIR optimization passes.
//
// MCC positions the FIR as the place where analysis and transformation
// happen ("MCC provides an active test bed for research", Section 3; the
// FIR "could be used to verify the correctness of the programs"). This
// module implements the classical safe passes over the CPS representation.
//
// inline_once() merges continuation chains before code generation. The
// frontend splits every source function into CPS blocks at each branch
// and loop; a block g is merged into its caller when
//
//   * g's only reference in the whole program is the callee of one tail
//     call, in another function (a self-loop never qualifies);
//   * g is not the entry;
//   * no parameter of g has a function type — which keeps source-level
//     functions (they carry a return continuation) and selects the
//     frontend's blocks (they take the locals in scope, then `frame`);
//   * the merged function still lowers to at most InlineLimits registers
//     and instructions, so the native tier never refuses it.
//
// The call's arguments replace g's parameters, g's locals are renumbered
// above the caller's, and g's body moves (never copies: migrate labels
// stay unique and the program never grows) into the call site. Inlined
// functions are deleted and the survivors renumbered densely. Candidacy
// is fixed up front — moving a body neither adds nor drops a reference —
// so one pass reaches the fixpoint; every step deletes a function.
//
// optimize() then runs, within each function body:
//
//   * copy propagation   — `let x = a` binds are substituted away;
//   * constant folding   — unops/binops over literals are evaluated at
//     compile time with exactly the interpreter's semantics, wrapping
//     integer overflow included (division and modulo by a literal zero
//     are NOT folded: the runtime trap is the program's defined
//     behaviour);
//   * branch folding     — `if` over a literal condition is replaced by
//     the taken arm;
//   * redundant-read elimination and store-to-load forwarding —
//     `let x : T = read(b, o)` becomes a copy of the value an earlier
//     read(b, o) : T or write(b, o) := y (y of static type T) on the same
//     base variable and offset atom produced, provided nothing in between
//     may have overwritten the slot. A write to another base (it may
//     alias), a write to the same base at an offset that is not a distinct
//     literal, any raw store and any external call kill what is known;
//     allocation kills nothing. The earlier access succeeded, so the
//     removed read could not have trapped;
//   * common-subexpression elimination — a unop/binop with the same
//     operator and operand atoms as a dominating one reuses its result
//     (division and modulo included: the dominating one succeeded);
//   * comparison simplification — `t != 0` where t is a comparison result
//     (already 0 or 1) becomes t;
//   * dead-let elimination — pure, unused bindings are dropped.
//     Allocations and anything that can trap stay put; a read goes only
//     when replaced as above.
//
// All facts live within one function body: they are copied into both arms
// of an `if` and never merged, and nothing crosses a tail call or a
// speculate/commit/rollback/migrate, since those end a function in CPS.
//
// Passes iterate to a fixpoint (bounded). The result always re-typechecks,
// and the VM must produce identical observable behaviour — properties the
// test suite enforces on randomized programs.
#pragma once

#include "fir/ir.hpp"

namespace mojave::fir {

struct OptimizeStats {
  std::uint64_t constants_folded = 0;
  std::uint64_t copies_propagated = 0;
  std::uint64_t branches_folded = 0;
  std::uint64_t dead_lets_removed = 0;
  std::uint64_t reads_reused = 0;         ///< read replaced by an earlier read
  std::uint64_t stores_forwarded = 0;     ///< read replaced by a stored value
  std::uint64_t stores_removed = 0;  ///< write of what the slot already held
  std::uint64_t exprs_shared = 0;         ///< unop/binop replaced by CSE
  std::uint64_t compares_simplified = 0;  ///< `t != 0` replaced by t

  [[nodiscard]] std::uint64_t total() const {
    return constants_folded + copies_propagated + branches_folded +
           dead_lets_removed + reads_reused + stores_forwarded +
           stores_removed + exprs_shared + compares_simplified;
  }
};

/// Optimize in place; returns what was done.
OptimizeStats optimize(Program& program);

/// The largest function the backend accepts after lowering.
struct InlineLimits {
  std::size_t max_regs = 0;   ///< variables plus scratch registers
  std::size_t max_insns = 0;  ///< bytecode instructions
};

/// Single-use block inlining: move every function whose only reference in
/// the program is the callee of one tail call in another function into
/// that call site, then delete it. Returns the number of calls inlined.
[[nodiscard]] std::uint64_t inline_once(Program& program,
                                        const InlineLimits& limits);

}  // namespace mojave::fir
