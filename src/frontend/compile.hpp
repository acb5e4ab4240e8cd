// MojC → FIR compilation.
//
// This pass is where the paper's promise is kept: "the compiler generates
// process state management code automatically, removing the need for the
// user to implement hand-written checkpointing code." Concretely:
//
//  * the function is split into continuation parts at every construct that
//    suspends or transfers control — user calls, if/while joins,
//    speculate(), commit(), migrate() — converting the program to the
//    FIR's continuation-passing style ("function calls in the source
//    language are converted to tail-calls using continuation passing
//    style; loops are expressed with recursive functions");
//  * MojC locals are the parts' parameters: every part except a call's
//    return part takes the locals in scope where it is declared, in slot
//    order, after any leading parameter (`c` of a speculate part) and
//    before the frame pointer. A read is the local's current atom, a
//    write rebinds it, and each transfer passes the current values;
//  * so the live state at each point is (locals..., frame pointer), which
//    is what the FIR primitives capture and restore: speculate() saves the
//    locals with the level, and rollback/abort re-enters with them, so
//    locals revert with no user involvement;
//  * each activation's heap frame block is only the continuation
//    environment of user calls: k/kenv in slots 0/1, and a home slot per
//    local, written before a call and read back in its return part (whose
//    signature k(ret, kenv) fixes).
//
// Language-level primitives recognized by the compiler:
//   int id = speculate();        enter a level; id > 0 is the level number
//                                on first entry, and the rollback c value
//                                (≤ 0 by convention) after a rollback
//   commit(id);                  commit level id
//   abort(id);  abort(id, c);    roll back without re-entry
//   rollback(id, c);             roll back and automatically retry
//   migrate("protocol://...");   whole-process migration / checkpoint
//
// Value builtins: alloc, alloc_raw, len, ptr_add, readf, readp, i2f, f2i,
// load8/16/32/64, loadf64, null. Void builtins: store8/16/32/64, storef64,
// exit. Anything else undeclared must be an `extern` host function.
#pragma once

#include <string>

#include "fir/ir.hpp"
#include "frontend/ast.hpp"

namespace mojave::frontend {

/// Compile a parsed unit. Throws TypeError on semantic errors.
[[nodiscard]] fir::Program compile(const Unit& unit);

/// Parse + compile in one step.
[[nodiscard]] fir::Program compile_source(const std::string& name,
                                          const std::string& source);

}  // namespace mojave::frontend
