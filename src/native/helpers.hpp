// C helpers callable from compiled code.
//
// Every operation that may allocate, run a speculation copy-on-write hook,
// or otherwise reach deep into the runtime is performed by one of these
// functions instead of inline machine code. They take virtual register
// *numbers* and operate on ctx->frame directly; compiled code writes back
// every register it caches before the call and drops every cached Block*
// after it, so each helper call is a GC safepoint.
//
// Return convention: nonzero on success. Zero means the runtime raised an
// exception; the caller (compiled code) must deoptimize with reason
// kHelperTrap *without* counting the instruction, so the interpreter
// re-executes it and raises the identical error through a normal C++
// unwind path (exceptions must never propagate through JIT frames, which
// carry no unwind tables).
#pragma once

#include <cstdint>

#include "native/abi.hpp"

extern "C" {

/// kAllocTagged: frame[dst] = ptr to new tagged block of frame[nreg] slots
/// initialized from frame[initreg].
std::uint64_t moj_nat_alloc_tagged(mojave::native::NativeContext* ctx,
                                   std::uint64_t nreg, std::uint64_t initreg,
                                   std::uint64_t dstreg);

/// kAllocRaw: frame[dst] = ptr to new zeroed raw block of frame[nreg] bytes.
std::uint64_t moj_nat_alloc_raw(mojave::native::NativeContext* ctx,
                                std::uint64_t nreg, std::uint64_t dstreg);

/// kWrite via the full runtime path (speculation hook + write barrier).
std::uint64_t moj_nat_write_slot(mojave::native::NativeContext* ctx,
                                 std::uint64_t preg, std::uint64_t offreg,
                                 std::uint64_t vreg);

/// kRawStore via the full runtime path.
std::uint64_t moj_nat_raw_store(mojave::native::NativeContext* ctx,
                                std::uint64_t preg, std::uint64_t offreg,
                                std::uint64_t vreg, std::uint64_t width);

/// kRawStoreF via the full runtime path.
std::uint64_t moj_nat_raw_store_f(mojave::native::NativeContext* ctx,
                                  std::uint64_t preg, std::uint64_t offreg,
                                  std::uint64_t vreg);

}  // extern "C"
