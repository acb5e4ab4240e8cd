// Scalar operator semantics shared by every backend.
//
// Both execution engines (the bytecode interpreter and the RISC machine
// simulator) — and the FIR optimizer's constant folder — must agree on
// arithmetic down to the last bit, or migration between backends would
// change program behaviour. This header is the single definition.
#pragma once

#include "fir/ir.hpp"
#include "runtime/value.hpp"
#include "support/error.hpp"
#include "support/wrap.hpp"

namespace mojave::vm {

inline runtime::Value eval_unop(fir::Unop op, const runtime::Value& a) {
  using fir::Unop;
  using runtime::Value;
  switch (op) {
    case Unop::kNeg:
      return Value::from_int(wrap_neg(a.as_int()));
    case Unop::kNot:
      return Value::from_int(a.as_int() == 0 ? 1 : 0);
    case Unop::kBitNot:
      return Value::from_int(~a.as_int());
    case Unop::kFNeg:
      return Value::from_float(-a.as_float());
    case Unop::kIntOfFloat:
      return Value::from_int(static_cast<std::int64_t>(a.as_float()));
    case Unop::kFloatOfInt:
      return Value::from_float(static_cast<double>(a.as_int()));
  }
  throw SafetyError("unknown unary operator");
}

inline runtime::Value eval_binop(fir::Binop op, const runtime::Value& a,
                                 const runtime::Value& b) {
  using fir::Binop;
  using runtime::Value;
  switch (op) {
    case Binop::kAdd:
      return Value::from_int(wrap_add(a.as_int(), b.as_int()));
    case Binop::kSub:
      return Value::from_int(wrap_sub(a.as_int(), b.as_int()));
    case Binop::kMul:
      return Value::from_int(wrap_mul(a.as_int(), b.as_int()));
    case Binop::kDiv: {
      const std::int64_t d = b.as_int();
      if (d == 0) throw SafetyError("integer division by zero");
      return Value::from_int(wrap_div(a.as_int(), d));
    }
    case Binop::kMod: {
      const std::int64_t d = b.as_int();
      if (d == 0) throw SafetyError("integer modulo by zero");
      return Value::from_int(wrap_mod(a.as_int(), d));
    }
    case Binop::kAnd:
      return Value::from_int(a.as_int() & b.as_int());
    case Binop::kOr:
      return Value::from_int(a.as_int() | b.as_int());
    case Binop::kXor:
      return Value::from_int(a.as_int() ^ b.as_int());
    case Binop::kShl:
      return Value::from_int(a.as_int() << (b.as_int() & 63));
    case Binop::kShr:
      return Value::from_int(a.as_int() >> (b.as_int() & 63));
    case Binop::kLt:
      return Value::from_int(a.as_int() < b.as_int() ? 1 : 0);
    case Binop::kLe:
      return Value::from_int(a.as_int() <= b.as_int() ? 1 : 0);
    case Binop::kGt:
      return Value::from_int(a.as_int() > b.as_int() ? 1 : 0);
    case Binop::kGe:
      return Value::from_int(a.as_int() >= b.as_int() ? 1 : 0);
    case Binop::kEq:
      return Value::from_int(a.as_int() == b.as_int() ? 1 : 0);
    case Binop::kNe:
      return Value::from_int(a.as_int() != b.as_int() ? 1 : 0);
    case Binop::kFAdd:
      return Value::from_float(a.as_float() + b.as_float());
    case Binop::kFSub:
      return Value::from_float(a.as_float() - b.as_float());
    case Binop::kFMul:
      return Value::from_float(a.as_float() * b.as_float());
    case Binop::kFDiv:
      return Value::from_float(a.as_float() / b.as_float());
    case Binop::kFLt:
      return Value::from_int(a.as_float() < b.as_float() ? 1 : 0);
    case Binop::kFLe:
      return Value::from_int(a.as_float() <= b.as_float() ? 1 : 0);
    case Binop::kFGt:
      return Value::from_int(a.as_float() > b.as_float() ? 1 : 0);
    case Binop::kFGe:
      return Value::from_int(a.as_float() >= b.as_float() ? 1 : 0);
    case Binop::kFEq:
      return Value::from_int(a.as_float() == b.as_float() ? 1 : 0);
    case Binop::kFNe:
      return Value::from_int(a.as_float() != b.as_float() ? 1 : 0);
  }
  throw SafetyError("unknown binary operator");
}

/// Effective offset of a (base, offset) pointer plus an index operand.
inline std::uint32_t effective_offset(runtime::PtrValue p, std::int64_t off) {
  const std::int64_t eff = static_cast<std::int64_t>(p.offset) + off;
  if (eff < 0 || eff > static_cast<std::int64_t>(UINT32_MAX)) {
    throw SafetyError("pointer offset " + std::to_string(eff) +
                      " out of representable range");
  }
  return static_cast<std::uint32_t>(eff);
}

}  // namespace mojave::vm
