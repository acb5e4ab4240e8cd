// Two's-complement 64-bit integer arithmetic without undefined behaviour.
//
// MojC integers wrap on overflow, as in Java and Go: every backend and the
// FIR constant folder compute through these helpers, so INT64_MAX + 1,
// -INT64_MIN and INT64_MIN / -1 give one defined answer everywhere instead
// of a compiler-dependent one (or a SIGFPE from the hardware divider).
#pragma once

#include <cstdint>

namespace mojave {

[[nodiscard]] inline std::int64_t wrap_add(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                   static_cast<std::uint64_t>(b));
}

[[nodiscard]] inline std::int64_t wrap_sub(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) -
                                   static_cast<std::uint64_t>(b));
}

[[nodiscard]] inline std::int64_t wrap_mul(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) *
                                   static_cast<std::uint64_t>(b));
}

[[nodiscard]] inline std::int64_t wrap_neg(std::int64_t a) {
  return static_cast<std::int64_t>(0 - static_cast<std::uint64_t>(a));
}

/// a / b for b != 0 (the caller owns the zero-divisor trap);
/// INT64_MIN / -1 is INT64_MIN.
[[nodiscard]] inline std::int64_t wrap_div(std::int64_t a, std::int64_t b) {
  return b == -1 ? wrap_neg(a) : a / b;
}

/// a % b for b != 0; INT64_MIN % -1 is 0.
[[nodiscard]] inline std::int64_t wrap_mod(std::int64_t a, std::int64_t b) {
  return b == -1 ? 0 : a % b;
}

}  // namespace mojave
