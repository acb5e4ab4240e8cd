// Non-cryptographic hashes for integrity checks and content addresses.
//
// xxh64 is the checksum of every bulk payload: process images, dnode
// frames, checkpoint chunk keys, manifests and extent records. It reads
// eight bytes per step (XXH64, Yann Collet's published algorithm), about
// ten times faster per byte than FNV-1a. fnv1a stays for the control
// plane's WAL and lease records: they are tens of bytes long and their
// on-disk format has no version to bump.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string_view>

namespace mojave {

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

[[nodiscard]] inline std::uint64_t fnv1a(std::span<const std::byte> data,
                                         std::uint64_t seed = kFnvOffset) {
  std::uint64_t h = seed;
  for (std::byte b : data) {
    h ^= static_cast<std::uint8_t>(b);
    h *= kFnvPrime;
  }
  return h;
}

[[nodiscard]] inline std::uint64_t fnv1a(std::string_view s,
                                         std::uint64_t seed = kFnvOffset) {
  return fnv1a(std::as_bytes(std::span(s.data(), s.size())), seed);
}

namespace detail {

inline constexpr std::uint64_t kXxPrime1 = 0x9e3779b185ebca87ULL;
inline constexpr std::uint64_t kXxPrime2 = 0xc2b2ae3d27d4eb4fULL;
inline constexpr std::uint64_t kXxPrime3 = 0x165667b19e3779f9ULL;
inline constexpr std::uint64_t kXxPrime4 = 0x85ebca77c2b2ae63ULL;
inline constexpr std::uint64_t kXxPrime5 = 0x27d4eb2f165667c5ULL;

/// Little-endian load, whatever the host byte order.
template <typename T>
[[nodiscard]] inline T load_le(const std::byte* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  if constexpr (std::endian::native == std::endian::big) {
    if constexpr (sizeof(T) == 8) v = __builtin_bswap64(v);
    if constexpr (sizeof(T) == 4) v = __builtin_bswap32(v);
  }
  return v;
}

[[nodiscard]] inline std::uint64_t xxh64_round(std::uint64_t acc,
                                               std::uint64_t input) {
  acc += input * kXxPrime2;
  return std::rotl(acc, 31) * kXxPrime1;
}

[[nodiscard]] inline std::uint64_t xxh64_merge(std::uint64_t acc,
                                               std::uint64_t lane) {
  acc ^= xxh64_round(0, lane);
  return acc * kXxPrime1 + kXxPrime4;
}

}  // namespace detail

[[nodiscard]] inline std::uint64_t xxh64(std::span<const std::byte> data,
                                         std::uint64_t seed = 0) {
  using namespace detail;
  const std::byte* p = data.data();
  const std::byte* const end = p + data.size();
  std::uint64_t h;
  if (data.size() >= 32) {
    std::uint64_t v1 = seed + kXxPrime1 + kXxPrime2;
    std::uint64_t v2 = seed + kXxPrime2;
    std::uint64_t v3 = seed;
    std::uint64_t v4 = seed - kXxPrime1;
    const std::byte* const stripes_end = end - 32;
    do {
      v1 = xxh64_round(v1, load_le<std::uint64_t>(p));
      v2 = xxh64_round(v2, load_le<std::uint64_t>(p + 8));
      v3 = xxh64_round(v3, load_le<std::uint64_t>(p + 16));
      v4 = xxh64_round(v4, load_le<std::uint64_t>(p + 24));
      p += 32;
    } while (p <= stripes_end);
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
        std::rotl(v4, 18);
    h = xxh64_merge(h, v1);
    h = xxh64_merge(h, v2);
    h = xxh64_merge(h, v3);
    h = xxh64_merge(h, v4);
  } else {
    h = seed + kXxPrime5;
  }
  h += static_cast<std::uint64_t>(data.size());
  for (; p + 8 <= end; p += 8) {
    h ^= xxh64_round(0, load_le<std::uint64_t>(p));
    h = std::rotl(h, 27) * kXxPrime1 + kXxPrime4;
  }
  if (p + 4 <= end) {
    h ^= static_cast<std::uint64_t>(load_le<std::uint32_t>(p)) * kXxPrime1;
    h = std::rotl(h, 23) * kXxPrime2 + kXxPrime3;
    p += 4;
  }
  for (; p < end; ++p) {
    h ^= static_cast<std::uint64_t>(static_cast<std::uint8_t>(*p)) * kXxPrime5;
    h = std::rotl(h, 11) * kXxPrime1;
  }
  h ^= h >> 33;
  h *= kXxPrime2;
  h ^= h >> 29;
  h *= kXxPrime3;
  h ^= h >> 32;
  return h;
}

[[nodiscard]] inline std::uint64_t xxh64(std::string_view s,
                                         std::uint64_t seed = 0) {
  return xxh64(std::as_bytes(std::span(s.data(), s.size())), seed);
}

}  // namespace mojave
