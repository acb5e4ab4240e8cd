#include "ckpt/chunker.hpp"

#include <array>

#include "support/error.hpp"

namespace mojave::ckpt {

namespace {

/// Deterministic 256-entry gear table (splitmix64 over the byte value).
/// Constant across builds and platforms, so stores written by one node
/// chunk identically on every other node.
std::array<std::uint64_t, 256> make_gear_table() {
  std::array<std::uint64_t, 256> gear{};
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  for (auto& g : gear) {
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    g = z ^ (z >> 31);
  }
  return gear;
}

/// Bytes of history the gear hash keeps: `h << 1` per byte pushes a
/// byte's contribution out of the 64-bit state after this many steps.
constexpr std::size_t kGearWindow = 64;

const std::array<std::uint64_t, 256>& gear_table() {
  static const std::array<std::uint64_t, 256> table = make_gear_table();
  return table;
}

}  // namespace

void ChunkerConfig::validate() const {
  if (target_bytes == 0 || (target_bytes & (target_bytes - 1)) != 0) {
    throw Error("chunker: target_bytes must be a nonzero power of two");
  }
  if (min_bytes == 0 || min_bytes > target_bytes || target_bytes > max_bytes) {
    throw Error("chunker: need 0 < min_bytes <= target_bytes <= max_bytes");
  }
}

std::vector<std::span<const std::byte>> split_chunks(
    std::span<const std::byte> data, const ChunkerConfig& cfg) {
  cfg.validate();
  std::vector<std::span<const std::byte>> chunks;
  if (data.empty()) return chunks;

  if (cfg.mode == ChunkerConfig::Mode::kFixed) {
    for (std::size_t off = 0; off < data.size(); off += cfg.target_bytes) {
      chunks.push_back(
          data.subspan(off, std::min(cfg.target_bytes, data.size() - off)));
    }
    return chunks;
  }

  // Gear CDC: h = (h << 1) + gear[b]; cut where the top target_bits of a
  // byte-position-independent hash are zero, giving an expected chunk
  // size of target_bytes past the minimum.
  const auto& gear = gear_table();
  const std::uint64_t mask = static_cast<std::uint64_t>(cfg.target_bytes - 1);
  std::size_t start = 0;
  while (start < data.size()) {
    const std::size_t remaining = data.size() - start;
    if (remaining <= cfg.min_bytes) {
      chunks.push_back(data.subspan(start));
      break;
    }
    const std::size_t limit = std::min(remaining, cfg.max_bytes);
    // A byte shifts out of the 64-bit hash 64 positions later, so the
    // hash at the first eligible position (min_bytes - 1) depends only
    // on the 64 bytes ending there: warm up over those, not the whole
    // minimum region. Cut points are the same as hashing from `start`.
    std::size_t len =
        cfg.min_bytes > kGearWindow ? cfg.min_bytes - kGearWindow : 0;
    std::uint64_t h = 0;
    for (; len + 1 < cfg.min_bytes; ++len) {
      h = (h << 1) + gear[static_cast<std::uint8_t>(data[start + len])];
    }
    for (; len < limit; ++len) {
      h = (h << 1) + gear[static_cast<std::uint8_t>(data[start + len])];
      if ((h & mask) == 0) {
        ++len;
        break;
      }
    }
    chunks.push_back(data.subspan(start, len));
    start += len;
  }
  return chunks;
}

}  // namespace mojave::ckpt
