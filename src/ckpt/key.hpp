// Content address for one chunk, shared by the checkpoint store (which
// names checkpoints in terms of keys) and the log-structured engine
// (which maps keys to extent offsets).
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "support/hash.hpp"

namespace mojave::ckpt {

/// 128-bit content address: two xxh64 passes over the chunk.
///
/// `seed` is the writer's key seed (CheckpointStore draws one at random
/// per instance and records it in every manifest it writes): the same
/// bytes get a different key from each writer, so a writer only ever
/// deduplicates against, and evicts, chunks it wrote itself.
struct ChunkKey {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  [[nodiscard]] static ChunkKey of(std::span<const std::byte> data,
                                   std::uint64_t seed = 0) {
    /// Seed diversifier for the second pass, so (hi, lo) are not
    /// trivially correlated.
    constexpr std::uint64_t kLoSeedSalt = 0x9e3779b97f4a7c15ULL;
    ChunkKey key;
    key.hi = xxh64(data, seed);
    key.lo = xxh64(data, key.hi ^ kLoSeedSalt);
    return key;
  }

  [[nodiscard]] std::string hex() const;  ///< 32 lowercase hex chars

  auto operator<=>(const ChunkKey&) const = default;
};

}  // namespace mojave::ckpt
