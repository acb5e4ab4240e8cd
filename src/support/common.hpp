// Common small utilities shared by every Mojave module.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace mojave {

/// Version of the on-disk / on-wire state image format. Bumped whenever
/// the serialized layout of programs or process images changes, or its
/// checksum (4: xxh64 trailer; 3 used FNV-1a).
inline constexpr std::uint32_t kImageFormatVersion = 4;

/// Magic prefix for serialized process images ("MOJV").
inline constexpr std::uint32_t kImageMagic = 0x4d4f4a56;

/// Index into the pointer table. Index 0 is reserved as the null pointer,
/// matching the paper's "free entry" validation rule: a valid base pointer
/// is a non-zero index whose table entry is occupied.
using BlockIndex = std::uint32_t;
inline constexpr BlockIndex kNullIndex = 0;

/// Index into the function table.
using FunIndex = std::uint32_t;

/// Speculation level. Level 0 means "not speculating"; active levels are
/// numbered 1..N with 1 the oldest, as in the paper (Section 4.3.1).
using SpecLevel = std::uint32_t;

/// Label correlating a runtime migration point with its FIR location.
using MigrateLabel = std::uint32_t;

}  // namespace mojave
