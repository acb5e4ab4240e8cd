// Process state images: the pack and unpack operations (paper, Section 4.2).
//
// pack   — "first performs garbage collection on the heap. Then it packs
//          the live data, the pointer table, the program text, and the
//          registers into a message that can be stored or transmitted."
//          The live variables at the migration point are spilled into a
//          fresh `migrate_env` heap block, so the only out-of-heap state is
//          the index of that block plus the resume location.
// unpack — rebuilds the pointer table and heap at the destination. For an
//          untrusted (FIR) image the program is type-checked and
//          recompiled (lowered) first — the dominant cost of migration in
//          an untrusted environment. A trusted (binary) image carries the
//          bytecode directly and skips both steps.
//
// Every integer in the image is canonical little-endian; a trailing xxh64
// checksum rejects transport corruption before any reconstruction begins.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "vm/process.hpp"

namespace mojave::migrate {

enum class ImageKind : std::uint8_t {
  kFir = 0,     ///< untrusted: carries FIR, destination re-verifies
  kBinary = 1,  ///< trusted: carries bytecode, destination trusts it
};

struct PackStats {
  std::size_t image_bytes = 0;
  std::size_t heap_blocks = 0;
  std::size_t heap_payload_bytes = 0;
  double gc_seconds = 0;
  double serialize_seconds = 0;
};

struct PackResult {
  std::vector<std::byte> bytes;
  PackStats stats;
};

/// Capture the entire state of `proc`, to be resumed at continuation
/// `resume_fun(args...)` (the continuation of the migrate instruction,
/// correlated by `label`). Requires no active speculation: the paper's
/// programs commit before checkpointing (Figure 2), and a speculation's
/// rollback state is meaningless on another machine.
[[nodiscard]] PackResult pack_process(vm::Process& proc, MigrateLabel label,
                                      FunIndex resume_fun,
                                      std::span<const runtime::Value> args,
                                      ImageKind kind);

struct UnpackBreakdown {
  double decode_seconds = 0;
  double typecheck_seconds = 0;   ///< zero on the trusted path
  double recompile_seconds = 0;   ///< lowering; zero on the trusted path
  double heap_restore_seconds = 0;
};

struct UnpackResult {
  std::unique_ptr<vm::Process> process;
  FunIndex resume_fun = 0;
  std::vector<runtime::Value> resume_args;
  MigrateLabel label = 0;
  ImageKind kind = ImageKind::kFir;
  UnpackBreakdown breakdown;
};

/// Reconstruct a process from an image. The caller resumes it with
/// `result.process->resume(result.resume_fun, result.resume_args)`.
/// Throws ImageError on corruption, TypeError if an untrusted program
/// fails verification, SafetyError if the resume point is inconsistent.
[[nodiscard]] UnpackResult unpack_process(std::span<const std::byte> image,
                                          vm::ProcessConfig cfg = {});

/// Peek at an image's kind and payload size without reconstructing it.
struct ImageInfo {
  ImageKind kind = ImageKind::kFir;
  std::string program_name;
  std::size_t heap_blocks = 0;
  std::size_t total_bytes = 0;
};
[[nodiscard]] ImageInfo inspect_image(std::span<const std::byte> image);

}  // namespace mojave::migrate
