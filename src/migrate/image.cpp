#include "migrate/image.hpp"

#include <cstring>

#include "fir/legalize.hpp"
#include "fir/serialize.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/value_codec.hpp"
#include "fir/typecheck.hpp"
#include "support/hash.hpp"
#include "support/stopwatch.hpp"
#include "vm/lowering.hpp"

namespace mojave::migrate {

using runtime::Block;
using runtime::BlockKind;
using runtime::Tag;
using runtime::Value;

namespace {

/// A parsed-but-not-yet-allocated heap block.
struct BlockRecord {
  BlockIndex index = kNullIndex;
  BlockKind kind = BlockKind::kTagged;
  std::uint32_t count = 0;
  std::vector<Value> slots;        // kTagged
  std::span<const std::byte> raw;  // kRaw (view into the image)
};

/// Magic and version first, so an image from another format version is
/// reported as such rather than as a checksum mismatch.
void verify_header_and_checksum(std::span<const std::byte> image) {
  if (image.size() < 12 + 8) throw ImageError("image too small");
  Reader head(image.subspan(0, 8));
  if (head.u32() != kImageMagic) throw ImageError("bad image magic");
  if (const std::uint32_t version = head.u32();
      version != kImageFormatVersion) {
    throw ImageError("image format version " + std::to_string(version) +
                     " is not readable by this build (it reads version " +
                     std::to_string(kImageFormatVersion) + ")");
  }
  const std::size_t body = image.size() - 8;
  Reader tail(image.subspan(body));
  const std::uint64_t want = tail.u64();
  const std::uint64_t got = xxh64(image.subspan(0, body));
  if (want != got) throw ImageError("image checksum mismatch");
}

}  // namespace

PackResult pack_process(vm::Process& proc, MigrateLabel label,
                        FunIndex resume_fun,
                        std::span<const runtime::Value> args, ImageKind kind) {
  obs::ScopedSpan span("migrate", "pack");
  Stopwatch pack_sw;
  runtime::Heap& heap = proc.heap();
  if (proc.spec().current_level() != 0) {
    throw MigrateError(
        "cannot pack a process with active speculations; commit or roll "
        "back first (cf. Figure 2: commit precedes every checkpoint)");
  }

  PackResult result;
  Stopwatch total;

  // Spill the live variables (the continuation's arguments) into a fresh
  // migrate_env block; afterwards the heap is the entire state.
  runtime::RootSet roots(heap);
  const BlockIndex env = heap.alloc_tagged(
      static_cast<std::uint32_t>(args.size()), Value::unit());
  roots.pin(Value::from_ptr(env, 0));
  for (std::uint32_t i = 0; i < args.size(); ++i) {
    heap.write_slot(env, i, args[i]);
  }

  // "The pack operation first performs garbage collection on the heap."
  Stopwatch gc_sw;
  heap.collect(/*major=*/true);
  result.stats.gc_seconds = gc_sw.seconds();

  Stopwatch ser_sw;
  Writer w;
  w.u32(kImageMagic);
  w.u32(kImageFormatVersion);
  w.u8(static_cast<std::uint8_t>(kind));

  // Program text: FIR for the untrusted path, bytecode for the trusted one.
  const std::vector<std::byte>& program_bytes =
      proc.program_text(kind == ImageKind::kFir);
  w.str(kind == ImageKind::kFir ? proc.program().name
                                : proc.vm().compiled().name);
  w.u32(static_cast<std::uint32_t>(program_bytes.size()));
  w.bytes(program_bytes);

  // Resume point.
  w.u32(label);
  w.u32(resume_fun);
  w.u32(env);

  // Interned string blocks (VM state that must survive the trip).
  const auto& sblocks = proc.vm().string_blocks();
  w.u32(static_cast<std::uint32_t>(sblocks.size()));
  for (BlockIndex idx : sblocks) w.u32(idx);

  // The heap: every live block, in pointer-table order.
  const std::size_t count_pos = w.size();
  w.u32(0);  // patched below
  std::uint32_t nblocks = 0;
  heap.table().for_each_entry([&](BlockIndex idx, Block*& b) {
    ++nblocks;
    w.u32(idx);
    w.u8(static_cast<std::uint8_t>(b->h.kind));
    w.u32(b->h.count);
    if (b->h.kind == BlockKind::kTagged) {
      const Value* s = b->slots();
      for (std::uint32_t i = 0; i < b->h.count; ++i) runtime::write_value(w, s[i]);
    } else {
      w.bytes({b->bytes(), b->h.count});
    }
    result.stats.heap_payload_bytes += b->payload_bytes();
  });
  w.patch_u32(count_pos, nblocks);
  w.u64(xxh64(w.view()));

  result.stats.heap_blocks = nblocks;
  result.stats.serialize_seconds = ser_sw.seconds();
  result.bytes = w.take();
  result.stats.image_bytes = result.bytes.size();

  span.set_arg("image_bytes", result.bytes.size());
  auto& reg = obs::MetricsRegistry::instance();
  static obs::Counter& packed_ctr = reg.counter("migrate.images_packed");
  static obs::Counter& packed_bytes = reg.counter("migrate.image_bytes_packed");
  static obs::Histogram& pack_us = reg.histogram("migrate.pack_us");
  packed_ctr.inc();
  packed_bytes.inc(result.bytes.size());
  pack_us.record_seconds(pack_sw.seconds());
  return result;
}

UnpackResult unpack_process(std::span<const std::byte> image,
                            vm::ProcessConfig cfg) {
  obs::ScopedSpan span("migrate", "unpack");
  span.set_arg("image_bytes", image.size());
  Stopwatch unpack_sw;
  verify_header_and_checksum(image);
  UnpackResult out;
  Reader r(image.subspan(8, image.size() - 16));
  const std::uint8_t kind_byte = r.u8();
  if (kind_byte > 1) throw ImageError("bad image kind");
  out.kind = static_cast<ImageKind>(kind_byte);
  const std::string name = r.str();
  (void)name;

  const std::uint32_t program_size = r.u32();
  const auto program_bytes = r.bytes(program_size);

  // Decode, and for the untrusted path verify + recompile — the expensive
  // part of FIR migration the benchmarks measure.
  vm::CompiledProgram compiled;
  fir::Program program;
  bool have_fir = false;
  {
    Stopwatch sw;
    if (out.kind == ImageKind::kFir) {
      program = fir::decode_program(program_bytes);
      have_fir = true;
      out.breakdown.decode_seconds = sw.seconds();
      sw.reset();
      {
        obs::ScopedSpan verify_span("migrate", "typecheck");
        // Senders legalize before packing; re-legalizing is idempotent and
        // keeps recompilation canonical for images from older senders.
        fir::legalize(program);
        fir::typecheck(program);
      }
      out.breakdown.typecheck_seconds = sw.seconds();
      sw.reset();
      {
        obs::ScopedSpan recompile_span("migrate", "recompile");
        compiled = vm::lower(program);
      }
      out.breakdown.recompile_seconds = sw.seconds();
      obs::MetricsRegistry::instance()
          .histogram("migrate.recompile_us")
          .record_seconds(out.breakdown.recompile_seconds +
                          out.breakdown.typecheck_seconds);
    } else {
      Reader pr(program_bytes);
      compiled = vm::deserialize_compiled(pr);
      if (!pr.done()) throw ImageError("trailing bytes after bytecode");
      out.breakdown.decode_seconds = sw.seconds();
    }
  }

  out.label = r.u32();
  out.resume_fun = r.u32();
  const BlockIndex env_index = r.u32();

  const std::uint32_t nstrings = r.u32();
  if (nstrings != compiled.strings.size()) {
    throw ImageError("string block table does not match program");
  }
  std::vector<BlockIndex> string_blocks;
  string_blocks.reserve(nstrings);
  for (std::uint32_t i = 0; i < nstrings; ++i) string_blocks.push_back(r.u32());

  // Parse the heap section before allocating anything, so the destination
  // heap can be sized exactly once (restore never collects).
  Stopwatch heap_sw;
  const std::uint32_t nblocks = r.u32();
  if (nblocks > (1u << 26)) throw ImageError("unreasonable block count");
  std::vector<BlockRecord> records;
  records.reserve(nblocks);
  std::size_t total_footprint = 0;
  BlockIndex last_index = kNullIndex;
  for (std::uint32_t i = 0; i < nblocks; ++i) {
    BlockRecord rec;
    rec.index = r.u32();
    if (rec.index <= last_index) throw ImageError("heap blocks out of order");
    last_index = rec.index;
    const std::uint8_t bk = r.u8();
    if (bk > 1) throw ImageError("bad block kind");
    rec.kind = static_cast<BlockKind>(bk);
    rec.count = r.u32();
    if (rec.kind == BlockKind::kTagged) {
      if (rec.count > (1u << 26)) throw ImageError("unreasonable block size");
      rec.slots.reserve(rec.count);
      for (std::uint32_t s = 0; s < rec.count; ++s) {
        rec.slots.push_back(runtime::read_value(r));
      }
    } else {
      rec.raw = r.bytes(rec.count);
    }
    total_footprint += Block::footprint_for(rec.kind, rec.count);
    records.push_back(std::move(rec));
  }

  // Size the heap for the image plus headroom, then reconstruct.
  cfg.heap.old_capacity =
      std::max(cfg.heap.old_capacity, 2 * total_footprint + 65536);
  auto proc = std::make_unique<vm::Process>(std::move(compiled), cfg,
                                            /*intern_strings=*/false);
  if (have_fir) proc->attach_fir(std::move(program));

  runtime::Heap& heap = proc->heap();
  for (const BlockRecord& rec : records) {
    Block* b = heap.restore_block(rec.index, rec.kind, rec.count);
    if (rec.kind == BlockKind::kTagged) {
      Value* s = b->slots();
      for (std::uint32_t i = 0; i < rec.count; ++i) s[i] = rec.slots[i];
    } else if (rec.count > 0) {
      std::memcpy(b->bytes(), rec.raw.data(), rec.count);
    }
  }
  out.breakdown.heap_restore_seconds = heap_sw.seconds();

  // Validate and install the resume state. The label must correspond to a
  // migrate instruction of this program whose continuation is resume_fun.
  const auto& vm = proc->vm();
  const auto label_it = vm.compiled().migrate_labels.find(out.label);
  if (label_it == vm.compiled().migrate_labels.end()) {
    throw SafetyError("image resume label " + std::to_string(out.label) +
                      " is not a migration point of this program");
  }
  if (label_it->second != UINT32_MAX && label_it->second != out.resume_fun) {
    throw SafetyError("image resume function does not match migrate label");
  }
  for (BlockIndex idx : string_blocks) {
    if (heap.table().is_free(idx)) {
      throw ImageError("string block missing from heap image");
    }
  }
  proc->vm().set_string_blocks(std::move(string_blocks));

  // Registers are re-read from migrate_env with the standard safety checks
  // (re-applied by validate_call when the caller resumes).
  Block* env = heap.deref(env_index);
  if (env->h.kind != BlockKind::kTagged) {
    throw SafetyError("migrate_env is not a tagged block");
  }
  out.resume_args.assign(env->slots(), env->slots() + env->h.count);
  out.process = std::move(proc);

  auto& reg = obs::MetricsRegistry::instance();
  static obs::Counter& unpacked_ctr = reg.counter("migrate.images_unpacked");
  static obs::Histogram& unpack_us = reg.histogram("migrate.unpack_us");
  unpacked_ctr.inc();
  unpack_us.record_seconds(unpack_sw.seconds());
  return out;
}

ImageInfo inspect_image(std::span<const std::byte> image) {
  verify_header_and_checksum(image);
  Reader r(image.subspan(8, image.size() - 16));
  ImageInfo info;
  const std::uint8_t kind_byte = r.u8();
  if (kind_byte > 1) throw ImageError("bad image kind");
  info.kind = static_cast<ImageKind>(kind_byte);
  info.program_name = r.str();
  info.total_bytes = image.size();
  return info;
}

}  // namespace mojave::migrate
