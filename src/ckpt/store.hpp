// Incremental, content-addressed checkpoint store.
//
// The paper's fault-tolerance story needs frequent whole-process
// checkpoints to shared storage, but writing the full image every time
// makes checkpoint frequency a function of image size. This store makes
// it a function of *change*: a packed image is split into chunks
// (ckpt/chunker.hpp), each chunk is stored once under its content hash,
// and a checkpoint becomes a small *manifest* — the ordered chunk list
// plus whole-image checksum. A second snapshot whose heap pages and
// program text are unchanged uploads only the chunks that actually
// differ; everything else dedupes against what the store already holds,
// across snapshots and across nodes.
//
// Layout under a cluster::SharedStorage root (a manifest is written by
// atomic temp-file + rename; extents are append-only, self-framing
// records — so concurrent readers never see a torn object):
//
//   extents/ext-<pid>-<nonce>-<n>.x   chunk records keyed by content hash
//                                     (ckpt/engine.hpp)
//   manifests/<snapshot>@<seq>.mft    ordered chunk refs + checksums
//
// Restore walks manifests newest-first: a manifest whose checksum fails,
// or that references a missing/corrupt chunk, is skipped and the previous
// complete manifest is used instead — a crash (or bit rot) between chunk
// writes and the manifest rename costs at most one checkpoint interval,
// never a torn image.
//
// Retention keeps the newest `keep_manifests` manifests per snapshot and
// garbage-collects chunks no surviving manifest references, with
// reference counting across *all* snapshots so shared chunks survive.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "ckpt/chunker.hpp"
#include "ckpt/engine.hpp"
#include "ckpt/key.hpp"
#include "cluster/storage.hpp"

namespace mojave::ckpt {

struct ManifestEntry {
  ChunkKey key;
  std::uint32_t length = 0;
};

/// One checkpoint: the recipe to reassemble an image from chunks.
struct Manifest {
  std::string snapshot;
  std::uint64_t seq = 0;
  std::uint64_t image_bytes = 0;
  std::uint64_t image_hash = 0;  ///< FNV-1a of the whole image
  std::vector<ManifestEntry> chunks;

  [[nodiscard]] std::vector<std::byte> encode() const;
  /// Throws ImageError on bad magic/version/checksum or inconsistent sizes.
  [[nodiscard]] static Manifest decode(std::span<const std::byte> bytes);
};

struct PutStats {
  std::uint64_t seq = 0;
  bool first_snapshot = false;  ///< no prior manifest existed for this name
  std::size_t chunks_total = 0;
  std::size_t chunks_written = 0;
  std::size_t chunks_deduped = 0;
  std::size_t bytes_total = 0;    ///< logical image size
  std::size_t bytes_written = 0;  ///< chunk bytes actually uploaded
  std::size_t manifests_pruned = 0;
  std::size_t chunks_evicted = 0;
};

struct RestoreStats {
  std::uint64_t seq = 0;
  std::size_t chunks = 0;
  /// Newer manifests passed over because they (or their chunks) failed
  /// integrity checks. > 0 means the store fell back.
  std::size_t manifests_skipped = 0;
};

struct GcStats {
  std::size_t manifests_pruned = 0;
  std::size_t chunks_evicted = 0;
  std::uint64_t bytes_evicted = 0;
};

struct VerifyReport {
  std::size_t manifests_ok = 0;
  std::size_t manifests_corrupt = 0;
  std::size_t chunks_ok = 0;
  std::size_t chunks_corrupt = 0;  ///< content does not match its key
  std::size_t chunks_missing = 0;  ///< referenced but absent
  std::size_t chunks_orphaned = 0;  ///< present but unreferenced (GC-able)

  [[nodiscard]] bool ok() const {
    return manifests_corrupt == 0 && chunks_corrupt == 0 &&
           chunks_missing == 0;
  }
};

struct StoreStats {
  std::size_t snapshots = 0;
  std::size_t manifests = 0;
  std::size_t chunks = 0;
  std::uint64_t stored_chunk_bytes = 0;  ///< bytes on disk for live chunks
  std::uint64_t logical_bytes = 0;       ///< sum of image_bytes over manifests
  std::uint64_t latest_image_bytes = 0;  ///< sum of latest image per snapshot
  EngineStats engine;                    ///< log-structured engine stats

  /// logical bytes the store represents per stored byte (>= 1 once any
  /// two snapshots share content).
  [[nodiscard]] double dedup_ratio() const {
    return stored_chunk_bytes == 0
               ? 1.0
               : static_cast<double>(logical_bytes) /
                     static_cast<double>(stored_chunk_bytes);
  }
};

class CheckpointStore {
 public:
  struct Options {
    ChunkerConfig chunker;
    /// Manifests kept per snapshot name (>= 1). Older ones are pruned and
    /// their now-unreferenced chunks evicted.
    std::uint32_t keep_manifests = 4;
    /// Run retention + chunk GC automatically after every put().
    bool auto_gc = true;
    /// Log-structured engine knobs (extent size, cache, compaction).
    ChunkEngine::Options engine;
  };

  explicit CheckpointStore(std::filesystem::path root, Options opts);
  explicit CheckpointStore(std::filesystem::path root)
      : CheckpointStore(std::move(root), Options{}) {}

  /// Process-wide shared instance per (canonical) root. Concurrent
  /// checkpointers — one per cluster rank — must share an instance so
  /// puts and GC serialize against each other; two instances on one root
  /// could GC a chunk the other just deduplicated against. Options are
  /// taken from the first opener.
  [[nodiscard]] static std::shared_ptr<CheckpointStore> open_shared(
      const std::filesystem::path& root, Options opts);
  [[nodiscard]] static std::shared_ptr<CheckpointStore> open_shared(
      const std::filesystem::path& root) {
    return open_shared(root, Options{});
  }

  /// Store one checkpoint of `snapshot`. Only chunks the store does not
  /// already hold are written; the manifest is written (atomically) last,
  /// so a crash mid-put leaves the previous checkpoint restorable.
  PutStats put(const std::string& snapshot, std::span<const std::byte> image);

  /// Reassemble the newest complete checkpoint of `snapshot`, verifying
  /// every chunk against its content key and the whole image against the
  /// manifest checksum. Falls back to older manifests on any mismatch;
  /// nullopt when no restorable checkpoint exists.
  [[nodiscard]] std::optional<std::vector<std::byte>> restore(
      const std::string& snapshot, RestoreStats* stats = nullptr) const;

  [[nodiscard]] bool has_snapshot(const std::string& snapshot) const;
  /// Newest stored sequence number for `snapshot`; 0 when none exist.
  [[nodiscard]] std::uint64_t latest_seq(const std::string& snapshot) const;
  [[nodiscard]] std::vector<std::string> snapshots() const;
  /// Decodable manifests for `snapshot`, ascending seq (corrupt skipped).
  [[nodiscard]] std::vector<Manifest> manifests(
      const std::string& snapshot) const;

  /// Apply retention and evict unreferenced chunks.
  GcStats collect_garbage();
  /// Integrity-check every manifest and chunk in the store.
  [[nodiscard]] VerifyReport verify() const;
  [[nodiscard]] StoreStats stats() const;

  /// Compact the engine: rewrite dead-heavy extents.
  CompactStats compact(bool force = true);

  [[nodiscard]] const std::filesystem::path& root() const {
    return storage_.root();
  }
  [[nodiscard]] cluster::SharedStorage& storage() { return storage_; }
  [[nodiscard]] ChunkEngine& engine() { return *engine_; }

  static constexpr const char* kManifestDir = "manifests";

  /// Snapshot names are path-safe identifiers: [A-Za-z0-9._-], no '@'.
  static void validate_snapshot_name(const std::string& name);

 private:
  struct ManifestFile {
    std::string name;  ///< storage-relative path
    std::string snapshot;
    std::uint64_t seq = 0;
  };

  [[nodiscard]] std::vector<ManifestFile> list_manifests_locked() const;
  [[nodiscard]] std::vector<ManifestFile> list_manifests_locked(
      const std::string& snapshot) const;
  GcStats collect_garbage_locked();

  Options opts_;
  cluster::SharedStorage storage_;
  std::unique_ptr<ChunkEngine> engine_;
  mutable std::mutex mu_;

  static constexpr const char* kExtentDir = "extents";
};

}  // namespace mojave::ckpt
