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
// differ; everything else dedupes against what this store instance
// already wrote, across snapshots and across the ranks that share it.
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
// Several writers, one root. Every agent process opens its own instance
// on the shared root, so writers must never evict what another live
// writer references or is about to reference. Each instance therefore
// draws a random *key seed* and keys its chunks with it (ckpt/key.hpp):
// a writer dedups only against chunks it wrote, and online GC evicts
// only those. Each instance refcounts, in memory, the chunks its own
// manifests reference: a put adds references; pruning one of its
// manifests (by its own retention, or by another writer, which shows up
// as a manifest missing from the listing a put makes anyway) drops them;
// a chunk is evicted when its count reaches zero. A put therefore costs
// what it adds, never a scan of the store. Chunks of a writer that died
// stay until the offline full sweep (`collect_garbage`, `mojc ckpt gc`).
//
// One write path. Every put goes through the instance's checkpoint writer
// thread (ckpt/writer.hpp), started by the first put: submit() queues a
// checkpoint and returns at once, put() submits and waits. The writer
// drains its queue as a batch: each checkpoint's chunks are appended, the
// engine is fsynced once for the whole batch (group commit), and only then
// are the manifests published, in submit order, and retention run.
#pragma once

#include <cstdint>
#include <exception>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_set>
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
  /// Seed of the writer's chunk keys: restore and verify recompute each
  /// chunk's key with it.
  std::uint64_t key_seed = 0;
  std::uint64_t image_bytes = 0;
  std::uint64_t image_hash = 0;  ///< xxh64 of the whole image
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

/// What became of one submitted checkpoint.
struct CheckpointResult {
  /// Why the checkpoint was not published (put() rethrows it); null when
  /// it was.
  std::exception_ptr error;
  PutStats image;

  [[nodiscard]] bool ok() const { return error == nullptr; }
};

/// One checkpoint handed to a store's writer (CheckpointStore::submit).
struct CheckpointJob {
  /// Whose checkpoint it is: CheckpointWriter::cancel/drain act on one
  /// owner's jobs. Null for put()'s own jobs.
  const void* owner = nullptr;
  std::string snapshot;
  std::vector<std::byte> image;
  /// Runs on the writer thread once the image manifest is published, or
  /// the checkpoint failed. Must not wait on this store's writer.
  std::function<void(const CheckpointResult&)> done;
};

class CheckpointWriter;

class CheckpointStore {
 public:
  struct Options {
    ChunkerConfig chunker;
    /// Manifests kept per snapshot name (>= 1). Older ones are pruned and
    /// their now-unreferenced chunks evicted.
    std::uint32_t keep_manifests = 4;
    /// Log-structured engine knobs (extent size, cache, compaction).
    ChunkEngine::Options engine;
  };

  explicit CheckpointStore(std::filesystem::path root, Options opts);
  explicit CheckpointStore(std::filesystem::path root)
      : CheckpointStore(std::move(root), Options{}) {}
  /// Writes what the writer still holds queued, then stops it.
  ~CheckpointStore();

  CheckpointStore(const CheckpointStore&) = delete;
  CheckpointStore& operator=(const CheckpointStore&) = delete;

  /// Process-wide shared instance per (canonical) root, so every rank
  /// checkpointing from one process dedups against the others. Separate
  /// instances (in this process or another) are safe on one root, but
  /// never share chunks. Options are taken from the first opener.
  [[nodiscard]] static std::shared_ptr<CheckpointStore> open_shared(
      const std::filesystem::path& root, Options opts);
  [[nodiscard]] static std::shared_ptr<CheckpointStore> open_shared(
      const std::filesystem::path& root) {
    return open_shared(root, Options{});
  }

  /// Store one checkpoint of `snapshot` and wait until it is published:
  /// submit() and a wait. Only chunks this instance does not already hold
  /// are written; the manifest is written (atomically) last, so a crash
  /// mid-put leaves the previous checkpoint restorable. The put then
  /// prunes `snapshot` to `keep_manifests` and evicts the chunks of this
  /// instance that no manifest of it references any more. Throws what
  /// failed the put.
  PutStats put(const std::string& snapshot, std::span<const std::byte> image);

  /// Queue one checkpoint for the writer thread and return at once; its
  /// `done` reports the outcome. Throws Error on a bad snapshot name.
  void submit(CheckpointJob job);

  /// The store's writer. Its thread starts with the first submit, so a
  /// store that is never written to never runs one.
  [[nodiscard]] CheckpointWriter& writer() { return *writer_; }

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

  /// Full sweep: apply retention to every snapshot, drop undecodable
  /// manifests and evict every chunk no surviving manifest references —
  /// including chunks another writer appended for a manifest it has not
  /// published yet. Only safe while no other process writes the root.
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

  friend class CheckpointWriter;

  /// Write one batch of checkpoints (writer thread only): append every
  /// chunk record, flush the engine once, publish the manifests in order
  /// and run retention. One result per job.
  std::vector<CheckpointResult> put_batch(std::vector<CheckpointJob>& jobs);

  /// A put whose chunks are appended but whose manifest is not published.
  struct Staged {
    std::size_t job = 0;
    std::string name;  ///< the manifest's storage-relative path
    Manifest man;
    PutStats stats;
    double seconds = 0;  ///< time spent chunking and appending
  };
  /// Chunk `bytes` and append the chunks this instance lacks, taking a
  /// reference per entry. On a throw it has released them again.
  Staged stage_locked(const std::string& snapshot, std::uint64_t seq,
                      std::span<const std::byte> bytes);

  /// Manifest files by (snapshot, seq). Reads only the filesystem, so
  /// callers need not hold mu_.
  [[nodiscard]] std::vector<ManifestFile> list_manifests() const;
  [[nodiscard]] std::vector<ManifestFile> list_manifests(
      const std::string& snapshot) const;
  /// Drop one reference per entry; evict the chunks that reach zero.
  void release_locked(const std::vector<ManifestEntry>& entries,
                      GcStats& gc);
  /// Release and forget every own manifest whose name is not `present`.
  void release_own_except_locked(
      const std::unordered_set<std::string_view>& present, GcStats& gc);

  Options opts_;
  cluster::SharedStorage storage_;
  std::unique_ptr<ChunkEngine> engine_;
  mutable std::mutex mu_;
  std::uint64_t key_seed_ = 0;
  /// Manifests this instance wrote and has not seen pruned, by
  /// storage-relative name.
  std::map<std::string, std::vector<ManifestEntry>> own_manifests_;
  /// Entries in own_manifests_ per chunk key; a key is live in the
  /// engine exactly while it is present here.
  std::map<ChunkKey, std::uint32_t> own_refs_;

  /// Declared last: destroyed (and its thread joined) first.
  std::unique_ptr<CheckpointWriter> writer_;

  static constexpr const char* kExtentDir = "extents";
};

}  // namespace mojave::ckpt
