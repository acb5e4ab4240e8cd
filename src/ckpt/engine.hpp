// Log-structured chunk store engine.
//
// The flat layout ("one chunk, one file") makes a million checkpoints a
// million files — readdir-scale metadata, one inode + one fsync per tiny
// chunk. This engine replaces it with the WiredTiger/Bitcask shape the
// ROADMAP asks for: chunks are appended as checksummed records to large
// *extent* files (~64 MiB), an in-memory index maps content key →
// (extent, offset), reads go through an LRU block cache, deletions are
// tombstone records, and compaction rewrites the live tail of
// mostly-dead extents into fresh ones.
//
// Record format inside an extent (little-endian, docs/CONTROL_PLANE.md
// sibling of the WAL framing):
//
//   u32 magic 'MJX2' | u8 kind (1 put, 2 tombstone) | u64 seq
//   | u64 key.hi | u64 key.lo | u32 raw_len | u32 stored_len | u8 codec
//   | payload[stored_len] | u64 xxh64(body after magic)
//
// 'MJX1' was the same layout with an FNV-1a trailer; an extent holding
// MJX1 records is logged as an error and ignored whole, instead of being
// read as a torn tail.
//
// `seq` is a global monotonic stamp: rebuilding the index replays records
// in seq order, so a tombstone and a later re-put resolve correctly no
// matter which extent file each landed in.
//
// Appends are buffered: put() and remove() gather their records in
// memory, and flush() hands them to the extent in one write() before its
// fsync, so a checkpoint batch costs one write and one fsync however many
// chunks it adds. Every record stays self-framing, so a torn write still
// leaves a clean prefix of whole records. Anything that reads the extent
// files (read, locate, stats, compact) writes the buffer out first.
//
// Concurrency: every agent process owns its *own* active extent (the file
// name embeds pid + nonce), so writers never contend. A tombstone masks
// every older put of its key in any extent, so a writer must tombstone
// only keys it wrote; CheckpointStore guarantees that by seeding each
// writer's keys differently. Extents are
// append-only and records self-framing, which makes cross-process reads
// safe: a reader that misses in its index rescans grown/new extents from
// its last offset (`refresh`), stopping at any partially-visible tail
// record and retrying later. Payloads are compressed with a
// dependency-free zero-run RLE, or stored raw when that does not shrink
// them — checkpoint images carry large zeroed buffers, which is exactly
// what it folds away.
#pragma once

#include <cstdint>
#include <filesystem>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "ckpt/key.hpp"

namespace mojave::ckpt {

/// Point-in-time engine statistics (`mojc ckpt stats`, bench).
struct EngineStats {
  std::size_t extents = 0;
  std::size_t live_chunks = 0;
  std::uint64_t live_raw_bytes = 0;     ///< uncompressed logical bytes
  std::uint64_t live_stored_bytes = 0;  ///< bytes on disk for live records
  std::uint64_t dead_stored_bytes = 0;  ///< overwritten/tombstoned debris
  std::uint64_t extent_file_bytes = 0;  ///< total size of all extent files
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t compactions = 0;

  /// Fraction of extent bytes that are live (1.0 = no debris).
  [[nodiscard]] double live_ratio() const {
    const std::uint64_t total = live_stored_bytes + dead_stored_bytes;
    return total == 0 ? 1.0
                      : static_cast<double>(live_stored_bytes) /
                            static_cast<double>(total);
  }
  [[nodiscard]] double cache_hit_rate() const {
    const std::uint64_t total = cache_hits + cache_misses;
    return total == 0 ? 0.0
                      : static_cast<double>(cache_hits) /
                            static_cast<double>(total);
  }
};

struct CompactStats {
  std::size_t extents_compacted = 0;
  std::size_t records_rewritten = 0;
  std::uint64_t bytes_reclaimed = 0;
};

class ChunkEngine {
 public:
  struct Options {
    /// Rotate the active extent once it exceeds this many bytes.
    std::uint64_t extent_target_bytes = 64ull << 20;
    /// Block cache budget (raw chunk bytes). 0 disables the cache.
    std::uint64_t cache_bytes = 64ull << 20;
    /// compact() rewrites an extent when its dead fraction exceeds this.
    double compact_min_dead_ratio = 0.5;
    /// Never compact an extent modified more recently than this — it may
    /// be another process's active extent.
    double compact_min_idle_seconds = 2.0;
  };

  ChunkEngine(std::filesystem::path dir, Options opts);
  explicit ChunkEngine(std::filesystem::path dir);
  ~ChunkEngine();

  ChunkEngine(const ChunkEngine&) = delete;
  ChunkEngine& operator=(const ChunkEngine&) = delete;

  /// True if the key is stored live (rescans foreign extents on miss).
  [[nodiscard]] bool exists(const ChunkKey& key);

  /// Append the chunk (no-op if already live).
  void put(const ChunkKey& key, std::span<const std::byte> data);

  /// Checksum-verified read; nullopt on missing or corrupt.
  [[nodiscard]] std::optional<std::vector<std::byte>> read(
      const ChunkKey& key);

  /// Tombstone the key (no-op if absent).
  void remove(const ChunkKey& key);

  /// Every live key with its raw length.
  [[nodiscard]] std::vector<std::pair<ChunkKey, std::uint32_t>> live_chunks();

  /// Write buffered records and fsync the active extent (called before a
  /// manifest is published, so chunks-before-manifest durability survives
  /// the engine).
  void flush();

  /// Write buffered records to the active extent without an fsync (for
  /// tombstones: a lost one only leaves a chunk orphaned).
  void write_out();

  /// Failed extent writes so far. Each one lost every record buffered
  /// since the last write, so a caller that buffered a batch compares
  /// this before and after to learn whether its records survived.
  [[nodiscard]] std::uint64_t lost_writes() {
    std::lock_guard lock(mu_);
    return lost_writes_;
  }

  /// Rewrite live records out of dead-heavy extents and delete the husks.
  /// Without `force`, only this instance's own extents whose dead
  /// fraction reached `compact_min_dead_ratio` (cheap when none has; run
  /// after every put). `force` also takes other writers' idle extents and
  /// any extent with any dead bytes (offline GC and the CLI verb).
  CompactStats compact(bool force = false);

  [[nodiscard]] EngineStats stats();

  /// Where a live chunk's payload bytes sit on disk (diagnostics and the
  /// corruption tests, which flip bytes in place).
  struct Location {
    std::filesystem::path extent;
    std::uint64_t payload_offset = 0;
    std::uint32_t stored_len = 0;
  };
  [[nodiscard]] std::optional<Location> locate(const ChunkKey& key);

  [[nodiscard]] const std::filesystem::path& dir() const { return dir_; }

 private:
  struct KeyHash {
    std::size_t operator()(const std::pair<std::uint64_t, std::uint64_t>& k)
        const noexcept {
      return static_cast<std::size_t>(k.first ^ (k.second * 0x9e3779b97f4a7c15ULL));
    }
  };
  using KeyPair = std::pair<std::uint64_t, std::uint64_t>;

  struct IndexEntry {
    std::uint32_t extent_id = 0;
    std::uint64_t offset = 0;  ///< record start (the magic)
    std::uint32_t raw_len = 0;
    std::uint32_t stored_len = 0;
    std::uint8_t codec = 0;
    std::uint64_t seq = 0;
  };

  struct Extent {
    std::filesystem::path path;
    std::uint64_t scanned = 0;     ///< bytes indexed so far
    std::uint64_t live_stored = 0; ///< payload+header bytes of live records
    std::uint64_t dead_stored = 0;
    bool own = false;              ///< written by this engine instance
  };

  // All private methods require mu_.
  void open_active_locked();
  void rotate_if_needed_locked();
  /// Append one record to pending_ (written out at the next flush, or
  /// once pending_ passes kMaxPendingBytes).
  void append_record_locked(std::uint8_t kind, const ChunkKey& key,
                            std::uint32_t raw_len,
                            std::span<const std::byte> stored,
                            std::uint8_t codec);
  void write_pending_locked();
  /// A write of pending_ failed: close the active extent and rebuild the
  /// index from the extent files.
  void retire_active_locked();
  /// write_pending_locked(), then fsync the active extent if it is dirty.
  void sync_locked();
  void refresh_locked();                    ///< rescan foreign extents
  void scan_extent_locked(std::uint32_t id);
  [[nodiscard]] std::optional<std::vector<std::byte>> read_locked(
      const ChunkKey& key);
  void cache_insert_locked(const KeyPair& key, std::vector<std::byte> data);
  [[nodiscard]] std::optional<std::vector<std::byte>> cache_get_locked(
      const KeyPair& key);
  void cache_erase_locked(const KeyPair& key);
  [[nodiscard]] std::uint64_t record_cost(const IndexEntry& e) const;

  std::filesystem::path dir_;
  Options opts_;

  // Latest tombstone per dead key. Needed so a compaction that deletes
  // the extent holding a tombstone can re-append it when an older put of
  // the same key may still exist in another, not-yet-compacted extent.
  struct TombInfo {
    std::uint64_t seq = 0;
    std::uint32_t extent_id = 0;
  };

  std::mutex mu_;
  std::vector<Extent> extents_;
  std::unordered_map<KeyPair, IndexEntry, KeyHash> index_;
  std::unordered_map<KeyPair, TombInfo, KeyHash> tombs_;
  std::uint64_t next_seq_ = 1;

  int active_fd_ = -1;
  std::uint32_t active_id_ = 0;
  std::uint64_t active_bytes_ = 0;
  std::uint64_t active_nonce_ = 0;
  std::uint32_t active_count_ = 0;  ///< extents created by this instance
  bool dirty_ = false;
  /// Records appended to the active extent but not yet written to it;
  /// active_bytes_ and the index already count them.
  std::vector<std::byte> pending_;
  std::uint64_t lost_writes_ = 0;

  // LRU block cache: list front = most recent; map points into the list.
  struct CacheSlot {
    KeyPair key;
    std::vector<std::byte> data;
  };
  std::list<CacheSlot> cache_lru_;
  std::unordered_map<KeyPair, std::list<CacheSlot>::iterator, KeyHash>
      cache_map_;
  std::uint64_t cache_used_ = 0;
};

/// Zero-run RLE used by the engine's codec 1. Exposed for tests.
[[nodiscard]] std::vector<std::byte> zero_rle_compress(
    std::span<const std::byte> raw);
/// Throws ImageError when the stream is malformed or does not decode to
/// exactly `raw_len` bytes.
[[nodiscard]] std::vector<std::byte> zero_rle_decompress(
    std::span<const std::byte> stored, std::uint32_t raw_len);

}  // namespace mojave::ckpt
