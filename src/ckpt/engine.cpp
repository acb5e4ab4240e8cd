#include "ckpt/engine.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <random>
#include <system_error>

#include "obs/metrics.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"
#include "support/log.hpp"
#include "support/serialize.hpp"

namespace mojave::ckpt {

namespace fs = std::filesystem;

namespace {

constexpr std::uint32_t kExtentMagic = 0x32584a4d;  // 'M' 'J' 'X' '2'
// The FNV-1a-checksummed record format this one replaced. An extent of
// such records is reported and ignored, never read as a torn tail.
constexpr std::uint32_t kExtentMagicV1 = 0x31584a4d;  // 'M' 'J' 'X' '1'
constexpr std::uint8_t kKindPut = 1;
constexpr std::uint8_t kKindTombstone = 2;
constexpr std::uint8_t kCodecRaw = 0;
constexpr std::uint8_t kCodecZeroRle = 1;
// magic(4) + kind(1) + seq(8) + hi(8) + lo(8) + raw_len(4) + stored_len(4)
// + codec(1); the payload follows, then the u64 checksum trailer.
constexpr std::uint64_t kHeaderBytes = 38;
constexpr std::uint64_t kTrailerBytes = 8;
// Buffered records past this size are written out before the next flush,
// bounding the buffer a large batch holds.
constexpr std::size_t kMaxPendingBytes = 4u << 20;

struct EngineMetrics {
  obs::Counter& puts;
  obs::Counter& dedup_hits;
  obs::Counter& tombstones;
  obs::Counter& bytes_written;
  obs::Counter& cache_hits;
  obs::Counter& cache_misses;
  obs::Counter& compactions;
  obs::Counter& read_errors;
  obs::Counter& fsyncs;
  obs::Gauge& extents;
  obs::Gauge& live_chunks;

  static EngineMetrics& get() {
    auto& reg = obs::MetricsRegistry::instance();
    static EngineMetrics m{reg.counter("ckpt.engine.puts"),
                           reg.counter("ckpt.engine.dedup_hits"),
                           reg.counter("ckpt.engine.tombstones"),
                           reg.counter("ckpt.engine.bytes_written"),
                           reg.counter("ckpt.engine.cache_hits"),
                           reg.counter("ckpt.engine.cache_misses"),
                           reg.counter("ckpt.engine.compactions"),
                           reg.counter("ckpt.engine.read_errors"),
                           reg.counter("ckpt.engine.fsyncs"),
                           reg.gauge("ckpt.engine.extents"),
                           reg.gauge("ckpt.engine.live_chunks")};
    return m;
  }
};

[[nodiscard]] std::vector<std::byte> read_file_range(const fs::path& path,
                                                     std::uint64_t off,
                                                     std::uint64_t len) {
  std::vector<std::byte> out(len);
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) throw ImageError("extent open failed: " + path.string());
  std::uint64_t got = 0;
  while (got < len) {
    const ssize_t n =
        ::pread(fd, out.data() + got, len - got,
                static_cast<off_t>(off + got));
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      throw ImageError("extent read failed: " + path.string());
    }
    if (n == 0) break;  // shorter than expected (torn tail)
    got += static_cast<std::uint64_t>(n);
  }
  ::close(fd);
  out.resize(got);
  return out;
}

[[nodiscard]] double seconds_since_mtime(const fs::path& path) {
  std::error_code ec;
  const auto mtime = fs::last_write_time(path, ec);
  if (ec) return 0.0;
  const auto now = fs::file_time_type::clock::now();
  return std::chrono::duration<double>(now - mtime).count();
}

}  // namespace

std::vector<std::byte> zero_rle_compress(std::span<const std::byte> raw) {
  // Token stream: u8 kind (0 zero-run, 1 literal) | u32 len | literal
  // bytes when kind == 1. Zero runs shorter than the 5-byte token cost
  // ride inside the surrounding literal.
  constexpr std::size_t kMinRun = 16;
  Writer w;
  std::size_t i = 0;
  std::size_t lit_start = 0;
  const auto flush_literal = [&](std::size_t end) {
    std::size_t pos = lit_start;
    while (pos < end) {
      const std::size_t n =
          std::min<std::size_t>(end - pos, 0xffffffffu);
      w.u8(1);
      w.u32(static_cast<std::uint32_t>(n));
      w.bytes(raw.subspan(pos, n));
      pos += n;
    }
  };
  while (i < raw.size()) {
    if (raw[i] == std::byte{0}) {
      std::size_t j = i;
      while (j < raw.size() && raw[j] == std::byte{0}) ++j;
      if (j - i >= kMinRun) {
        flush_literal(i);
        std::size_t run = j - i;
        while (run > 0) {
          const std::size_t n = std::min<std::size_t>(run, 0xffffffffu);
          w.u8(0);
          w.u32(static_cast<std::uint32_t>(n));
          run -= n;
        }
        lit_start = j;
      }
      i = j;
    } else {
      ++i;
    }
  }
  flush_literal(raw.size());
  return w.take();
}

std::vector<std::byte> zero_rle_decompress(std::span<const std::byte> stored,
                                           std::uint32_t raw_len) {
  Reader r(stored);
  std::vector<std::byte> out;
  out.reserve(raw_len);
  while (!r.done()) {
    const std::uint8_t kind = r.u8();
    const std::uint32_t n = r.u32();
    if (out.size() + n > raw_len) throw ImageError("rle overrun");
    if (kind == 0) {
      out.resize(out.size() + n, std::byte{0});
    } else if (kind == 1) {
      const auto lit = r.bytes(n);
      out.insert(out.end(), lit.begin(), lit.end());
    } else {
      throw ImageError("rle bad token");
    }
  }
  if (out.size() != raw_len) throw ImageError("rle short decode");
  return out;
}

ChunkEngine::ChunkEngine(std::filesystem::path dir)
    : ChunkEngine(std::move(dir), Options{}) {}

ChunkEngine::ChunkEngine(std::filesystem::path dir, Options opts)
    : dir_(std::move(dir)), opts_(opts) {
  fs::create_directories(dir_);
  std::random_device rd;
  active_nonce_ = (static_cast<std::uint64_t>(::getpid()) << 40) ^
                  (static_cast<std::uint64_t>(rd()) << 8) ^ rd();
  std::lock_guard lock(mu_);
  refresh_locked();
}

ChunkEngine::~ChunkEngine() {
  std::lock_guard lock(mu_);
  if (active_fd_ >= 0) {
    try {
      sync_locked();
    } catch (const ImageError& e) {
      MOJAVE_LOG(kError, "ckpt.engine") << "closing extent: " << e.what();
    }
    ::close(active_fd_);
    active_fd_ = -1;
  }
}

void ChunkEngine::open_active_locked() {
  char name[64];
  std::snprintf(name, sizeof(name), "ext-%d-%016llx-%u.x",
                static_cast<int>(::getpid()),
                static_cast<unsigned long long>(active_nonce_),
                active_count_);
  ++active_count_;
  const fs::path path = dir_ / name;
  const int fd = ::open(path.c_str(),
                        O_CREAT | O_WRONLY | O_APPEND | O_CLOEXEC, 0644);
  if (fd < 0) throw ImageError("extent create failed: " + path.string());
  active_fd_ = fd;
  active_bytes_ = 0;
  active_id_ = static_cast<std::uint32_t>(extents_.size());
  extents_.push_back(Extent{path, 0, 0, 0, /*own=*/true});
}

void ChunkEngine::rotate_if_needed_locked() {
  if (active_fd_ >= 0 && active_bytes_ < opts_.extent_target_bytes) return;
  if (active_fd_ >= 0) {
    sync_locked();
    ::close(active_fd_);
    active_fd_ = -1;
  }
  open_active_locked();
}

void ChunkEngine::append_record_locked(std::uint8_t kind, const ChunkKey& key,
                                       std::uint32_t raw_len,
                                       std::span<const std::byte> stored,
                                       std::uint8_t codec) {
  const std::size_t start = pending_.size();
  Writer w(std::move(pending_));
  w.u32(kExtentMagic);
  w.u8(kind);
  w.u64(next_seq_);
  w.u64(key.hi);
  w.u64(key.lo);
  w.u32(raw_len);
  w.u32(static_cast<std::uint32_t>(stored.size()));
  w.u8(codec);
  w.bytes(stored);
  w.u64(xxh64(w.view().subspan(start + 4)));  // everything after the magic
  pending_ = w.take();
  const std::size_t rec = pending_.size() - start;
  active_bytes_ += rec;
  extents_[active_id_].scanned += rec;
  dirty_ = true;
  EngineMetrics::get().bytes_written.inc(rec);
  if (pending_.size() >= kMaxPendingBytes) write_pending_locked();
}

void ChunkEngine::write_pending_locked() {
  if (pending_.empty()) return;
  // Freed, not kept: an idle engine holds no buffer.
  const std::vector<std::byte> buf = std::move(pending_);
  pending_ = {};
  std::size_t off = 0;
  while (off < buf.size()) {
    const ssize_t n = ::write(active_fd_, buf.data() + off, buf.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      retire_active_locked();
      throw ImageError("extent append failed");
    }
    off += static_cast<std::size_t>(n);
  }
}

void ChunkEngine::retire_active_locked() {
  // The index and the cache name records that never reached the file.
  // Close the extent, so the next append starts a new one, and rebuild
  // both from what the extents hold; a lost tombstone leaves its chunk
  // orphaned, as a crash would.
  ::close(active_fd_);
  active_fd_ = -1;
  dirty_ = false;
  ++lost_writes_;
  index_.clear();
  tombs_.clear();
  cache_lru_.clear();
  cache_map_.clear();
  cache_used_ = 0;
  for (std::uint32_t id = 0; id < extents_.size(); ++id) {
    Extent& e = extents_[id];
    e.scanned = e.live_stored = e.dead_stored = 0;
    if (!e.path.empty()) scan_extent_locked(id);
  }
}

void ChunkEngine::sync_locked() {
  write_pending_locked();
  if (active_fd_ >= 0 && dirty_) {
    ::fsync(active_fd_);
    dirty_ = false;
    EngineMetrics::get().fsyncs.inc();
  }
}

void ChunkEngine::refresh_locked() {
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    if (!entry.is_regular_file()) continue;
    const fs::path& p = entry.path();
    if (p.extension() != ".x") continue;
    const auto known =
        std::find_if(extents_.begin(), extents_.end(),
                     [&](const Extent& e) { return e.path == p; });
    if (known == extents_.end()) {
      extents_.push_back(Extent{p, 0, 0, 0, /*own=*/false});
      scan_extent_locked(static_cast<std::uint32_t>(extents_.size() - 1));
    } else if (!known->own) {
      std::error_code sec;
      const std::uint64_t size = fs::file_size(p, sec);
      if (!sec && size > known->scanned) {
        scan_extent_locked(
            static_cast<std::uint32_t>(known - extents_.begin()));
      }
    }
  }
}

void ChunkEngine::scan_extent_locked(std::uint32_t id) {
  Extent& ext = extents_[id];
  std::error_code ec;
  const std::uint64_t size = fs::file_size(ext.path, ec);
  if (ec || size <= ext.scanned) return;
  const std::vector<std::byte> data =
      read_file_range(ext.path, ext.scanned, size - ext.scanned);
  std::size_t pos = 0;
  while (pos + kHeaderBytes + kTrailerBytes <= data.size()) {
    Reader r{std::span(data).subspan(pos)};
    const std::uint32_t magic = r.u32();
    if (magic == kExtentMagicV1) {
      // An older build's records, not a torn tail: report the file once
      // and skip all of it, so no refresh rescans it.
      MOJAVE_LOG(kError, "ckpt.engine")
          << "ignoring extent " << ext.path.string()
          << ": it holds MJX1 records, a format this build does not read";
      ext.scanned = size;
      return;
    }
    if (magic != kExtentMagic) break;  // torn or foreign bytes: stop here
    const std::uint8_t kind = r.u8();
    const std::uint64_t seq = r.u64();
    const std::uint64_t hi = r.u64();
    const std::uint64_t lo = r.u64();
    const std::uint32_t raw_len = r.u32();
    const std::uint32_t stored_len = r.u32();
    const std::uint8_t codec = r.u8();
    const std::uint64_t rec_len = kHeaderBytes + stored_len + kTrailerBytes;
    if (pos + rec_len > data.size()) break;  // incomplete tail record
    if (kind != kKindPut && kind != kKindTombstone) break;
    const std::uint64_t cost = rec_len;
    const KeyPair key{hi, lo};
    next_seq_ = std::max(next_seq_, seq + 1);
    if (kind == kKindTombstone) {
      ext.dead_stored += cost;
      auto& tomb = tombs_[key];
      if (seq >= tomb.seq) tomb = TombInfo{seq, id};
      const auto it = index_.find(key);
      if (it != index_.end() && it->second.seq < seq) {
        Extent& old = extents_[it->second.extent_id];
        const std::uint64_t old_cost = record_cost(it->second);
        old.live_stored -= std::min(old.live_stored, old_cost);
        old.dead_stored += old_cost;
        index_.erase(it);
        cache_erase_locked(key);
      }
    } else {
      const auto tomb = tombs_.find(key);
      const bool tombed = tomb != tombs_.end() && tomb->second.seq > seq;
      const auto it = index_.find(key);
      if (tombed || (it != index_.end() && it->second.seq >= seq)) {
        ext.dead_stored += cost;
      } else {
        if (it != index_.end()) {
          Extent& old = extents_[it->second.extent_id];
          const std::uint64_t old_cost = record_cost(it->second);
          old.live_stored -= std::min(old.live_stored, old_cost);
          old.dead_stored += old_cost;
        }
        index_[key] = IndexEntry{id, ext.scanned + pos, raw_len,
                                 stored_len, codec, seq};
        ext.live_stored += cost;
        if (!tombed && tomb != tombs_.end()) tombs_.erase(tomb);
      }
    }
    pos += rec_len;
  }
  ext.scanned += pos;
}

std::uint64_t ChunkEngine::record_cost(const IndexEntry& e) const {
  return kHeaderBytes + e.stored_len + kTrailerBytes;
}

bool ChunkEngine::exists(const ChunkKey& key) {
  std::lock_guard lock(mu_);
  const KeyPair k{key.hi, key.lo};
  if (index_.count(k) != 0) return true;
  refresh_locked();
  return index_.count(k) != 0;
}

void ChunkEngine::put(const ChunkKey& key, std::span<const std::byte> data) {
  std::lock_guard lock(mu_);
  auto& m = EngineMetrics::get();
  const KeyPair k{key.hi, key.lo};
  if (index_.count(k) != 0) {
    m.dedup_hits.inc();
    return;
  }
  // Zero-run RLE, or raw when that does not shrink the record.
  std::uint8_t codec = kCodecRaw;
  const std::vector<std::byte> packed = zero_rle_compress(data);
  std::span<const std::byte> stored = data;
  if (packed.size() < data.size()) {
    codec = kCodecZeroRle;
    stored = packed;
  }
  rotate_if_needed_locked();
  const std::uint64_t seq = next_seq_;
  const std::uint64_t offset = active_bytes_;
  append_record_locked(kKindPut, key, static_cast<std::uint32_t>(data.size()),
                       stored, codec);
  ++next_seq_;
  index_[k] = IndexEntry{active_id_, offset, static_cast<std::uint32_t>(data.size()),
                         static_cast<std::uint32_t>(stored.size()), codec, seq};
  extents_[active_id_].live_stored +=
      kHeaderBytes + stored.size() + kTrailerBytes;
  tombs_.erase(k);
  cache_insert_locked(k, std::vector<std::byte>(data.begin(), data.end()));
  m.puts.inc();
}

std::optional<std::vector<std::byte>> ChunkEngine::read(const ChunkKey& key) {
  std::lock_guard lock(mu_);
  write_pending_locked();
  if (index_.count(KeyPair{key.hi, key.lo}) == 0) refresh_locked();
  return read_locked(key);
}

std::optional<std::vector<std::byte>> ChunkEngine::read_locked(
    const ChunkKey& key) {
  auto& m = EngineMetrics::get();
  const KeyPair k{key.hi, key.lo};
  const auto it = index_.find(k);
  if (it == index_.end()) return std::nullopt;
  if (auto cached = cache_get_locked(k)) {
    m.cache_hits.inc();
    return cached;
  }
  m.cache_misses.inc();
  const IndexEntry& e = it->second;
  const Extent& ext = extents_[e.extent_id];
  // Our own active extent may have unsynced bytes; the OS page cache
  // still serves them to pread once they are written out (read() did).
  std::vector<std::byte> rec;
  try {
    rec = read_file_range(ext.path, e.offset, record_cost(e));
  } catch (const ImageError&) {
    m.read_errors.inc();
    return std::nullopt;
  }
  if (rec.size() != record_cost(e)) {
    m.read_errors.inc();
    return std::nullopt;
  }
  const auto body =
      std::span(rec).subspan(4, kHeaderBytes - 4 + e.stored_len);
  Reader tail{std::span(rec).subspan(kHeaderBytes + e.stored_len)};
  if (xxh64(body) != tail.u64()) {
    m.read_errors.inc();
    return std::nullopt;
  }
  const auto payload = std::span(rec).subspan(kHeaderBytes, e.stored_len);
  std::vector<std::byte> raw;
  try {
    raw = e.codec == kCodecZeroRle
              ? zero_rle_decompress(payload, e.raw_len)
              : std::vector<std::byte>(payload.begin(), payload.end());
  } catch (const ImageError&) {
    m.read_errors.inc();
    return std::nullopt;
  }
  cache_insert_locked(k, raw);
  return raw;
}

void ChunkEngine::remove(const ChunkKey& key) {
  std::lock_guard lock(mu_);
  const KeyPair k{key.hi, key.lo};
  auto it = index_.find(k);
  if (it == index_.end()) {
    refresh_locked();
    it = index_.find(k);
    if (it == index_.end()) return;
  }
  rotate_if_needed_locked();
  const std::uint64_t seq = next_seq_;
  append_record_locked(kKindTombstone, key, 0, {}, kCodecRaw);
  ++next_seq_;
  extents_[active_id_].dead_stored += kHeaderBytes + kTrailerBytes;
  Extent& old = extents_[it->second.extent_id];
  const std::uint64_t cost = record_cost(it->second);
  old.live_stored -= std::min(old.live_stored, cost);
  old.dead_stored += cost;
  index_.erase(it);
  tombs_[k] = TombInfo{seq, active_id_};
  cache_erase_locked(k);
  EngineMetrics::get().tombstones.inc();
}

std::vector<std::pair<ChunkKey, std::uint32_t>> ChunkEngine::live_chunks() {
  std::lock_guard lock(mu_);
  refresh_locked();
  std::vector<std::pair<ChunkKey, std::uint32_t>> out;
  out.reserve(index_.size());
  for (const auto& [k, e] : index_) {
    out.emplace_back(ChunkKey{k.first, k.second}, e.raw_len);
  }
  return out;
}

void ChunkEngine::flush() {
  std::lock_guard lock(mu_);
  sync_locked();
}

void ChunkEngine::write_out() {
  std::lock_guard lock(mu_);
  write_pending_locked();
}

CompactStats ChunkEngine::compact(bool force) {
  std::lock_guard lock(mu_);
  write_pending_locked();
  // Only a forced compaction reads other writers' extents: their dead
  // bytes come from their own tombstones, which they compact themselves.
  if (force) refresh_locked();
  CompactStats out;
  std::vector<std::uint32_t> victims;
  for (std::uint32_t id = 0; id < extents_.size(); ++id) {
    const Extent& ext = extents_[id];
    if (id == active_id_ && active_fd_ >= 0) continue;
    if (ext.path.empty()) continue;  // already compacted away
    if (!force && !ext.own) continue;
    const std::uint64_t total = ext.live_stored + ext.dead_stored;
    if (total == 0 || ext.dead_stored == 0) continue;
    const double dead_ratio = static_cast<double>(ext.dead_stored) /
                              static_cast<double>(total);
    if (!force && dead_ratio < opts_.compact_min_dead_ratio) continue;
    if (!ext.own &&
        seconds_since_mtime(ext.path) < opts_.compact_min_idle_seconds) {
      continue;  // possibly another process's active extent
    }
    victims.push_back(id);
  }
  if (victims.empty()) return out;
  // Keys grouped by extent up front: rewriting mutates index_ as it goes.
  std::unordered_map<std::uint32_t, std::vector<KeyPair>> by_extent;
  for (const auto& [k, e] : index_) by_extent[e.extent_id].push_back(k);
  for (const std::uint32_t id : victims) {
    // No reference into extents_ survives the rewrite loop below:
    // rotate_if_needed_locked() can grow the vector and reallocate.
    const fs::path ext_path = extents_[id].path;
    // Move every live record out, then drop the husk. Tombstones that
    // still mask an older put elsewhere are re-appended so a fresh scan
    // cannot resurrect the dead key.
    for (const KeyPair& k : by_extent[id]) {
      const auto it = index_.find(k);
      if (it == index_.end() || it->second.extent_id != id) continue;
      const IndexEntry e = it->second;
      std::vector<std::byte> rec;
      try {
        rec = read_file_range(ext_path, e.offset, record_cost(e));
      } catch (const ImageError&) {
        continue;
      }
      if (rec.size() != record_cost(e)) continue;
      const auto payload = std::span(rec).subspan(kHeaderBytes, e.stored_len);
      rotate_if_needed_locked();
      const std::uint64_t seq = next_seq_;
      const std::uint64_t offset = active_bytes_;
      append_record_locked(kKindPut, ChunkKey{k.first, k.second}, e.raw_len,
                           payload, e.codec);
      ++next_seq_;
      index_[k] = IndexEntry{active_id_, offset, e.raw_len, e.stored_len,
                             e.codec, seq};
      extents_[active_id_].live_stored += record_cost(e);
      ++out.records_rewritten;
    }
    for (auto it = tombs_.begin(); it != tombs_.end();) {
      if (it->second.extent_id != id) {
        ++it;
        continue;
      }
      rotate_if_needed_locked();
      const std::uint64_t seq = next_seq_;
      append_record_locked(kKindTombstone,
                           ChunkKey{it->first.first, it->first.second}, 0, {},
                           kCodecRaw);
      ++next_seq_;
      extents_[active_id_].dead_stored += kHeaderBytes + kTrailerBytes;
      it->second = TombInfo{seq, active_id_};
      ++it;
    }
    sync_locked();
    std::error_code ec;
    const std::uint64_t file_bytes = fs::file_size(ext_path, ec);
    fs::remove(ext_path, ec);
    out.bytes_reclaimed += ec ? 0 : file_bytes;
    ++out.extents_compacted;
    Extent& husk = extents_[id];
    husk.path.clear();
    husk.live_stored = 0;
    husk.dead_stored = 0;
    husk.scanned = 0;
    EngineMetrics::get().compactions.inc();
  }
  if (out.extents_compacted > 0) {
    MOJAVE_LOG(kInfo, "ckpt.engine")
        << "compacted " << out.extents_compacted << " extent(s), rewrote "
        << out.records_rewritten << " record(s), reclaimed "
        << out.bytes_reclaimed << " bytes";
  }
  return out;
}

EngineStats ChunkEngine::stats() {
  std::lock_guard lock(mu_);
  write_pending_locked();
  EngineStats s;
  for (const Extent& e : extents_) {
    if (e.path.empty()) continue;
    ++s.extents;
    s.live_stored_bytes += e.live_stored;
    s.dead_stored_bytes += e.dead_stored;
    std::error_code ec;
    const std::uint64_t size = fs::file_size(e.path, ec);
    s.extent_file_bytes += ec ? e.scanned : size;
  }
  s.live_chunks = index_.size();
  for (const auto& [k, e] : index_) s.live_raw_bytes += e.raw_len;
  auto& m = EngineMetrics::get();
  s.cache_hits = m.cache_hits.value();
  s.cache_misses = m.cache_misses.value();
  s.compactions = m.compactions.value();
  m.extents.set(static_cast<std::int64_t>(s.extents));
  m.live_chunks.set(static_cast<std::int64_t>(s.live_chunks));
  return s;
}

std::optional<ChunkEngine::Location> ChunkEngine::locate(const ChunkKey& key) {
  std::lock_guard lock(mu_);
  write_pending_locked();
  const KeyPair k{key.hi, key.lo};
  auto it = index_.find(k);
  if (it == index_.end()) {
    refresh_locked();
    it = index_.find(k);
    if (it == index_.end()) return std::nullopt;
  }
  const IndexEntry& e = it->second;
  return Location{extents_[e.extent_id].path, e.offset + kHeaderBytes,
                  e.stored_len};
}

void ChunkEngine::cache_insert_locked(const KeyPair& key,
                                      std::vector<std::byte> data) {
  if (opts_.cache_bytes == 0 || data.size() > opts_.cache_bytes) return;
  cache_erase_locked(key);
  cache_used_ += data.size();
  cache_lru_.push_front(CacheSlot{key, std::move(data)});
  cache_map_[key] = cache_lru_.begin();
  while (cache_used_ > opts_.cache_bytes && !cache_lru_.empty()) {
    const CacheSlot& victim = cache_lru_.back();
    cache_used_ -= victim.data.size();
    cache_map_.erase(victim.key);
    cache_lru_.pop_back();
  }
}

std::optional<std::vector<std::byte>> ChunkEngine::cache_get_locked(
    const KeyPair& key) {
  const auto it = cache_map_.find(key);
  if (it == cache_map_.end()) return std::nullopt;
  cache_lru_.splice(cache_lru_.begin(), cache_lru_, it->second);
  return it->second->data;
}

void ChunkEngine::cache_erase_locked(const KeyPair& key) {
  const auto it = cache_map_.find(key);
  if (it == cache_map_.end()) return;
  cache_used_ -= it->second->data.size();
  cache_lru_.erase(it->second);
  cache_map_.erase(it);
}

}  // namespace mojave::ckpt
