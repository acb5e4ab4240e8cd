#include "ckpt/store.hpp"

#include <algorithm>
#include <deque>
#include <future>
#include <map>
#include <random>
#include <set>
#include <utility>

#include "ckpt/writer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"
#include "support/log.hpp"
#include "support/serialize.hpp"
#include "support/stopwatch.hpp"

namespace mojave::ckpt {

namespace fs = std::filesystem;

namespace {

constexpr std::uint32_t kManifestMagic = 0x74666b6d;  // "mkft"
// 2: xxh64 chunk keys and trailer, plus the writer's key seed.
// 1: FNV-1a, no key seed.
constexpr std::uint32_t kManifestVersion = 2;

struct CkptMetrics {
  obs::Counter& chunks_written;
  obs::Counter& chunks_deduped;
  obs::Counter& chunks_evicted;
  obs::Counter& bytes_logical;
  obs::Counter& bytes_written;
  obs::Counter& bytes_logical_incremental;
  obs::Counter& bytes_written_incremental;
  obs::Counter& manifests_written;
  obs::Counter& manifests_pruned;
  obs::Counter& restores;
  obs::Counter& restore_fallbacks;
  obs::Counter& restore_failures;
  obs::Counter& batches;
  obs::Histogram& put_us;
  obs::Histogram& restore_us;
  obs::Histogram& image_bytes;
  obs::Histogram& written_bytes;

  static CkptMetrics& get() {
    auto& r = obs::MetricsRegistry::instance();
    static CkptMetrics m{
        r.counter("ckpt.chunks_written"),
        r.counter("ckpt.chunks_deduped"),
        r.counter("ckpt.chunks_evicted"),
        r.counter("ckpt.bytes_logical"),
        r.counter("ckpt.bytes_written"),
        r.counter("ckpt.bytes_logical_incremental"),
        r.counter("ckpt.bytes_written_incremental"),
        r.counter("ckpt.manifests_written"),
        r.counter("ckpt.manifests_pruned"),
        r.counter("ckpt.restores"),
        r.counter("ckpt.restore_fallbacks"),
        r.counter("ckpt.restore_failures"),
        r.counter("ckpt.batches"),
        r.histogram("ckpt.put_us"),
        r.histogram("ckpt.restore_us"),
        r.histogram("ckpt.image_bytes"),
        r.histogram("ckpt.written_bytes"),
    };
    return m;
  }
};

std::string hex16(std::uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string s(16, '0');
  for (int i = 15; i >= 0; --i) {
    s[static_cast<std::size_t>(i)] = digits[v & 0xf];
    v >>= 4;
  }
  return s;
}

std::string seq_str(std::uint64_t seq) {
  std::string s = std::to_string(seq);
  return std::string(s.size() >= 12 ? 0 : 12 - s.size(), '0') + s;
}

std::string manifest_name(const std::string& snapshot, std::uint64_t seq) {
  return std::string(CheckpointStore::kManifestDir) + "/" + snapshot + "@" +
         seq_str(seq) + ".mft";
}

}  // namespace

std::string ChunkKey::hex() const { return hex16(hi) + hex16(lo); }

std::vector<std::byte> Manifest::encode() const {
  Writer w;
  w.u32(kManifestMagic);
  w.u32(kManifestVersion);
  w.str(snapshot);
  w.u64(seq);
  w.u64(key_seed);
  w.u64(image_bytes);
  w.u64(image_hash);
  w.u32(static_cast<std::uint32_t>(chunks.size()));
  for (const ManifestEntry& e : chunks) {
    w.u64(e.key.hi);
    w.u64(e.key.lo);
    w.u32(e.length);
  }
  w.u64(xxh64(w.view()));
  return w.take();
}

Manifest Manifest::decode(std::span<const std::byte> bytes) {
  if (bytes.size() < 8) throw ImageError("manifest truncated");
  Reader r(bytes);
  if (r.u32() != kManifestMagic) throw ImageError("manifest bad magic");
  if (const std::uint32_t version = r.u32(); version != kManifestVersion) {
    throw ImageError("manifest format version " + std::to_string(version) +
                     " is not readable by this build (it reads version " +
                     std::to_string(kManifestVersion) + ")");
  }
  const std::uint64_t want = xxh64(bytes.subspan(0, bytes.size() - 8));
  Manifest m;
  m.snapshot = r.str();
  m.seq = r.u64();
  m.key_seed = r.u64();
  m.image_bytes = r.u64();
  m.image_hash = r.u64();
  const std::uint32_t n = r.u32();
  m.chunks.reserve(n);
  std::uint64_t total = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    ManifestEntry e;
    e.key.hi = r.u64();
    e.key.lo = r.u64();
    e.length = r.u32();
    total += e.length;
    m.chunks.push_back(e);
  }
  const std::uint64_t got = r.u64();
  if (!r.done()) throw ImageError("manifest trailing bytes");
  if (got != want) throw ImageError("manifest checksum mismatch");
  if (total != m.image_bytes) throw ImageError("manifest length mismatch");
  return m;
}

void CheckpointStore::validate_snapshot_name(const std::string& name) {
  if (name.empty()) throw Error("ckpt: empty snapshot name");
  if (name == "." || name == "..") {
    throw Error("ckpt: snapshot name cannot be a dot path: " + name);
  }
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) {
      throw Error("ckpt: snapshot name must match [A-Za-z0-9._-]: " + name);
    }
  }
}

CheckpointStore::CheckpointStore(fs::path root, Options opts)
    : opts_(opts), storage_(std::move(root)) {
  opts_.chunker.validate();
  if (opts_.keep_manifests == 0) {
    throw Error("ckpt: keep_manifests must be >= 1");
  }
  engine_ = std::make_unique<ChunkEngine>(storage_.root() / kExtentDir,
                                          opts_.engine);
  std::random_device rd;
  key_seed_ = (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
  writer_ = std::make_unique<CheckpointWriter>(*this);
}

std::shared_ptr<CheckpointStore> CheckpointStore::open_shared(
    const fs::path& root, Options opts) {
  static std::mutex mu;
  static std::map<std::string, std::weak_ptr<CheckpointStore>> open;
  std::error_code ec;
  fs::path canon = fs::weakly_canonical(root, ec);
  if (ec) canon = fs::absolute(root).lexically_normal();
  const std::string key = canon.string();
  std::lock_guard<std::mutex> lock(mu);
  if (auto existing = open[key].lock()) return existing;
  auto store = std::make_shared<CheckpointStore>(canon, opts);
  open[key] = store;
  return store;
}

std::vector<CheckpointStore::ManifestFile>
CheckpointStore::list_manifests() const {
  std::vector<ManifestFile> files;
  const std::string prefix = std::string(kManifestDir) + "/";
  for (const std::string& name : storage_.list(kManifestDir)) {
    if (name.size() <= prefix.size() || name.rfind(prefix, 0) != 0) continue;
    const std::string base = name.substr(prefix.size());
    const auto at = base.rfind('@');
    if (at == std::string::npos || base.size() < at + 1 + 4) continue;
    if (base.substr(base.size() - 4) != ".mft") continue;
    const std::string seq_part = base.substr(at + 1, base.size() - at - 5);
    if (seq_part.empty() ||
        seq_part.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    ManifestFile mf;
    mf.name = name;
    mf.snapshot = base.substr(0, at);
    mf.seq = std::stoull(seq_part);
    files.push_back(std::move(mf));
  }
  std::sort(files.begin(), files.end(),
            [](const ManifestFile& a, const ManifestFile& b) {
              return a.snapshot != b.snapshot ? a.snapshot < b.snapshot
                                              : a.seq < b.seq;
            });
  return files;
}

std::vector<CheckpointStore::ManifestFile>
CheckpointStore::list_manifests(const std::string& snapshot) const {
  auto files = list_manifests();
  std::erase_if(files, [&](const ManifestFile& mf) {
    return mf.snapshot != snapshot;
  });
  return files;
}

// Out of line: CheckpointWriter is complete here. writer_ goes first.
CheckpointStore::~CheckpointStore() = default;

void CheckpointStore::submit(CheckpointJob job) {
  validate_snapshot_name(job.snapshot);
  writer().submit(std::move(job));
}

PutStats CheckpointStore::put(const std::string& snapshot,
                              std::span<const std::byte> image) {
  std::promise<CheckpointResult> landed;
  std::future<CheckpointResult> result = landed.get_future();
  CheckpointJob job;
  job.snapshot = snapshot;
  job.image.assign(image.begin(), image.end());
  job.done = [&landed](const CheckpointResult& r) { landed.set_value(r); };
  submit(std::move(job));
  const CheckpointResult r = result.get();
  if (!r.ok()) std::rethrow_exception(r.error);
  return r.image;
}

CheckpointStore::Staged CheckpointStore::stage_locked(
    const std::string& snapshot, std::uint64_t seq,
    std::span<const std::byte> bytes) {
  Stopwatch sw;
  obs::ScopedSpan span("ckpt", "put");
  span.set_arg("bytes", bytes.size());
  Staged st;
  st.name = manifest_name(snapshot, seq);
  st.stats.seq = seq;
  st.stats.first_snapshot = seq == 1;
  Manifest& man = st.man;
  man.snapshot = snapshot;
  man.seq = seq;
  man.key_seed = key_seed_;
  man.image_bytes = bytes.size();
  man.image_hash = xxh64(bytes);

  // Each entry takes its reference as it is listed, so a repeat within
  // this image (or an earlier one of the batch) dedups too; a failure
  // gives them back, evicting what was appended.
  try {
    for (std::span<const std::byte> chunk : split_chunks(bytes, opts_.chunker)) {
      const ChunkKey key = ChunkKey::of(chunk, key_seed_);
      man.chunks.push_back({key, static_cast<std::uint32_t>(chunk.size())});
      ++st.stats.chunks_total;
      st.stats.bytes_total += chunk.size();
      if (own_refs_[key]++ > 0) {
        ++st.stats.chunks_deduped;
      } else {
        engine_->put(key, chunk);
        ++st.stats.chunks_written;
        st.stats.bytes_written += chunk.size();
      }
    }
  } catch (...) {
    GcStats undo;
    release_locked(man.chunks, undo);
    throw;
  }
  st.seconds = sw.seconds();
  return st;
}

std::vector<CheckpointResult> CheckpointStore::put_batch(
    std::vector<CheckpointJob>& jobs) {
  obs::ScopedSpan span("ckpt", "batch");
  span.set_arg("jobs", jobs.size());
  std::lock_guard<std::mutex> lock(mu_);
  Stopwatch shared_sw;  // time no single put owns: listing, flush, publish
  double staging_seconds = 0;
  CkptMetrics& m = CkptMetrics::get();
  m.batches.inc();
  std::vector<CheckpointResult> results(jobs.size());

  GcStats gc;
  const std::vector<ManifestFile> listing = list_manifests();
  if (!own_manifests_.empty()) {
    // Own manifests another writer's retention pruned: their references
    // go now (the listing is the only place that pruning shows up).
    std::unordered_set<std::string_view> listed;
    for (const ManifestFile& mf : listing) listed.insert(mf.name);
    release_own_except_locked(listed, gc);
  }
  // Charged to the batch's first published put, as a lone put's stats
  // would show it.
  std::size_t released_by_listing = gc.chunks_evicted;
  // Published manifests per snapshot, oldest first; a put numbers itself
  // after the newest, here at write time.
  std::map<std::string, std::deque<std::string>, std::less<>> published;
  std::map<std::string, std::uint64_t, std::less<>> newest;
  for (const ManifestFile& mf : listing) {
    published[mf.snapshot].push_back(mf.name);
    newest[mf.snapshot] = mf.seq;
  }

  // 1. Chunks, in submit order.
  const std::uint64_t lost_writes = engine_->lost_writes();
  std::vector<Staged> staged;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    try {
      staged.push_back(
          stage_locked(jobs[j].snapshot, ++newest[jobs[j].snapshot],
                       jobs[j].image));
      staged.back().job = j;
      staging_seconds += staged.back().seconds;
    } catch (...) {
      results[j].error = std::current_exception();
    }
  }

  // 2. One fsync for the whole batch: every chunk a manifest below
  // references is durable before the first rename makes it reachable. A
  // write that failed while staging lost the records buffered before it,
  // also those of jobs staged earlier: none of the batch publishes.
  try {
    obs::ScopedSpan flush_span("ckpt", "flush");
    engine_->flush();
    if (engine_->lost_writes() != lost_writes) {
      throw ImageError("extent append failed: the batch's chunks were lost");
    }
  } catch (...) {
    GcStats undo;
    for (Staged& st : staged) {
      results[st.job].error = std::current_exception();
      release_locked(st.man.chunks, undo);
    }
    staged.clear();
  }

  // 3. Manifests in order, each followed by its snapshot's retention.
  for (Staged& st : staged) {
    CheckpointResult& res = results[st.job];
    try {
      storage_.write(st.name, st.man.encode());
    } catch (...) {
      res.error = std::current_exception();
      GcStats undo;
      release_locked(st.man.chunks, undo);
      continue;
    }
    const std::size_t image_bytes = st.man.image_bytes;
    own_manifests_.emplace(st.name, std::move(st.man.chunks));
    PutStats& stats = st.stats;
    m.chunks_written.inc(stats.chunks_written);
    m.chunks_deduped.inc(stats.chunks_deduped);
    m.bytes_logical.inc(stats.bytes_total);
    m.bytes_written.inc(stats.bytes_written);
    if (!stats.first_snapshot) {
      m.bytes_logical_incremental.inc(stats.bytes_total);
      m.bytes_written_incremental.inc(stats.bytes_written);
    }
    m.manifests_written.inc();
    m.image_bytes.record_us(static_cast<double>(image_bytes));
    m.written_bytes.record_us(static_cast<double>(stats.bytes_written));

    std::deque<std::string>& names = published[st.man.snapshot];
    names.push_back(st.name);
    // Retention for this snapshot only: it is the one this put grew.
    // Pruning another writer's manifest drops no reference here; that
    // writer notices at its next put.
    GcStats pruned;
    const std::size_t from_listing = std::exchange(released_by_listing, 0);
    while (names.size() > opts_.keep_manifests) {
      storage_.remove(names.front());
      ++pruned.manifests_pruned;
      const auto own = own_manifests_.find(names.front());
      if (own != own_manifests_.end()) {
        release_locked(own->second, pruned);
        own_manifests_.erase(own);
      }
      names.pop_front();
    }
    stats.manifests_pruned = pruned.manifests_pruned;
    stats.chunks_evicted = from_listing + pruned.chunks_evicted;
    gc.manifests_pruned += pruned.manifests_pruned;
    gc.chunks_evicted += pruned.chunks_evicted;
    res.image = stats;
  }

  // The manifests are out: what fails from here leaves them published,
  // and their jobs ok.
  try {
    // Rewrites own extents whose dead fraction crossed the threshold; a
    // check of per-extent counters when none has.
    engine_->compact(/*force=*/false);
    m.chunks_evicted.inc(gc.chunks_evicted);
    m.manifests_pruned.inc(gc.manifests_pruned);
    engine_->write_out();  // tombstones: no fsync needed
  } catch (const std::exception& e) {
    MOJAVE_LOG(kWarn, "ckpt") << "after publishing a batch: " << e.what();
  }

  // Each put is charged its own chunking plus an equal share of the
  // batch's common work, so ckpt.put_us sums to the writer's busy time.
  if (!staged.empty()) {
    const double shared = std::max(0.0, shared_sw.seconds() - staging_seconds) /
                          static_cast<double>(staged.size());
    for (const Staged& st : staged) {
      m.put_us.record_seconds(st.seconds + shared);
    }
  }
  return results;
}

void CheckpointStore::release_locked(const std::vector<ManifestEntry>& entries,
                                     GcStats& gc) {
  for (const ManifestEntry& e : entries) {
    const auto it = own_refs_.find(e.key);
    if (it == own_refs_.end() || --it->second > 0) continue;
    own_refs_.erase(it);
    engine_->remove(e.key);
    gc.bytes_evicted += e.length;
    ++gc.chunks_evicted;
  }
}

void CheckpointStore::release_own_except_locked(
    const std::unordered_set<std::string_view>& present, GcStats& gc) {
  for (auto it = own_manifests_.begin(); it != own_manifests_.end();) {
    if (present.contains(it->first)) {
      ++it;
      continue;
    }
    release_locked(it->second, gc);
    it = own_manifests_.erase(it);
  }
}

std::optional<std::vector<std::byte>> CheckpointStore::restore(
    const std::string& snapshot, RestoreStats* out) const {
  Stopwatch sw;
  obs::ScopedSpan span("ckpt", "restore");
  std::lock_guard<std::mutex> lock(mu_);
  CkptMetrics& m = CkptMetrics::get();
  m.restores.inc();

  const auto files = list_manifests(snapshot);
  std::size_t skipped = 0;
  for (auto it = files.rbegin(); it != files.rend(); ++it) {
    const auto raw = storage_.read(it->name);
    if (!raw.has_value()) {
      ++skipped;
      continue;
    }
    Manifest man;
    try {
      man = Manifest::decode(*raw);
    } catch (const Error&) {
      ++skipped;
      continue;
    }
    std::vector<std::byte> image;
    image.reserve(man.image_bytes);
    bool ok = true;
    for (const ManifestEntry& e : man.chunks) {
      const auto chunk = engine_->read(e.key);
      if (!chunk.has_value() || chunk->size() != e.length ||
          ChunkKey::of(*chunk, man.key_seed) != e.key) {
        ok = false;
        break;
      }
      image.insert(image.end(), chunk->begin(), chunk->end());
    }
    if (!ok || image.size() != man.image_bytes ||
        xxh64(image) != man.image_hash) {
      ++skipped;
      continue;
    }
    if (skipped > 0) m.restore_fallbacks.inc();
    m.restore_us.record_seconds(sw.seconds());
    if (out != nullptr) {
      out->seq = man.seq;
      out->chunks = man.chunks.size();
      out->manifests_skipped = skipped;
    }
    return image;
  }
  m.restore_failures.inc();
  if (out != nullptr) {
    *out = RestoreStats{};
    out->manifests_skipped = skipped;
  }
  return std::nullopt;
}

// The readers below list without mu_: a listing touches only the
// filesystem, and a reader polling under the put lock would starve the
// writers.
bool CheckpointStore::has_snapshot(const std::string& snapshot) const {
  return !list_manifests(snapshot).empty();
}

std::uint64_t CheckpointStore::latest_seq(const std::string& snapshot) const {
  const auto files = list_manifests(snapshot);
  return files.empty() ? 0 : files.back().seq;
}

std::vector<std::string> CheckpointStore::snapshots() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  for (const ManifestFile& mf : list_manifests()) {
    if (names.empty() || names.back() != mf.snapshot) {
      names.push_back(mf.snapshot);
    }
  }
  return names;
}

std::vector<Manifest> CheckpointStore::manifests(
    const std::string& snapshot) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Manifest> out;
  for (const ManifestFile& mf : list_manifests(snapshot)) {
    const auto raw = storage_.read(mf.name);
    if (!raw.has_value()) continue;
    try {
      out.push_back(Manifest::decode(*raw));
    } catch (const Error&) {
      // Corrupt manifests are invisible here; restore skips them too.
    }
  }
  return out;
}

GcStats CheckpointStore::collect_garbage() {
  std::lock_guard<std::mutex> lock(mu_);
  GcStats gc;
  CkptMetrics& m = CkptMetrics::get();

  // Retention: keep the newest keep_manifests manifests per snapshot.
  std::map<std::string, std::vector<ManifestFile>> by_snapshot;
  for (ManifestFile& mf : list_manifests()) {
    by_snapshot[mf.snapshot].push_back(std::move(mf));
  }
  std::vector<ManifestFile> survivors;
  for (auto& [snapshot, files] : by_snapshot) {
    while (files.size() > opts_.keep_manifests) {
      storage_.remove(files.front().name);
      files.erase(files.begin());
      ++gc.manifests_pruned;
    }
    for (ManifestFile& mf : files) survivors.push_back(std::move(mf));
  }

  // Reference-count chunks across every surviving manifest (all
  // snapshots): a chunk shared between ranks lives as long as any of
  // them references it. An undecodable manifest can never be restored,
  // so it is dropped rather than pinning garbage forever.
  std::set<ChunkKey> referenced;
  std::unordered_set<std::string_view> kept;
  for (const ManifestFile& mf : survivors) {
    const auto raw = storage_.read(mf.name);
    bool good = false;
    if (raw.has_value()) {
      try {
        const Manifest man = Manifest::decode(*raw);
        for (const ManifestEntry& e : man.chunks) referenced.insert(e.key);
        good = true;
      } catch (const Error&) {
      }
    }
    if (good) {
      kept.insert(mf.name);
    } else {
      storage_.remove(mf.name);
      ++gc.manifests_pruned;
    }
  }
  // This instance's own manifests that did not survive give their
  // references back first, so its refcounts stay exact for later puts.
  release_own_except_locked(kept, gc);
  for (const auto& [key, raw_len] : engine_->live_chunks()) {
    if (referenced.contains(key)) continue;
    engine_->remove(key);
    gc.bytes_evicted += raw_len;
    ++gc.chunks_evicted;
  }
  // Eviction tombstoned records in every writer's extents: rewrite each
  // idle extent that holds dead bytes.
  engine_->compact(/*force=*/true);
  m.chunks_evicted.inc(gc.chunks_evicted);
  m.manifests_pruned.inc(gc.manifests_pruned);
  return gc;
}

VerifyReport CheckpointStore::verify() const {
  std::lock_guard<std::mutex> lock(mu_);
  VerifyReport report;
  std::set<ChunkKey> referenced;
  for (const ManifestFile& mf : list_manifests()) {
    const auto raw = storage_.read(mf.name);
    Manifest man;
    try {
      if (!raw.has_value()) throw ImageError("unreadable");
      man = Manifest::decode(*raw);
    } catch (const Error&) {
      ++report.manifests_corrupt;
      continue;
    }
    ++report.manifests_ok;
    for (const ManifestEntry& e : man.chunks) {
      if (!referenced.insert(e.key).second) continue;  // verified already
      // Present-but-unreadable in the engine is corruption (the record
      // is indexed; its payload fails the checksum), not absence.
      const bool in_engine = engine_->exists(e.key);
      const auto chunk = engine_->read(e.key);
      if (!chunk.has_value()) {
        if (in_engine) {
          ++report.chunks_corrupt;
        } else {
          ++report.chunks_missing;
        }
      } else if (chunk->size() != e.length ||
                 ChunkKey::of(*chunk, man.key_seed) != e.key) {
        ++report.chunks_corrupt;
      } else {
        ++report.chunks_ok;
      }
    }
  }
  for (const auto& [key, raw_len] : engine_->live_chunks()) {
    if (!referenced.contains(key)) ++report.chunks_orphaned;
  }
  return report;
}

StoreStats CheckpointStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  StoreStats s;
  std::map<std::string, std::uint64_t> latest;  // ascending seq ⇒ last wins
  for (const ManifestFile& mf : list_manifests()) {
    const auto raw = storage_.read(mf.name);
    if (!raw.has_value()) continue;
    Manifest man;
    try {
      man = Manifest::decode(*raw);
    } catch (const Error&) {
      continue;
    }
    ++s.manifests;
    s.logical_bytes += man.image_bytes;
    latest[mf.snapshot] = man.image_bytes;
  }
  s.snapshots = latest.size();
  for (const auto& [snapshot, bytes] : latest) s.latest_image_bytes += bytes;
  s.engine = engine_->stats();
  s.chunks = s.engine.live_chunks;
  s.stored_chunk_bytes = s.engine.live_stored_bytes;
  return s;
}

CompactStats CheckpointStore::compact(bool force) {
  std::lock_guard<std::mutex> lock(mu_);
  return engine_->compact(force);
}

}  // namespace mojave::ckpt
