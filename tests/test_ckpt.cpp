// The incremental checkpoint store: chunking, the content-addressed
// store (dedup, retention, GC, integrity fallback), shared-storage
// hygiene, and the ckpt:// protocol end-to-end through the Migrator.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <thread>

#include "ckpt/chunker.hpp"
#include "ckpt/store.hpp"
#include "cluster/storage.hpp"
#include "fir/builder.hpp"
#include "migrate/image.hpp"
#include "migrate/migrator.hpp"
#include "migrate/protocols.hpp"
#include "migrate/server.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"
#include "support/log.hpp"
#include "support/rng.hpp"
#include "support/serialize.hpp"
#include "vm/process.hpp"

namespace {

using namespace mojave;
namespace fs = std::filesystem;

std::vector<std::byte> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::byte> out(n);
  for (auto& b : out) b = static_cast<std::byte>(rng.next() & 0xff);
  return out;
}

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// ---------------------------------------------------------------- chunker

TEST(Chunker, FixedModeSlicesAtTargetSize) {
  ckpt::ChunkerConfig cfg;
  cfg.mode = ckpt::ChunkerConfig::Mode::kFixed;
  cfg.target_bytes = 1024;
  const auto data = random_bytes(10 * 1024 + 17, 1);
  const auto chunks = ckpt::split_chunks(data, cfg);
  ASSERT_EQ(chunks.size(), 11u);
  for (std::size_t i = 0; i + 1 < chunks.size(); ++i) {
    EXPECT_EQ(chunks[i].size(), 1024u);
  }
  EXPECT_EQ(chunks.back().size(), 17u);
}

TEST(Chunker, ContentDefinedRespectsBoundsAndReassembles) {
  ckpt::ChunkerConfig cfg;  // content-defined defaults
  const auto data = random_bytes(200 * 1024, 2);
  const auto chunks = ckpt::split_chunks(data, cfg);
  ASSERT_GT(chunks.size(), 1u);

  std::size_t total = 0;
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    total += chunks[i].size();
    EXPECT_LE(chunks[i].size(), cfg.max_bytes);
    if (i + 1 < chunks.size()) {
      EXPECT_GE(chunks[i].size(), cfg.min_bytes);
    }
  }
  EXPECT_EQ(total, data.size());

  // The spans alias the input in order: reassembly is the identity.
  std::vector<std::byte> joined;
  for (const auto& c : chunks) joined.insert(joined.end(), c.begin(), c.end());
  EXPECT_EQ(joined, data);

  // Deterministic.
  const auto again = ckpt::split_chunks(data, cfg);
  ASSERT_EQ(again.size(), chunks.size());
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    EXPECT_EQ(again[i].data(), chunks[i].data());
  }
}

TEST(Chunker, LocalEditOnlyDisturbsNearbyChunks) {
  ckpt::ChunkerConfig cfg;
  auto data = random_bytes(256 * 1024, 3);
  const auto keys_of = [&](std::span<const std::byte> img) {
    std::set<std::string> keys;
    for (const auto& c : ckpt::split_chunks(img, cfg)) {
      keys.insert(ckpt::ChunkKey::of(c).hex());
    }
    return keys;
  };
  const auto before = keys_of(data);
  for (std::size_t i = 0; i < 512; ++i) {
    data[100 * 1024 + i] ^= std::byte{0x5a};
  }
  const auto after = keys_of(data);
  std::size_t fresh = 0;
  for (const auto& k : after) fresh += before.count(k) == 0 ? 1 : 0;
  // A 512-byte edit must not re-key more than a handful of chunks — this
  // is the boundary-resynchronisation property fixed-size chunking lacks.
  EXPECT_LE(fresh, 4u);
  EXPECT_GT(before.size(), 20u);
}

TEST(Chunker, RejectsBadConfig) {
  ckpt::ChunkerConfig cfg;
  cfg.target_bytes = 1000;  // not a power of two
  EXPECT_THROW((void)ckpt::split_chunks(random_bytes(64, 4), cfg), Error);
  cfg = {};
  cfg.min_bytes = 1 << 16;  // min > max
  cfg.max_bytes = 1 << 10;
  EXPECT_THROW((void)ckpt::split_chunks(random_bytes(64, 4), cfg), Error);
}

/// The gear CDC loop as it was before it skipped the warm-up: hash every
/// byte from the chunk start. split_chunks must cut at the same places.
std::vector<std::size_t> reference_cuts(std::span<const std::byte> data,
                                        const ckpt::ChunkerConfig& cfg) {
  std::array<std::uint64_t, 256> gear{};
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  for (auto& g : gear) {
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    g = z ^ (z >> 31);
  }
  const std::uint64_t mask = cfg.target_bytes - 1;
  std::vector<std::size_t> cuts;
  std::size_t start = 0;
  while (start < data.size()) {
    const std::size_t remaining = data.size() - start;
    if (remaining <= cfg.min_bytes) {
      cuts.push_back(data.size());
      break;
    }
    const std::size_t limit = std::min(remaining, cfg.max_bytes);
    std::uint64_t h = 0;
    std::size_t len = 0;
    for (; len < limit; ++len) {
      h = (h << 1) + gear[static_cast<std::uint8_t>(data[start + len])];
      if (len + 1 >= cfg.min_bytes && (h & mask) == 0) {
        ++len;
        break;
      }
    }
    start += len;
    cuts.push_back(start);
  }
  return cuts;
}

TEST(Chunker, WarmupSkipKeepsTheCutPointsOfTheFullLoop) {
  // Random bytes, zero pages, and random bytes broken by zero runs, at
  // minimums below, at and above the 64-byte gear window.
  std::vector<std::vector<std::byte>> inputs;
  inputs.push_back(random_bytes(300 * 1024 + 7, 50));
  inputs.emplace_back(100 * 1024, std::byte{0});
  auto mixed = random_bytes(200 * 1024, 51);
  for (std::size_t i = 0; i < mixed.size(); i += 9000) {
    std::fill_n(mixed.begin() + static_cast<std::ptrdiff_t>(i),
                std::min<std::size_t>(3000, mixed.size() - i), std::byte{0});
  }
  inputs.push_back(std::move(mixed));
  const std::array<std::array<std::size_t, 3>, 6> configs{{
      {512, 2048, 8192},  // the default
      {16, 64, 256},
      {64, 256, 1024},
      {65, 128, 512},
      {100, 128, 100},
      {4096, 16384, 65536},
  }};
  for (const auto& [min, target, max] : configs) {
    ckpt::ChunkerConfig cfg;
    cfg.min_bytes = min;
    cfg.target_bytes = target;
    cfg.max_bytes = std::max(max, target);
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      std::vector<std::size_t> cuts;
      std::size_t end = 0;
      for (const auto& c : ckpt::split_chunks(inputs[i], cfg)) {
        end += c.size();
        cuts.push_back(end);
      }
      EXPECT_EQ(cuts, reference_cuts(inputs[i], cfg))
          << "min " << min << " target " << target << " input " << i;
    }
  }
}

// --------------------------------------------------------------- manifest

TEST(Manifest, EncodeDecodeRoundTrip) {
  ckpt::Manifest m;
  m.snapshot = "rank_3";
  m.seq = 42;
  m.image_bytes = 7;
  m.image_hash = 0xdeadbeef;
  m.chunks = {{ckpt::ChunkKey{1, 2}, 3}, {ckpt::ChunkKey{4, 5}, 4}};
  const auto bytes = m.encode();
  const auto d = ckpt::Manifest::decode(bytes);
  EXPECT_EQ(d.snapshot, m.snapshot);
  EXPECT_EQ(d.seq, m.seq);
  EXPECT_EQ(d.image_bytes, m.image_bytes);
  EXPECT_EQ(d.image_hash, m.image_hash);
  ASSERT_EQ(d.chunks.size(), 2u);
  EXPECT_EQ(d.chunks[1].key, (ckpt::ChunkKey{4, 5}));
  EXPECT_EQ(d.chunks[1].length, 4u);

  // Any flipped byte breaks the trailing checksum.
  auto bad = bytes;
  bad[bytes.size() / 2] ^= std::byte{0x01};
  EXPECT_THROW((void)ckpt::Manifest::decode(bad), ImageError);
  auto truncated = bytes;
  truncated.resize(truncated.size() - 3);
  EXPECT_THROW((void)ckpt::Manifest::decode(truncated), ImageError);
}

TEST(Manifest, VersionOneManifestIsRejectedByVersionNotAsCorrupt) {
  // The version 1 layout: no key seed, FNV-1a trailer.
  Writer w;
  w.u32(0x74666b6d);  // "mkft"
  w.u32(1);
  w.str("rank_0");
  w.u64(1);  // seq
  w.u64(0);  // image_bytes
  w.u64(0);  // image_hash
  w.u32(0);  // no chunks
  w.u64(fnv1a(w.view()));
  try {
    (void)ckpt::Manifest::decode(w.view());
    FAIL() << "a version 1 manifest decoded";
  } catch (const ImageError& e) {
    EXPECT_NE(std::string(e.what()).find("version 1"), std::string::npos)
        << e.what();
  }
}

// ------------------------------------------------------------------ store

TEST(CheckpointStore, PutRestoreRoundTrip) {
  ckpt::CheckpointStore store(fresh_dir("mj_ckpt_roundtrip"));
  const auto img = random_bytes(100 * 1024, 10);
  const auto put = store.put("rank_0", img);
  EXPECT_EQ(put.seq, 1u);
  EXPECT_TRUE(put.first_snapshot);
  EXPECT_EQ(put.bytes_total, img.size());
  EXPECT_EQ(put.chunks_written, put.chunks_total);

  ckpt::RestoreStats rs;
  const auto back = store.restore("rank_0", &rs);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, img);
  EXPECT_EQ(rs.seq, 1u);
  EXPECT_EQ(rs.manifests_skipped, 0u);
  EXPECT_TRUE(store.has_snapshot("rank_0"));
  EXPECT_FALSE(store.has_snapshot("rank_9"));
  EXPECT_EQ(store.latest_seq("rank_0"), 1u);
}

/// A reader polling the newest seq in a tight loop, as a resurrection
/// watchdog or a test harness does, must not starve the writer: the
/// listing reads only the filesystem, so it takes no lock a put needs.
TEST(CheckpointStore, PollingReaderDoesNotStarveWriters) {
  ckpt::CheckpointStore store(fresh_dir("mj_ckpt_polling_reader"));
  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load()) (void)store.latest_seq("rank_0");
  });
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < 10; ++i) {
    store.put("rank_0", random_bytes(16 * 1024, 100 + i));
  }
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  done.store(true);
  reader.join();
  EXPECT_EQ(store.latest_seq("rank_0"), 10u);
  EXPECT_LT(seconds, 2.0) << "10 puts beside a polling reader";
}

TEST(CheckpointStore, IdenticalPutWritesNothing) {
  ckpt::CheckpointStore store(fresh_dir("mj_ckpt_identical"));
  const auto img = random_bytes(64 * 1024, 11);
  (void)store.put("a", img);
  const auto again = store.put("a", img);
  EXPECT_EQ(again.seq, 2u);
  EXPECT_FALSE(again.first_snapshot);
  EXPECT_EQ(again.chunks_written, 0u);
  EXPECT_EQ(again.bytes_written, 0u);
  EXPECT_EQ(again.chunks_deduped, again.chunks_total);
}

TEST(CheckpointStore, SmallEditWritesSmallDelta) {
  // The acceptance shape: a second checkpoint whose image differs in one
  // small region uploads well under 25% of the full image.
  ckpt::CheckpointStore store(fresh_dir("mj_ckpt_delta"));
  auto img = random_bytes(256 * 1024, 12);
  (void)store.put("a", img);
  for (std::size_t i = 0; i < 1024; ++i) {
    img[37 * 1024 + i] ^= std::byte{0xff};
  }
  const auto put = store.put("a", img);
  EXPECT_GT(put.chunks_deduped, 0u);
  EXPECT_LT(put.bytes_written, put.bytes_total / 4);

  const auto back = store.restore("a");
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, img);
}

TEST(CheckpointStore, DedupesAcrossSnapshots) {
  ckpt::CheckpointStore store(fresh_dir("mj_ckpt_cross"));
  const auto img = random_bytes(64 * 1024, 13);
  (void)store.put("rank_0", img);
  const auto other = store.put("rank_1", img);
  EXPECT_TRUE(other.first_snapshot);
  EXPECT_EQ(other.chunks_written, 0u);
  EXPECT_GE(store.stats().dedup_ratio(), 1.9);
}

TEST(CheckpointStore, CorruptChunkFallsBackToPreviousManifest) {
  const auto root = fresh_dir("mj_ckpt_corrupt_chunk");
  const auto v1 = random_bytes(64 * 1024, 14);
  auto v2 = v1;
  for (std::size_t i = 0; i < 4096; ++i) v2[20 * 1024 + i] = std::byte{0xab};

  // Flip payload bytes of a chunk only the newest checkpoint references,
  // in place inside its extent file.
  {
    ckpt::CheckpointStore store(root);
    (void)store.put("a", v1);
    (void)store.put("a", v2);
    const auto manifests = store.manifests("a");
    ASSERT_EQ(manifests.size(), 2u);
    std::set<std::string> old_keys;
    for (const auto& e : manifests[0].chunks) old_keys.insert(e.key.hex());
    std::optional<ckpt::ChunkKey> fresh_key;
    for (const auto& e : manifests[1].chunks) {
      if (old_keys.count(e.key.hex()) == 0) fresh_key = e.key;
    }
    ASSERT_TRUE(fresh_key.has_value());
    const auto loc = store.engine().locate(*fresh_key);
    ASSERT_TRUE(loc.has_value());
    ASSERT_GT(loc->stored_len, 0u);
    std::fstream ext(loc->extent,
                     std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(ext.good());
    ext.seekp(static_cast<std::streamoff>(loc->payload_offset));
    const char junk[] = "junk";
    ext.write(junk, std::min<std::streamsize>(
                        4, static_cast<std::streamsize>(loc->stored_len)));
    ASSERT_TRUE(ext.good());
  }

  // A fresh store (cold cache, index rebuilt from the extents) must not
  // surface v2 (or garbage): restore falls back to the previous complete
  // checkpoint.
  ckpt::CheckpointStore store(root);
  ckpt::RestoreStats rs;
  const auto back = store.restore("a", &rs);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, v1);
  EXPECT_EQ(rs.seq, 1u);
  EXPECT_EQ(rs.manifests_skipped, 1u);

  // verify() sees the same corruption.
  const auto report = store.verify();
  EXPECT_FALSE(report.ok());
  EXPECT_GE(report.chunks_corrupt, 1u);
}

TEST(CheckpointStore, CorruptOrMissingEverythingMeansNoRestore) {
  ckpt::CheckpointStore store(fresh_dir("mj_ckpt_all_bad"));
  (void)store.put("a", random_bytes(8 * 1024, 15));
  const char junk[] = "x";
  for (const auto& name : store.storage().list(
           ckpt::CheckpointStore::kManifestDir)) {
    store.storage().write(name,
                          std::as_bytes(std::span(junk, std::size_t{1})));
  }
  EXPECT_FALSE(store.restore("a").has_value());
}

TEST(CheckpointStore, RetentionPrunesAndGcKeepsSharedChunks) {
  ckpt::CheckpointStore::Options opts;
  opts.keep_manifests = 2;
  ckpt::CheckpointStore store(fresh_dir("mj_ckpt_gc"), opts);

  // A stable prefix shared by every version + a churning suffix.
  const auto stable = random_bytes(32 * 1024, 16);
  for (int v = 0; v < 5; ++v) {
    auto img = stable;
    const auto churn = random_bytes(16 * 1024, 100 + v);
    img.insert(img.end(), churn.begin(), churn.end());
    (void)store.put("a", img);
  }
  // Retention kept only the newest two manifests…
  EXPECT_EQ(store.manifests("a").size(), 2u);
  EXPECT_EQ(store.latest_seq("a"), 5u);
  // …and GC evicted the dropped versions' churn without touching the
  // shared prefix: everything still restores bit-exact.
  const auto report = store.verify();
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.chunks_orphaned, 0u);
  const auto back = store.restore("a");
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(std::equal(stable.begin(), stable.end(), back->begin()));
}

TEST(CheckpointStore, ValidatesSnapshotNames) {
  ckpt::CheckpointStore store(fresh_dir("mj_ckpt_names"));
  const auto img = random_bytes(1024, 17);
  EXPECT_THROW((void)store.put("", img), Error);
  EXPECT_THROW((void)store.put("a/b", img), Error);
  EXPECT_THROW((void)store.put("a@2", img), Error);
  EXPECT_THROW((void)store.put("..", img), Error);
  (void)store.put("ok-Name_1.x", img);
  EXPECT_EQ(store.snapshots(), std::vector<std::string>{"ok-Name_1.x"});
}

// ------------------------------------------------ several writers, one root

TEST(CheckpointStore, AnotherWritersUnpublishedChunkSurvivesGc) {
  // Writer A has appended a chunk for a manifest it has not published
  // yet; writer B's puts prune B's manifests and evict. B must not touch
  // A's chunk.
  const auto root = fresh_dir("mj_ckpt_inflight");
  ckpt::CheckpointStore::Options opts;
  opts.keep_manifests = 1;
  ckpt::CheckpointStore a(root, opts);
  ckpt::CheckpointStore b(root, opts);
  const auto pending = random_bytes(4096, 30);
  const auto key = ckpt::ChunkKey::of(pending);
  a.engine().put(key, pending);
  a.engine().flush();
  std::size_t evicted = 0;
  for (int v = 0; v < 3; ++v) {
    evicted += b.put("b", random_bytes(16 * 1024, 31 + v)).chunks_evicted;
  }
  EXPECT_GT(evicted, 0u) << "B never collected its own garbage";

  ckpt::ChunkEngine fresh(a.engine().dir());
  const auto back = fresh.read(key);
  ASSERT_TRUE(back.has_value()) << "B's GC evicted A's in-flight chunk";
  EXPECT_EQ(*back, pending);
}

TEST(CheckpointStore, ContentBothWritersHoldSurvivesTheOtherWritersEviction) {
  const auto root = fresh_dir("mj_ckpt_shared_content");
  ckpt::CheckpointStore::Options opts;
  opts.keep_manifests = 1;
  ckpt::CheckpointStore a(root, opts);
  ckpt::CheckpointStore b(root, opts);
  const auto x = random_bytes(32 * 1024, 40);
  (void)a.put("a", x);                          // A holds x
  (void)b.put("b", random_bytes(32 * 1024, 41));  // B reads A's extent
  // A's retention drops a@1, the only manifest of A holding x: A evicts
  // its copy of x.
  EXPECT_GT(a.put("a", random_bytes(32 * 1024, 42)).chunks_evicted, 0u);
  (void)b.put("b", x);  // B holds x from now on

  ckpt::CheckpointStore fresh(root, opts);
  ckpt::RestoreStats rs;
  const auto back = fresh.restore("b", &rs);
  ASSERT_TRUE(back.has_value()) << "b@2 lost chunks to A's eviction";
  EXPECT_EQ(*back, x);
  EXPECT_EQ(rs.seq, 2u);
  EXPECT_EQ(rs.manifests_skipped, 0u);
  EXPECT_TRUE(fresh.verify().ok());
}

TEST(CheckpointStore, OwnManifestPrunedByAnotherWriterReleasesItsChunks) {
  // A writes s@1; B's retention of snapshot s prunes it. A learns that
  // from the manifest listing of its next put and evicts s@1's chunks.
  const auto root = fresh_dir("mj_ckpt_pruned_by_other");
  ckpt::CheckpointStore::Options opts;
  opts.keep_manifests = 1;
  ckpt::CheckpointStore a(root, opts);
  ckpt::CheckpointStore b(root, opts);
  (void)a.put("s", random_bytes(32 * 1024, 60));
  const auto by_b = b.put("s", random_bytes(32 * 1024, 61));
  EXPECT_EQ(by_b.manifests_pruned, 1u);
  EXPECT_EQ(by_b.chunks_evicted, 0u);  // s@1 is A's, not B's
  EXPECT_GT(ckpt::CheckpointStore(root).verify().chunks_orphaned, 0u);

  const auto next = a.put("t", random_bytes(1024, 62));
  EXPECT_GT(next.chunks_evicted, 0u);
  const auto report = ckpt::CheckpointStore(root).verify();
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.chunks_orphaned, 0u);
}

/// Two processes put interleaved checkpoints with online GC into `root`,
/// as two node agents do. Writer 1 puts at step i the content writer 0
/// put at steps i-3..i-5: about when writer 0's retention drops it, which
/// is where cross-writer dedup and eviction used to meet.
void run_two_writer_processes(const fs::path& root) {
  constexpr int kWriters = 2;
  constexpr int kPuts = 60;
  const auto stable = random_bytes(48 * 1024, 70);
  std::vector<pid_t> pids;
  for (int w = 0; w < kWriters; ++w) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      int rc = 0;
      try {
        ckpt::CheckpointStore::Options opts;
        opts.keep_manifests = 2;
        ckpt::CheckpointStore store(root, opts);
        for (int i = 0; i < kPuts; ++i) {
          auto img = stable;
          for (int lag = 3 * w; lag <= 5 * w; ++lag) {
            const auto churn = random_bytes(16 * 1024, 1000 + i - lag);
            img.insert(img.end(), churn.begin(), churn.end());
          }
          (void)store.put("w" + std::to_string(w) + "_r" +
                              std::to_string(i % 2),
                          img);
        }
      } catch (...) {
        rc = 1;
      }
      ::_exit(rc);
    }
    pids.push_back(pid);
  }
  for (const pid_t pid : pids) {
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
  }
}

TEST(CheckpointStore, ConcurrentWriterProcessesLeaveAVerifiableStore) {
  // The race is timing-dependent; three rounds make a store that loses
  // chunks to the other writer show up almost surely.
  for (int round = 0; round < 3; ++round) {
    const auto root =
        fresh_dir("mj_ckpt_two_procs_" + std::to_string(round));
    run_two_writer_processes(root);
    ckpt::CheckpointStore store(root);
    const auto report = store.verify();
    EXPECT_TRUE(report.ok()) << "round " << round << ": "
                             << report.chunks_missing << " chunk(s) missing, "
                             << report.chunks_corrupt << " corrupt";
    const auto names = store.snapshots();
    EXPECT_EQ(names.size(), 4u);
    for (const std::string& name : names) {
      ckpt::RestoreStats rs;
      const auto back = store.restore(name, &rs);
      ASSERT_TRUE(back.has_value()) << name;
      EXPECT_EQ(rs.seq, store.latest_seq(name)) << name;
      EXPECT_EQ(rs.manifests_skipped, 0u) << name;
    }
  }
}

TEST(ChunkEngine, MjxOneExtentIsRejectedLoudly) {
  // One put record in the MJX1 layout (FNV-1a trailer) in an extent file.
  const auto dir = fresh_dir("mj_ckpt_mjx1");
  const auto payload = random_bytes(64, 80);
  Writer w;
  w.u32(0x31584a4d);  // 'M' 'J' 'X' '1'
  w.u8(1);            // put
  w.u64(1);           // seq
  w.u64(2);           // key.hi
  w.u64(3);           // key.lo
  w.u32(64);          // raw_len
  w.u32(64);          // stored_len
  w.u8(0);            // raw codec
  w.bytes(payload);
  w.u64(fnv1a(w.view().subspan(4)));
  {
    std::ofstream out(dir / "ext-1-0000000000000001-0.x", std::ios::binary);
    out.write(reinterpret_cast<const char*>(w.view().data()),
              static_cast<std::streamsize>(w.view().size()));
  }
  std::vector<std::string> errors;
  Logger::instance().set_sink(
      [&](LogLevel level, const std::string&, const std::string& msg) {
        if (level == LogLevel::kError) errors.push_back(msg);
      });
  ckpt::ChunkEngine engine(dir);
  EXPECT_FALSE(engine.read(ckpt::ChunkKey{2, 3}).has_value());
  EXPECT_EQ(engine.stats().live_chunks, 0u);
  Logger::instance().set_sink(nullptr);
  ASSERT_EQ(errors.size(), 1u) << "reported once, not on every rescan";
  EXPECT_NE(errors[0].find("MJX1"), std::string::npos) << errors[0];
}

// ---------------------------------------------------- storage hygiene

TEST(SharedStorage, ListHidesInFlightAndSweepsStaleTempFiles) {
  const auto dir = fresh_dir("mj_storage_tmp");
  cluster::SharedStorage storage(dir);
  const auto img = random_bytes(128, 18);
  storage.write("sub/real.obj", img);

  // A fresh temp file (in-flight write) is hidden but not deleted…
  std::ofstream(dir / "sub" / "inflight.obj.1234.5.tmp") << "partial";
  auto names = storage.list();
  EXPECT_EQ(names, std::vector<std::string>{"sub/real.obj"});
  EXPECT_TRUE(fs::exists(dir / "sub" / "inflight.obj.1234.5.tmp"));

  // …until it is old enough to be crash debris, then list() sweeps it.
  storage.set_stale_tmp_age(0.0);
  names = storage.list("sub");
  EXPECT_EQ(names, std::vector<std::string>{"sub/real.obj"});
  EXPECT_FALSE(fs::exists(dir / "sub" / "inflight.obj.1234.5.tmp"));
}

// --------------------------------------------------------- ckpt:// wiring

TEST(CkptProtocol, TargetParsing) {
  const auto t = migrate::MigrateTarget::parse("ckpt:///var/store/rank_2");
  EXPECT_EQ(t.protocol, migrate::Protocol::kCkpt);
  EXPECT_EQ(t.path, "/var/store");
  EXPECT_EQ(t.snapshot, "rank_2");
  EXPECT_EQ(t.kind, migrate::ImageKind::kFir);
  EXPECT_EQ(t.to_string(), "ckpt:///var/store/rank_2");

  const auto b = migrate::MigrateTarget::parse("ckpt://store/name;binary");
  EXPECT_EQ(b.kind, migrate::ImageKind::kBinary);
  EXPECT_EQ(b.path, "store");
  EXPECT_EQ(b.snapshot, "name");

  EXPECT_THROW(migrate::MigrateTarget::parse("ckpt://nosnapshot"),
               MigrateError);
  EXPECT_THROW(migrate::MigrateTarget::parse("ckpt://trailing/"),
               MigrateError);
}

/// Counts to 10 via `loop`, hitting `migrate [target]` every `interval`
/// steps (same shape as the migrate tests). The accumulator lives in a
/// deliberately oversized buffer — only slot 0 ever changes, so checkpoint
/// images are nearly identical and the incremental store has real work to
/// dedupe.
fir::Program make_counter_program(const std::string& target, int interval) {
  using fir::Atom;
  using fir::Binop;
  using fir::Type;
  fir::ProgramBuilder pb("counter");
  auto main_id = pb.declare("main", {});
  auto loop_id = pb.declare(
      "loop", {Type::integer(), Type::integer(), Type::ptr()});
  {
    auto fb = pb.define(main_id, {});
    auto buf = fb.let_alloc("buf", Atom::integer(4096), Atom::integer(0));
    fb.tail_call(Atom::fun_ref(loop_id),
                 {Atom::integer(1), Atom::integer(10), fb.v(buf)});
  }
  {
    auto fb = pb.define(loop_id, {"i", "total", "buf"});
    auto done = fb.let_binop("done", Binop::kGt, fb.arg(0), fb.arg(1));
    fb.branch(
        fb.v(done),
        [&](auto& t) {
          auto x =
              t.let_read("x", Type::integer(), t.arg(2), Atom::integer(0));
          t.halt(t.v(x));
        },
        [&](auto& e) {
          auto old =
              e.let_read("old", Type::integer(), e.arg(2), Atom::integer(0));
          auto acc = e.let_binop("acc", Binop::kAdd, e.v(old), e.arg(0));
          e.write(e.arg(2), Atom::integer(0), e.v(acc));
          auto i1 = e.let_binop("i1", Binop::kAdd, e.arg(0), Atom::integer(1));
          auto m = e.let_binop("m", Binop::kMod, e.arg(0),
                               Atom::integer(interval));
          auto hit = e.let_unop("hit", fir::Unop::kNot, e.v(m));
          e.branch(
              e.v(hit),
              [&](auto& t2) {
                auto tgt = t2.let_atom("tgt", Type::ptr(), pb.str(target));
                t2.migrate(7, t2.v(tgt), Atom::fun_ref(loop_id),
                           {t2.v(i1), t2.arg(1), t2.arg(2)});
              },
              [&](auto& e2) {
                e2.tail_call(Atom::fun_ref(loop_id),
                             {e2.v(i1), e2.arg(1), e2.arg(2)});
              });
        });
  }
  return pb.take("main");
}

TEST(CkptProtocol, MigratorCheckpointsIncrementallyAndResumes) {
  const auto dir = fresh_dir("mj_ckpt_proto_e2e");
  const std::string uri = "ckpt://" + dir.string() + "/counter";

  vm::Process p(make_counter_program(uri, 4));
  migrate::Migrator mig(p);
  const auto result = p.run();
  // Like the checkpoint protocol, ckpt keeps running to completion.
  EXPECT_EQ(result.kind, vm::RunResult::Kind::kHalted);
  EXPECT_EQ(result.exit_code, 55);
  ASSERT_GE(mig.events().size(), 2u);
  EXPECT_TRUE(mig.events()[0].success);
  // The first checkpoint wrote real bytes; the second, nearly-identical
  // image wrote a strictly smaller delta.
  EXPECT_GT(mig.events()[0].bytes_written, 0u);
  EXPECT_LT(mig.events()[1].bytes_written, mig.events()[0].bytes_written);

  auto store = ckpt::CheckpointStore::open_shared(dir);
  EXPECT_GE(store->latest_seq("counter"), 2u);

  // Resurrect from the URI: resumes past the last checkpoint and finishes
  // with the same sum.
  auto res = migrate::resurrect_from_uri(
      uri, {.cfg = {}, .prepare = [](vm::Process& proc) {
              proc.adopt_hook(std::make_unique<migrate::Migrator>(proc));
            }});
  EXPECT_EQ(res.run.kind, vm::RunResult::Kind::kHalted);
  EXPECT_EQ(res.run.exit_code, 55);

  // read_checkpoint_uri serves both plain paths and ckpt:// URIs.
  EXPECT_THROW((void)migrate::read_checkpoint_uri(
                   "ckpt://" + dir.string() + "/absent"),
               MigrateError);
}

TEST(CkptProtocol, ServerJournalsInboundImages) {
  const auto dir = fresh_dir("mj_ckpt_journal");
  migrate::MigrationServer::Options opts;
  opts.ckpt_journal_root = dir;
  migrate::MigrationServer server(std::move(opts));

  vm::Process p(make_counter_program(
      "migrate://127.0.0.1:" + std::to_string(server.port()), 4));
  migrate::Migrator mig(p);
  EXPECT_EQ(p.run().kind, vm::RunResult::Kind::kMigratedAway);
  (void)server.wait_for(1);

  // The inbound image was journaled (durably, before the ack) and is
  // restorable from the store under the sanitized program name.
  auto store = ckpt::CheckpointStore::open_shared(dir);
  ASSERT_TRUE(store->has_snapshot("inbound_counter"));
  const auto img = store->restore("inbound_counter");
  ASSERT_TRUE(img.has_value());
  EXPECT_EQ(migrate::inspect_image(*img).program_name, "counter");
}

}  // namespace
