// Control-plane durability tests (src/ctrl).
//
// The load-bearing property is replay equivalence: the live coordinator
// and WAL replay share one transition function (ctrl::CoordState::apply),
// so a standby that replays the log must arrive at a bit-identical state
// image. CtrlWal.ReplayRebuildsBitIdenticalState pins that as a property
// test over randomized transition streams; the rest of the suite pins the
// failure edges — torn tails, corrupt records, zombie appends behind a
// takeover seal — and the lease protocol that decides who may write.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "ctrl/lease.hpp"
#include "ctrl/state.hpp"
#include "ctrl/wal.hpp"

namespace {

namespace fs = std::filesystem;
using namespace mojave;

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

ctrl::WalRecord meta_record(std::uint32_t ranks) {
  ctrl::WalRecord rec;
  rec.op = ctrl::WalOp::kMeta;
  rec.num_ranks = ranks;
  rec.agents = {{"127.0.0.1", 7001}, {"127.0.0.1", 7002}};
  rec.max_instructions = 500000;
  rec.recv_timeout_seconds = 60.0;
  return rec;
}

ctrl::WalRecord placement_record(std::uint32_t rank, std::uint32_t agent,
                                 bool alive) {
  ctrl::WalRecord rec;
  rec.op = ctrl::WalOp::kPlacement;
  rec.rank = rank;
  rec.agent = agent;
  rec.alive = alive;
  return rec;
}

/// Apply the stream to a live CoordState while appending every record to
/// a WAL segment — exactly the coordinator's log-then-apply path.
std::vector<std::byte> run_live(const fs::path& dir, std::uint64_t epoch,
                                const std::vector<ctrl::WalRecord>& stream) {
  ctrl::CoordState live;
  ctrl::WalWriter wal(dir, epoch);
  for (const ctrl::WalRecord& rec : stream) {
    wal.append(rec);
    live.apply(rec);
  }
  wal.close();
  return live.snapshot_bytes();
}

std::vector<std::byte> replay_into_state(const fs::path& dir,
                                         ctrl::ReplayStats* stats = nullptr) {
  ctrl::CoordState rebuilt;
  const ctrl::ReplayStats st = ctrl::replay_wal(
      dir, [&rebuilt](const ctrl::WalRecord& rec) { rebuilt.apply(rec); });
  if (stats != nullptr) *stats = st;
  return rebuilt.snapshot_bytes();
}

/// A deterministic random transition stream touching every op the live
/// coordinator emits, including the order-sensitive ones (placement
/// flips, grants that number incarnations).
std::vector<ctrl::WalRecord> random_stream(std::uint32_t seed,
                                           std::uint32_t ranks,
                                           std::size_t ops) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<std::uint32_t> pick_rank(0, ranks - 1);
  std::uniform_int_distribution<int> pick_op(0, 5);

  std::vector<ctrl::WalRecord> stream;
  stream.push_back(meta_record(ranks));
  for (std::uint32_t r = 0; r < ranks; ++r) {
    stream.push_back(placement_record(r, r % 2, true));
  }
  for (std::size_t i = 0; i < ops; ++i) {
    ctrl::WalRecord rec;
    switch (pick_op(rng)) {
      case 0: {
        rec.op = ctrl::WalOp::kResurrectGrant;
        rec.rank = pick_rank(rng);
        rec.agent = rng() % 2;
        break;
      }
      case 1: {
        rec.op = ctrl::WalOp::kRankUp;
        rec.rank = pick_rank(rng);
        rec.agent = rng() % 2;
        break;
      }
      case 2: {
        rec.op = ctrl::WalOp::kAgentDown;
        rec.agent = rng() % 2;
        break;
      }
      case 3:
      case 4: {
        rec.op = ctrl::WalOp::kPlacement;
        rec.rank = pick_rank(rng);
        rec.agent = rng() % 2;
        rec.alive = (rng() % 2) == 0;
        break;
      }
      default: {
        rec.op = ctrl::WalOp::kRankResult;
        rec.rank = pick_rank(rng);
        rec.result.has_reported = true;
        rec.result.reported = static_cast<double>(rng() % 1000) / 7.0;
        rec.result.output = "rank output " + std::to_string(rec.rank);
        rec.result.instructions = rng() % 100000;
        rec.result.speculates = rng() % 10;
        rec.result.commits = rng() % 10;
        rec.result.rollbacks = rng() % 4;
        break;
      }
    }
    stream.push_back(rec);
  }
  return stream;
}

// --- Replay equivalence (the property the whole design hangs off) -------

TEST(CtrlWal, ReplayRebuildsBitIdenticalState) {
  for (std::uint32_t seed = 1; seed <= 8; ++seed) {
    const fs::path dir =
        fresh_dir("mojave_ctrl_equiv_" + std::to_string(seed));
    const auto stream = random_stream(seed, 4 + seed % 3, 200);
    const auto live = run_live(dir, /*epoch=*/1, stream);

    ctrl::ReplayStats stats;
    const auto rebuilt = replay_into_state(dir, &stats);
    EXPECT_EQ(stats.segments, 1u);
    EXPECT_EQ(stats.records, stream.size());
    EXPECT_EQ(stats.truncated, 0u);
    ASSERT_EQ(live, rebuilt) << "seed " << seed
                             << ": replayed state diverged from live state";
  }
}

TEST(CtrlWal, DuplicateResultIsIdempotentAcrossReplay) {
  const fs::path dir = fresh_dir("mojave_ctrl_dup_result");
  std::vector<ctrl::WalRecord> stream;
  stream.push_back(meta_record(2));
  ctrl::WalRecord res;
  res.op = ctrl::WalOp::kRankResult;
  res.rank = 0;
  res.result.has_reported = true;
  res.result.reported = 42.5;
  res.result.instructions = 100;
  stream.push_back(res);
  stream.push_back(res);  // re-sent across a failover

  ctrl::CoordState live;
  ctrl::WalWriter wal(dir, 1);
  for (const auto& rec : stream) {
    wal.append(rec);
    const auto r = live.apply(rec);
    if (&rec == &stream.back()) EXPECT_TRUE(r.duplicate_result);
  }
  wal.close();

  const auto rebuilt = replay_into_state(dir);
  EXPECT_EQ(live.snapshot_bytes(), rebuilt);
  EXPECT_EQ(live.ranks()[0].instructions, 100u) << "duplicate double-counted";
}

// --- Torn and corrupt tails ---------------------------------------------

TEST(CtrlWal, TornTailStopsAtLastWholeRecord) {
  const fs::path dir = fresh_dir("mojave_ctrl_torn");
  {
    ctrl::WalWriter wal(dir, 1);
    wal.append(meta_record(2));
    wal.append(placement_record(0, 0, true));
    wal.append(placement_record(1, 1, true));
    wal.close();
  }
  const auto segments = ctrl::wal_segments(dir);
  ASSERT_EQ(segments.size(), 1u);

  // Tear the tail mid-record, as a crash during the last write(2) would.
  const auto size = fs::file_size(segments[0]);
  fs::resize_file(segments[0], size - 5);

  ctrl::CoordState rebuilt;
  const auto stats = ctrl::replay_wal(
      dir, [&rebuilt](const ctrl::WalRecord& rec) { rebuilt.apply(rec); });
  EXPECT_EQ(stats.records, 2u) << "replay did not stop at the torn record";
  EXPECT_EQ(stats.truncated, 1u);
  ASSERT_EQ(rebuilt.placement().size(), 2u);
  EXPECT_TRUE(rebuilt.placement()[0].alive);
  EXPECT_FALSE(rebuilt.placement()[1].alive) << "torn record applied";
}

TEST(CtrlWal, CorruptRecordChecksumEndsSegmentReplay) {
  const fs::path dir = fresh_dir("mojave_ctrl_corrupt");
  {
    ctrl::WalWriter wal(dir, 1);
    wal.append(meta_record(2));
    wal.append(placement_record(0, 0, true));
    wal.close();
  }
  const auto segments = ctrl::wal_segments(dir);
  ASSERT_EQ(segments.size(), 1u);

  // Flip one byte in the last record's body: the length frame still
  // reads, the checksum must reject it.
  const auto size = static_cast<off_t>(fs::file_size(segments[0]));
  const int fd = ::open(segments[0].c_str(), O_RDWR);
  ASSERT_GE(fd, 0);
  char b = 0;
  ASSERT_EQ(::pread(fd, &b, 1, size - 2), 1);
  b = static_cast<char>(b ^ 0x5a);
  ASSERT_EQ(::pwrite(fd, &b, 1, size - 2), 1);
  ::close(fd);

  const auto stats = ctrl::replay_wal(dir, [](const ctrl::WalRecord&) {});
  EXPECT_EQ(stats.records, 1u);
  EXPECT_EQ(stats.truncated, 1u);
}

// --- Zombie fencing via takeover seals ----------------------------------

TEST(CtrlWal, TakeoverSealFencesZombiePrimaryAppends) {
  const fs::path dir = fresh_dir("mojave_ctrl_zombie");

  // Epoch 1 primary writes the run config, then "crashes" — but its
  // O_APPEND fd stays alive (the zombie scenario).
  auto zombie = std::make_unique<ctrl::WalWriter>(dir, 1);
  zombie->append(meta_record(2));
  zombie->append(placement_record(0, 0, true));
  zombie->flush();

  // Epoch 2 standby replays what the primary durably wrote and seals it.
  ctrl::CoordState standby;
  const auto replayed = ctrl::replay_wal(
      dir, [&standby](const ctrl::WalRecord& rec) { standby.apply(rec); });
  EXPECT_EQ(replayed.records, 2u);
  ASSERT_EQ(replayed.consumed.size(), 1u);

  ctrl::WalWriter takeover(dir, 2);
  ctrl::WalRecord seal;
  seal.op = ctrl::WalOp::kTakeover;
  seal.seals = replayed.consumed;
  takeover.append(seal);
  takeover.append(placement_record(1, 1, true));
  standby.apply(placement_record(1, 1, true));
  takeover.close();

  // The zombie wakes up and keeps appending to its old segment. Its
  // record lands on disk behind the epoch-2 segment in replay order —
  // only the seal can make it unreachable.
  zombie->append(placement_record(0, 1, false));
  zombie->close();
  zombie.reset();

  ctrl::ReplayStats stats;
  const auto rebuilt = replay_into_state(dir, &stats);
  EXPECT_EQ(stats.segments, 2u);
  EXPECT_EQ(stats.records, 3u) << "zombie append replayed past the seal";
  EXPECT_GT(stats.sealed_off, 0u);
  EXPECT_EQ(stats.max_epoch, 2u);
  EXPECT_EQ(rebuilt, standby.snapshot_bytes());
}

// --- Lease protocol ------------------------------------------------------

TEST(CtrlLease, AcquireRenewReleaseHandoff) {
  const fs::path dir = fresh_dir("mojave_ctrl_lease");

  ctrl::Lease primary(dir, /*ttl_seconds=*/30.0);
  ASSERT_TRUE(primary.try_acquire());
  EXPECT_TRUE(primary.held());
  EXPECT_EQ(primary.epoch(), 1u);
  EXPECT_TRUE(primary.renew());

  // A live, unexpired lease blocks contenders.
  ctrl::Lease standby(dir, 30.0);
  EXPECT_FALSE(standby.try_acquire());
  EXPECT_FALSE(standby.held());

  // Graceful release expires the lease in place: the standby takes over
  // immediately at the next epoch, and the old primary is now deposed.
  primary.release();
  const auto on_disk = ctrl::Lease::read(dir);
  ASSERT_TRUE(on_disk.has_value());
  EXPECT_TRUE(on_disk->expired(ctrl::Lease::wall_now()));

  ASSERT_TRUE(standby.try_acquire());
  EXPECT_EQ(standby.epoch(), 2u);
  EXPECT_FALSE(primary.try_acquire()) << "deposed primary re-took the lease";
}

TEST(CtrlLease, RenewFailsOnceDeposed) {
  const fs::path dir = fresh_dir("mojave_ctrl_lease_depose");

  ctrl::Lease primary(dir, /*ttl_seconds=*/0.0);  // expires immediately
  ASSERT_TRUE(primary.try_acquire());

  // TTL 0 means the standby sees an expired lease and seizes it — the
  // failure-detector path, not the graceful handoff.
  ctrl::Lease standby(dir, 30.0);
  ASSERT_TRUE(standby.try_acquire());
  EXPECT_EQ(standby.epoch(), 2u);

  EXPECT_FALSE(primary.renew()) << "zombie renewed over a newer epoch";
  EXPECT_FALSE(primary.held());
  // Its failed renew must not have clobbered the successor's lease.
  const auto info = ctrl::Lease::read(dir);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->epoch, 2u);
  EXPECT_TRUE(standby.renew());
}

TEST(CtrlLease, ReadSurfacesEpochAndTtl) {
  const fs::path dir = fresh_dir("mojave_ctrl_lease_read");
  EXPECT_FALSE(ctrl::Lease::read(dir).has_value());

  ctrl::Lease lease(dir, 2.5);
  ASSERT_TRUE(lease.try_acquire());
  const auto info = ctrl::Lease::read(dir);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->epoch, 1u);
  EXPECT_EQ(info->ttl_seconds, 2.5);
  EXPECT_FALSE(info->expired(ctrl::Lease::wall_now()));
}

}  // namespace
