// The checkpoint writer (src/ckpt/writer.hpp) and the node agent's use
// of it. Each test pins one invariant of taking checkpoint puts off the
// rank's thread:
//  * the checkpoints of several ranks share one batch, each numbered
//    after its snapshot's newest manifest;
//  * a job's `done` (an agent's ack) runs only after its manifest is
//    published, and a failed put is reported, never published;
//  * cancel discards an owner's queued jobs and waits for its job in
//    progress; drain waits for all of them;
//  * an agent tells a rank's senders the watermarks recorded when the
//    checkpoint was taken, keeps one checkpoint per rank in flight, lets
//    a yield exit (and a rank report its result) only once its
//    checkpoint landed, lands nothing after stop(), and keeps running
//    (and its senders keep their logs) when a put fails;
//  * a rank's COMMIT counts at its receivers only once the checkpoint
//    after it landed;
//  * an extent write that fails mid-batch fails the whole batch, and
//    later checkpoints still land and restore;
//  * a rank checkpoint is one blob, its image and then its channels:
//    decode_rank_checkpoint rejects what is not one by name, and a
//    resurrection from a channel section that does not decode fails.
//
// WriterGate holds a store's writer inside a batch (its own job's `done`
// blocks; `done` runs on the writer thread), so a test decides what is
// queued behind it and when it runs.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/store.hpp"
#include "ckpt/writer.hpp"
#include "dnode/agent.hpp"
#include "dnode/channel.hpp"
#include "dnode/coord.hpp"
#include "dnode/wire.hpp"
#include "fir/serialize.hpp"
#include "frontend/compile.hpp"
#include "net/tcp.hpp"
#include "obs/metrics.hpp"
#include "support/hash.hpp"
#include "support/log.hpp"
#include "support/serialize.hpp"
#include "support/tempdir.hpp"

namespace {

namespace fs = std::filesystem;
using namespace mojave;
using namespace std::chrono_literals;

std::uint64_t counter(const char* name) {
  return obs::MetricsRegistry::instance().counter(name).value();
}

template <typename Pred>
bool wait_for(Pred pred, std::chrono::milliseconds limit = 10s) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(1ms);
  }
  return true;
}

std::vector<std::byte> bytes_of(std::uint64_t seed, std::size_t n = 3000) {
  std::vector<std::byte> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::byte>((seed * 131 + i * 7) & 0xff);
  }
  return out;
}

/// Holds a store's writer in a batch until released or destroyed.
class WriterGate {
 public:
  /// `wait` false: the gate may sit behind other queued jobs; call
  /// wait_entered() to know it holds the writer.
  explicit WriterGate(ckpt::CheckpointStore& store, const std::string& name,
                      bool wait = true) {
    auto entered = std::make_shared<std::promise<void>>();
    entered_ = entered->get_future();
    ckpt::CheckpointJob job;
    job.owner = this;
    job.snapshot = name;
    job.image = bytes_of(99, 64);
    job.done = [entered, open = open_.get_future().share()](
                   const ckpt::CheckpointResult&) {
      entered->set_value();
      open.wait();
    };
    store.submit(std::move(job));
    if (wait) wait_entered();
  }
  ~WriterGate() { release(); }

  void wait_entered() { entered_.wait(); }
  void release() {
    if (!released_) {
      released_ = true;
      open_.set_value();
    }
  }

 private:
  std::promise<void> open_;
  std::future<void> entered_;
  bool released_ = false;
};

/// Submits jobs and keeps their outcomes.
struct Jobs {
  struct Outcome {
    std::promise<ckpt::CheckpointResult> landed;
    std::future<ckpt::CheckpointResult> result = landed.get_future();
    std::atomic<bool> done{false};
  };
  std::vector<std::unique_ptr<Outcome>> out;

  Outcome& submit(ckpt::CheckpointStore& store, const void* owner,
                  const std::string& snapshot, std::uint64_t seed) {
    out.push_back(std::make_unique<Outcome>());
    Outcome* o = out.back().get();
    ckpt::CheckpointJob job;
    job.owner = owner;
    job.snapshot = snapshot;
    job.image = bytes_of(seed);
    job.done = [o](const ckpt::CheckpointResult& r) {
      o->done.store(true);
      o->landed.set_value(r);  // last: the test may free `o` once woken
    };
    store.submit(std::move(job));
    return *o;
  }
};

// --- The writer alone --------------------------------------------------

/// `done` sees its checkpoint: the image manifest is published (and
/// restorable) before the callback runs.
TEST(CheckpointWriter, DoneRunsAfterTheImageIsPublished) {
  const TempDir root("mojave_writer_done_");
  ckpt::CheckpointStore store(root.path());
  std::promise<std::pair<std::uint64_t, bool>> seen;
  ckpt::CheckpointJob job;
  job.snapshot = "img";
  job.image = bytes_of(5);
  job.done = [&](const ckpt::CheckpointResult& r) {
    const auto back = store.restore("img");
    seen.set_value({store.latest_seq("img") == r.image.seq && r.ok(),
                    back.has_value() && *back == bytes_of(5)});
  };
  store.submit(std::move(job));
  const auto [published, restorable] = seen.get_future().get();
  EXPECT_TRUE(published);
  EXPECT_TRUE(restorable);
}

/// cancel(owner) drops the owner's queued jobs without running their
/// `done`, and none of their manifests appear later.
TEST(CheckpointWriter, CancelDiscardsQueuedJobs) {
  const TempDir root("mojave_writer_cancel_queued_");
  ckpt::CheckpointStore store(root.path());
  Jobs mine, other;
  {
    WriterGate gate(store, "gate");
    mine.submit(store, &mine, "x", 1);
    mine.submit(store, &mine, "y", 2);
    other.submit(store, &other, "z", 3);
    store.writer().cancel(&mine);  // nothing of mine is in progress
  }
  store.writer().drain(&other);
  EXPECT_TRUE(other.out[0]->result.get().ok());
  store.writer().drain(&mine);
  std::this_thread::sleep_for(50ms);
  for (auto& o : mine.out) EXPECT_FALSE(o->done.load());
  EXPECT_FALSE(store.has_snapshot("x"));
  EXPECT_FALSE(store.has_snapshot("y"));
}

/// cancel(owner) waits while a batch holding the owner's job is being
/// written: once it returns, that job is published and its `done` ran.
TEST(CheckpointWriter, CancelWaitsForTheJobInProgress) {
  const TempDir root("mojave_writer_cancel_busy_");
  ckpt::CheckpointStore store(root.path());
  Jobs mine;
  WriterGate first(store, "gate1");
  WriterGate second(store, "gate2", /*wait=*/false);  // x's batch
  mine.submit(store, &mine, "x", 1);
  first.release();
  // x shares the batch the writer holds; its done waits behind the gate's.
  second.wait_entered();

  std::atomic<bool> cancelled{false};
  std::thread killer([&] {
    store.writer().cancel(&mine);
    cancelled.store(true);
  });
  std::this_thread::sleep_for(100ms);
  EXPECT_FALSE(cancelled.load()) << "cancel returned mid-batch";
  second.release();
  killer.join();
  EXPECT_TRUE(mine.out[0]->done.load()) << "done ran after cancel returned";
  EXPECT_EQ(store.latest_seq("x"), 1u);
}

/// drain(owner) returns once every job of the owner is published.
TEST(CheckpointWriter, DrainWaitsForEveryJobOfItsOwner) {
  const TempDir root("mojave_writer_drain_");
  ckpt::CheckpointStore store(root.path());
  Jobs mine;
  WriterGate gate(store, "gate");
  for (int i = 0; i < 3; ++i) {
    mine.submit(store, &mine, "r" + std::to_string(i), i);
  }
  std::atomic<bool> drained{false};
  std::thread waiter([&] {
    store.writer().drain(&mine);
    drained.store(true);
  });
  std::this_thread::sleep_for(50ms);
  EXPECT_FALSE(drained.load());
  gate.release();
  waiter.join();
  for (auto& o : mine.out) EXPECT_TRUE(o->done.load());
}

/// Checkpoints of three snapshots queued behind a gate share one batch.
/// The one whose manifest cannot be published (a directory stands at its
/// path, so the rename fails) is reported as failed and never appears;
/// the writer goes on, and each other job of the batch is published,
/// numbered after its snapshot's newest manifest.
TEST(CheckpointWriter, FailedJobIsReportedAndTheWriterGoesOn) {
  const TempDir root("mojave_writer_fail_");
  fs::create_directories(root.path() / "manifests" /
                         "bad@000000000001.mft" / "blocker");
  ckpt::CheckpointStore store(root.path());
  (void)store.put("a", bytes_of(1));
  (void)store.put("a", bytes_of(2));

  const std::uint64_t batches = counter("ckpt.batches");
  Jobs jobs;
  {
    WriterGate gate(store, "gate");
    for (const char* name : {"a", "bad", "b"}) {
      jobs.submit(store, &jobs, name, name[0]);
    }
  }
  const auto bad = jobs.out[1]->result.get();
  EXPECT_FALSE(bad.ok());
  EXPECT_THROW(std::rethrow_exception(bad.error), Error);
  EXPECT_FALSE(store.has_snapshot("bad"));
  EXPECT_TRUE(jobs.out[0]->result.get().ok());
  EXPECT_TRUE(jobs.out[2]->result.get().ok());
  EXPECT_EQ(counter("ckpt.batches") - batches, 2u)
      << "the gate's batch, then one for all three";
  EXPECT_EQ(store.latest_seq("a"), 3u);
  EXPECT_EQ(store.latest_seq("b"), 1u);
  EXPECT_TRUE(store.verify().ok());
}

/// Bytes no chunk of which dedups or compresses.
std::vector<std::byte> noise(std::uint64_t seed, std::size_t n) {
  std::vector<std::byte> out(n);
  std::uint64_t x = seed * 0x9e3779b97f4a7c15ull + 1;
  for (std::byte& b : out) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<std::byte>(x >> 56);
  }
  return out;
}

/// An extent write that fails mid-batch (the file size limit stops it)
/// loses every record buffered before it, also those of the job staged
/// earlier in the batch: no job of the batch publishes, and the engine
/// starts a new extent, so later checkpoints land and restore byte for
/// byte. Were the lost records still counted, every later record would
/// be indexed past its real offset and fail its checksum.
TEST(CheckpointWriter, FailedExtentWriteFailsItsBatchAndLaterPutsRestore) {
  const TempDir root("mojave_writer_lost_write_");
  ckpt::CheckpointStore::Options opts;
  opts.engine.cache_bytes = 0;  // restores read the extent files
  ckpt::CheckpointStore store(root.path(), opts);
  const auto first = noise(1, 100'000);
  ASSERT_EQ(store.put("a", first).seq, 1u);

  const auto old_handler = std::signal(SIGXFSZ, SIG_IGN);
  rlimit old_limit{};
  ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &old_limit), 0);
  rlimit limit = old_limit;
  limit.rlim_cur = 1u << 20;
  Jobs jobs;
  std::promise<ckpt::CheckpointResult> big;
  {
    WriterGate gate(store, "gate");
    ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &limit), 0);
    jobs.submit(store, &jobs, "a", 2);  // buffered, then lost
    ckpt::CheckpointJob job;
    job.snapshot = "b";
    job.image = noise(3, 5u << 20);  // its staging writes the buffer out
    job.done = [&](const ckpt::CheckpointResult& r) { big.set_value(r); };
    store.submit(std::move(job));
  }
  const auto small = jobs.out[0]->result.get();
  const auto large = big.get_future().get();
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &old_limit), 0);
  std::signal(SIGXFSZ, old_handler);
  EXPECT_FALSE(large.ok());
  EXPECT_FALSE(small.ok()) << "published a manifest of lost chunks";
  EXPECT_EQ(store.latest_seq("a"), 1u);
  EXPECT_FALSE(store.has_snapshot("b"));

  const auto third = noise(4, 300'000);
  ASSERT_EQ(store.put("a", third).seq, 2u);
  ckpt::RestoreStats rs;
  const auto back = store.restore("a", &rs);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(rs.seq, 2u);
  EXPECT_EQ(rs.manifests_skipped, 0u);
  EXPECT_TRUE(*back == third);
  EXPECT_TRUE(store.verify().ok());
}

// --- The writer under a node agent -------------------------------------

/// One in-process agent driven by a Coordinator, on `root`.
struct OneAgent {
  explicit OneAgent(const fs::path& root) : agent(config(root)) {}
  static dnode::AgentConfig config(const fs::path& root) {
    dnode::AgentConfig cfg;
    cfg.storage_root = root;
    return cfg;
  }
  dnode::CoordinatorConfig coord_config(std::uint32_t ranks) const {
    dnode::CoordinatorConfig cfg;
    cfg.agents.push_back({"127.0.0.1", agent.port()});
    cfg.num_ranks = ranks;
    cfg.recv_timeout_seconds = 30.0;
    return cfg;
  }
  dnode::NodeAgent agent;
};

/// The Outbox `rank` persisted with its newest checkpoint: what it still
/// logs for its receivers.
dnode::Outbox persisted_outbox(ckpt::CheckpointStore& store,
                               std::uint32_t rank) {
  const auto blob = store.restore("rank_" + std::to_string(rank));
  if (!blob.has_value()) {
    ADD_FAILURE() << "rank " << rank << " has no checkpoint";
    return {};
  }
  return dnode::decode_rank_checkpoint(*blob).out;
}

/// Seqs rank `from` still logs for rank `to`.
std::vector<std::uint64_t> logged(dnode::Outbox& out, std::uint32_t to) {
  std::vector<std::uint64_t> seqs;
  for (const auto& [dst, e] : out.resend(to, 0)) seqs.push_back(e->h.seq);
  return seqs;
}

/// Rank 1 receives ten entries from rank 0, checkpoints (c1), lets rank
/// 0 send ten more and checkpoints three more times; then rank 0
/// checkpoints, persisting its log to rank 1. c1 waits behind a gate
/// while the ten more arrive, so its inbox advances between submit and
/// ack. At c3's ack rank 0 is told c1's marks — recorded at submit, seq
/// 11 — and keeps entries 11..20; marks read at ack time (21) would have
/// emptied its log.
TEST(CheckpointWriter, SendersTruncateToTheWatermarksRecordedAtSubmit) {
  const std::string src = R"(
    extern int node_id();
    extern int msg_send(int, int, ptr, int);
    extern int msg_recv(int, int, ptr, int);
    extern ptr checkpoint_target();
    int main() {
      ptr buf = alloc(1);
      int i = 0;
      if (node_id() == 0) {
        while (i < 10) { buf[0] = i; int s = msg_send(1, 1, buf, 1); i = i + 1; }
        int g = msg_recv(1, 3, buf, 1);
        while (i < 20) { buf[0] = i; int s2 = msg_send(1, 1, buf, 1); i = i + 1; }
        int g2 = msg_recv(1, 4, buf, 1);
        migrate(checkpoint_target());
        return 0;
      }
      while (i < 10) { int r = msg_recv(0, 1, buf, 1); i = i + 1; }
      migrate(checkpoint_target());
      int s = msg_send(0, 3, buf, 1);
      while (i < 20) { int r2 = msg_recv(0, 1, buf, 1); i = i + 1; }
      migrate(checkpoint_target());
      migrate(checkpoint_target());
      migrate(checkpoint_target());
      int s2 = msg_send(0, 4, buf, 1);
      return 0;
    }
  )";
  const TempDir root("mojave_writer_marks_");
  OneAgent a(root.path());
  auto store = ckpt::CheckpointStore::open_shared(root.path());
  const std::uint64_t packed = counter("migrate.images_packed");
  dnode::Coordinator coord(a.coord_config(2));
  {
    WriterGate gate(*store, "gate");
    coord.launch_spmd(frontend::compile_source("marks", src));
    ASSERT_TRUE(wait_for([&] {
      return counter("migrate.images_packed") - packed >= 1;
    })) << "rank 1 never took its first checkpoint";
    // Rank 0's second ten arrive while c1 waits; rank 1 then parks at c2.
    std::this_thread::sleep_for(200ms);
    EXPECT_EQ(counter("migrate.images_packed") - packed, 1u);
  }
  ASSERT_TRUE(coord.wait_all(30.0));
  for (const auto& r : coord.results()) {
    EXPECT_EQ(r.exit_code, 0) << "rank " << r.rank << ": " << r.error;
  }
  a.agent.drain_checkpoints();
  dnode::Outbox out = persisted_outbox(*store, 0);
  const auto seqs = logged(out, 1);
  ASSERT_EQ(seqs.size(), 10u) << "rank 0 truncated to the wrong mark";
  EXPECT_EQ(seqs.front(), 11u);
  EXPECT_EQ(seqs.back(), 20u);
  coord.shutdown_agents();
}

/// A rank reaching its next checkpoint while the previous one is still
/// with the writer parks until that one's ack: two back-to-back
/// checkpoints pack once while the writer is held.
TEST(CheckpointWriter, NextCheckpointWaitsForThePreviousAck) {
  const std::string src = R"(
    extern ptr checkpoint_target();
    int main() {
      migrate(checkpoint_target());
      migrate(checkpoint_target());
      return 0;
    }
  )";
  const TempDir root("mojave_writer_in_flight_");
  OneAgent a(root.path());
  auto store = ckpt::CheckpointStore::open_shared(root.path());
  const std::uint64_t packed = counter("migrate.images_packed");
  dnode::Coordinator coord(a.coord_config(1));
  {
    WriterGate gate(*store, "gate");
    coord.launch_spmd(frontend::compile_source("twice", src));
    ASSERT_TRUE(wait_for([&] {
      return counter("migrate.images_packed") - packed >= 1;
    }));
    std::this_thread::sleep_for(150ms);
    EXPECT_EQ(counter("migrate.images_packed") - packed, 1u)
        << "a second checkpoint was taken while the first was in flight";
    EXPECT_FALSE(store->has_snapshot("rank_0"));
  }
  ASSERT_TRUE(coord.wait_all(30.0));
  EXPECT_EQ(coord.results()[0].exit_code, 0) << coord.results()[0].error;
  a.agent.drain_checkpoints();
  EXPECT_EQ(counter("migrate.images_packed") - packed, 2u);
  EXPECT_EQ(store->latest_seq("rank_0"), 2u);
  coord.shutdown_agents();
}

/// A rank that ends right after a checkpoint reports its result only
/// once that checkpoint landed, so a kill after the RESULT still finds
/// the rank in the store (a late sender resurrects it from there).
TEST(CheckpointWriter, ResultWaitsForTheLastCheckpoint) {
  const std::string src = R"(
    extern ptr checkpoint_target();
    int main() {
      migrate(checkpoint_target());
      return 3;
    }
  )";
  const TempDir root("mojave_writer_result_");
  OneAgent a(root.path());
  auto store = ckpt::CheckpointStore::open_shared(root.path());
  const std::uint64_t packed = counter("migrate.images_packed");
  dnode::Coordinator coord(a.coord_config(1));
  {
    WriterGate gate(*store, "gate");
    coord.launch_spmd(frontend::compile_source("last", src));
    ASSERT_TRUE(wait_for([&] {
      return counter("migrate.images_packed") - packed >= 1;
    }));
    std::this_thread::sleep_for(150ms);
    EXPECT_FALSE(coord.results()[0].done)
        << "RESULT came before the checkpoint landed";
  }
  ASSERT_TRUE(coord.wait_all(30.0));
  EXPECT_EQ(coord.results()[0].exit_code, 3);
  EXPECT_EQ(store->latest_seq("rank_0"), 1u);
  coord.shutdown_agents();
}

/// Plays the coordinator on a raw control connection to `agent`.
struct RawCoordinator {
  RawCoordinator(dnode::NodeAgent& agent, const std::string& program_src)
      : control(net::TcpStream::connect("127.0.0.1", agent.port())) {
    control.send_frame(
        dnode::encode_hello(dnode::PeerKind::kCoordinator, 0, 1));
    control.send_frame(
        dnode::encode_config(0, 1, {{"127.0.0.1", agent.port()}}, 0, 30.0));
    control.send_frame(dnode::encode_launch(
        0, fir::encode_program(frontend::compile_source("raw", program_src))));
  }
  /// The next frame of `type` within `limit`, or nullopt.
  std::optional<dnode::Msg> next(dnode::MsgType type,
                                 std::chrono::milliseconds limit) {
    control.set_io_deadline(0.02);
    const auto until = std::chrono::steady_clock::now() + limit;
    while (std::chrono::steady_clock::now() < until) {
      std::optional<std::vector<std::byte>> frame;
      try {
        frame = control.recv_frame();
      } catch (const NetTimeout&) {
        continue;
      }
      if (!frame.has_value()) return std::nullopt;
      const auto m = dnode::decode(*frame);
      if (m.has_value() && m->type == type) return m;
    }
    return std::nullopt;
  }
  net::TcpStream control;
};

/// A coordinator-requested yield leaves only once its checkpoint landed:
/// while the writer is held, the agent reports no RANK_YIELDED; once it
/// runs, the report comes and the image it announces is in the store.
TEST(CheckpointWriter, YieldExitsOnlyAfterItsCheckpointLanded) {
  const std::string src = R"(
    extern ptr checkpoint_target();
    extern void sleep_ms(int);
    int main() {
      sleep_ms(100);
      migrate(checkpoint_target());
      return 0;
    }
  )";
  const TempDir root("mojave_writer_yield_");
  OneAgent a(root.path());
  auto store = ckpt::CheckpointStore::open_shared(root.path());
  const std::uint64_t packed = counter("migrate.images_packed");
  WriterGate gate(*store, "gate");
  RawCoordinator coord(a.agent, src);
  coord.control.send_frame(dnode::encode_yield_rank(0));
  ASSERT_TRUE(wait_for([&] {
    return counter("migrate.images_packed") - packed >= 1;
  }));
  EXPECT_FALSE(coord.next(dnode::MsgType::kRankYielded, 300ms).has_value())
      << "the rank yielded before its checkpoint landed";
  gate.release();
  const auto yielded = coord.next(dnode::MsgType::kRankYielded, 10s);
  ASSERT_TRUE(yielded.has_value());
  EXPECT_TRUE(yielded->ok);
  EXPECT_EQ(store->latest_seq("rank_0"), 1u);
  coord.control.set_io_deadline(0);
  coord.control.send_frame(dnode::encode_shutdown());
  a.agent.stop();
}

/// stop() is the in-process kill: a checkpoint still queued is discarded
/// (no manifest of it appears later), and stop() returns at once because
/// none of the agent's jobs is being written.
TEST(CheckpointWriter, StopDiscardsQueuedCheckpoints) {
  const std::string src = R"(
    extern int msg_recv(int, int, ptr, int);
    extern ptr checkpoint_target();
    int main() {
      ptr buf = alloc(1);
      migrate(checkpoint_target());
      int r = msg_recv(0, 9, buf, 1);
      return 0;
    }
  )";
  const TempDir root("mojave_writer_stop_queued_");
  auto store = ckpt::CheckpointStore::open_shared(root.path());
  const std::uint64_t packed = counter("migrate.images_packed");
  {
    WriterGate gate(*store, "gate");
    auto a = std::make_unique<OneAgent>(root.path());
    RawCoordinator coord(a->agent, src);
    ASSERT_TRUE(wait_for([&] {
      return counter("migrate.images_packed") - packed >= 1;
    }));
    a->agent.stop();
    a.reset();
  }
  // A put queued after everything else returns once all of it is written.
  (void)store->put("after", bytes_of(7, 16));
  EXPECT_FALSE(store->has_snapshot("rank_0"));
}

/// stop() waits for the agent's checkpoint that is being written: the
/// writer holds it in a batch (behind a second gate) when stop() is
/// called, and stop() returns only once that batch is done.
TEST(CheckpointWriter, StopWaitsForTheCheckpointBeingWritten) {
  const std::string src = R"(
    extern int msg_recv(int, int, ptr, int);
    extern ptr checkpoint_target();
    int main() {
      ptr buf = alloc(1);
      migrate(checkpoint_target());
      int r = msg_recv(0, 9, buf, 1);
      return 0;
    }
  )";
  const TempDir root("mojave_writer_stop_busy_");
  auto store = ckpt::CheckpointStore::open_shared(root.path());
  const std::uint64_t packed = counter("migrate.images_packed");
  auto a = std::make_unique<OneAgent>(root.path());
  WriterGate first(*store, "gate1");
  WriterGate second(*store, "gate2", /*wait=*/false);
  RawCoordinator coord(a->agent, src);
  ASSERT_TRUE(wait_for([&] {
    return counter("migrate.images_packed") - packed >= 1;
  }));
  std::this_thread::sleep_for(20ms);  // a pack is counted before its submit
  first.release();
  second.wait_entered();  // the rank's checkpoint is in the batch, unacked

  std::atomic<bool> stopped{false};
  std::thread killer([&] {
    a->agent.stop();
    stopped.store(true);
  });
  std::this_thread::sleep_for(100ms);
  EXPECT_FALSE(stopped.load()) << "stop() returned mid-batch";
  second.release();
  killer.join();
  EXPECT_EQ(store->latest_seq("rank_0"), 1u);
  a.reset();  // the agent is gone: a late ack would touch freed memory
  (void)store->put("after", bytes_of(7, 16));
}

/// A put that fails is logged and the rank runs on; senders keep their
/// logs, since a failed checkpoint covers nothing. Every image put of
/// rank 1 fails here (its first manifest's path is a directory, and each
/// retry numbers itself 1 again), so after four checkpoints rank 0 still
/// logs all ten entries it sent — were a failure counted as landed, it
/// would have truncated them at the third.
TEST(CheckpointWriter, FailedCheckpointLetsTheRankRunAndSendersKeepTheirLogs) {
  const std::string src = R"(
    extern int node_id();
    extern int msg_send(int, int, ptr, int);
    extern int msg_recv(int, int, ptr, int);
    extern ptr checkpoint_target();
    int main() {
      ptr buf = alloc(1);
      int i = 0;
      if (node_id() == 0) {
        while (i < 10) { buf[0] = i; int s = msg_send(1, 1, buf, 1); i = i + 1; }
        int g = msg_recv(1, 4, buf, 1);
        migrate(checkpoint_target());
        return 0;
      }
      while (i < 10) { int r = msg_recv(0, 1, buf, 1); i = i + 1; }
      migrate(checkpoint_target());
      migrate(checkpoint_target());
      migrate(checkpoint_target());
      migrate(checkpoint_target());
      int s = msg_send(0, 4, buf, 1);
      return 7;
    }
  )";
  const TempDir root("mojave_writer_failed_put_");
  fs::create_directories(root.path() / "manifests" /
                         "rank_1@000000000001.mft" / "blocker");
  std::atomic<int> failures{0};
  Logger::instance().set_sink(
      [&](LogLevel level, const std::string&, const std::string& msg) {
        if (level == LogLevel::kWarn &&
            msg.find("checkpoint failed") != std::string::npos) {
          failures.fetch_add(1);
        }
      });
  {
    OneAgent a(root.path());
    auto store = ckpt::CheckpointStore::open_shared(root.path());
    dnode::Coordinator coord(a.coord_config(2));
    coord.launch_spmd(frontend::compile_source("failing", src));
    ASSERT_TRUE(coord.wait_all(30.0));
    const auto results = coord.results();
    EXPECT_EQ(results[0].exit_code, 0) << results[0].error;
    EXPECT_EQ(results[1].exit_code, 7) << "rank 1 stopped: " << results[1].error;
    a.agent.drain_checkpoints();
    EXPECT_FALSE(store->has_snapshot("rank_1"));
    dnode::Outbox out = persisted_outbox(*store, 0);
    EXPECT_EQ(logged(out, 1).size(), 10u) << "rank 0 dropped logged entries";
    coord.shutdown_agents();
  }
  Logger::instance().set_sink(nullptr);
  EXPECT_EQ(failures.load(), 4);
}

/// Agent 0's rank 0 sends rank 1 (on agent 1) a speculative payload,
/// commits, checkpoints, and dies; rank 1 consumed the payload and is
/// asleep, not waiting on rank 0. `landed`: whether that checkpoint is
/// published (and acked) before agent 0 dies, or still queued. Returns
/// rank 1's rollbacks.
std::uint64_t commit_then_kill(bool landed) {
  const std::string src = R"(
    extern int node_id();
    extern int msg_send(int, int, ptr, int);
    extern int msg_recv(int, int, ptr, int);
    extern ptr checkpoint_target();
    extern void sleep_ms(int);
    int main() {
      ptr buf = alloc(1);
      if (node_id() == 0) {
        migrate(checkpoint_target());
        sleep_ms(500);
        int spec = speculate();
        if (spec <= 0) { spec = spec_level(); }
        buf[0] = 5;
        int s = msg_send(1, 1, buf, 1);
        commit(spec);
        migrate(checkpoint_target());
        sleep_ms(2000);
        int s2 = msg_send(1, 2, buf, 1);
        int g = msg_recv(1, 3, buf, 1);
        return 0;
      }
      int spec = speculate();
      if (spec <= 0) { spec = spec_level(); }
      int r = msg_recv(0, 1, buf, 1);
      sleep_ms(1500);
      int r2 = msg_recv(0, 2, buf, 1);
      if (r2 != 0) { rollback(spec, 0 - 1); }
      commit(spec);
      int s = msg_send(0, 3, buf, 1);
      return 0;
    }
  )";
  const TempDir root("mojave_writer_commit_landed_");
  auto store = ckpt::CheckpointStore::open_shared(root.path());
  auto a0 = std::make_unique<OneAgent>(root.path());
  OneAgent a1(root.path());
  dnode::CoordinatorConfig cfg = a0->coord_config(2);
  cfg.agents.push_back({"127.0.0.1", a1.agent.port()});
  dnode::Coordinator coord(cfg);
  const std::uint64_t packed = counter("migrate.images_packed");
  const std::uint64_t consumed = counter("dspec.payloads_consumed");
  coord.launch_spmd(frontend::compile_source("landed", src));
  EXPECT_TRUE(wait_for([&] { return store->has_snapshot("rank_0"); }));
  {
    WriterGate gate(*store, "gate");
    EXPECT_TRUE(wait_for([&] {
      return counter("migrate.images_packed") - packed >= 2 &&
             counter("dspec.payloads_consumed") - consumed >= 1;
    })) << "rank 0 never checkpointed after its commit, or rank 1 never "
           "consumed its payload";
    if (landed) {
      // Once the COMMIT is in, the ack's LANDED is the next frame agent 1
      // takes in: both ranks sleep until the kill.
      std::this_thread::sleep_for(200ms);
      const std::uint64_t frames = counter("node.data_frames_in");
      gate.release();
      EXPECT_TRUE(wait_for([&] {
        return counter("node.data_frames_in") > frames;
      })) << "rank 0's LANDED never reached rank 1";
    }
    a0->agent.stop();
  }
  EXPECT_TRUE(coord.wait_all(30.0));
  const auto results = coord.results();
  EXPECT_EQ(results.size(), 2u);
  for (const auto& r : results) {
    EXPECT_EQ(r.exit_code, 0) << "rank " << r.rank << ": " << r.error;
  }
  EXPECT_GE(coord.resurrections(), 1u);
  coord.shutdown_agents();
  a0.reset();
  return results.size() == 2 ? results[1].rollbacks : 0;
}

/// The checkpoint after the commit was still queued: rank 0 comes back
/// from the one before the send, so rank 1's consumption must not have
/// become durable. It is voided, rank 1's next receive reports MSG_ROLL,
/// and rank 1 rolls back and takes the payload again from the new
/// incarnation. Were the COMMIT counted on arrival, rank 1 would keep a
/// payload its sender never sent.
TEST(CheckpointWriter, CommitCountsOnlyOnceItsCheckpointLanded) {
  EXPECT_GE(commit_then_kill(/*landed=*/false), 1u)
      << "rank 1 kept a payload of a send its sender restored to before";
}

/// The checkpoint after the commit landed before the kill: its ack made
/// the COMMIT count, so the kill voids nothing and rank 1 runs on.
TEST(CheckpointWriter, LandedCheckpointMakesItsCommitCount) {
  EXPECT_EQ(commit_then_kill(/*landed=*/true), 0u)
      << "rank 1 rolled back a payload its sender's checkpoint covers";
}

// --- Rank checkpoints ---------------------------------------------------

/// `blob` (a rank checkpoint) with the last byte of its channel section
/// cut off and its trailer (version u32, section size u64, magic u32)
/// kept consistent with that: only the channels fail to decode.
std::vector<std::byte> cut_channels(std::span<const std::byte> blob) {
  Reader trailer(blob.last(16));
  const std::uint32_t version = trailer.u32();
  const std::uint64_t section = trailer.u64();
  const std::uint32_t magic = trailer.u32();
  Writer w(std::vector<std::byte>(blob.begin(), blob.end() - 16 - 1));
  w.u32(version);
  w.u64(section - 1);
  w.u32(magic);
  return w.take();
}

/// The image comes back byte for byte, and the channels with it: what
/// the Outbox logged and where the Inbox stands.
TEST(RankCheckpoint, ImageAndChannelsRoundTrip) {
  const auto image = bytes_of(3, 500);
  dnode::Outbox out;
  const std::vector<std::byte> value(8, std::byte{7});
  (void)out.put(1, dnode::ChannelOp::kData, 5, 0, 1, value);
  dnode::Inbox in;
  dnode::Entry e;
  e.h.incarnation = 1;
  e.h.seq = 1;
  (void)in.receive(2, e);

  const auto blob = dnode::encode_rank_checkpoint(image, out, in);
  ASSERT_TRUE(std::equal(image.begin(), image.end(), blob.begin()))
      << "the image must lead the blob unchanged, for chunk dedup";
  dnode::RankCheckpoint ck = dnode::decode_rank_checkpoint(blob);
  EXPECT_TRUE(std::ranges::equal(ck.image, image));
  EXPECT_EQ(logged(ck.out, 1), std::vector<std::uint64_t>{1});
  EXPECT_EQ(ck.in.next_seq(2), 2u);
}

std::string decode_error(std::span<const std::byte> blob) {
  try {
    (void)dnode::decode_rank_checkpoint(blob);
  } catch (const ImageError& e) {
    return e.what();
  }
  return "(decoded)";
}

/// A checkpoint an older build wrote under `rank_<r>` is a bare process
/// image, its channels stored apart: it is rejected as such.
TEST(RankCheckpoint, BareProcessImageIsRejectedByName) {
  Writer w;
  w.u32(kImageMagic);
  w.u32(kImageFormatVersion);
  w.bytes(bytes_of(4, 200));
  const std::uint64_t sum = xxh64(w.view());
  w.u64(sum);
  EXPECT_NE(decode_error(w.view()).find("bare process image"),
            std::string::npos)
      << decode_error(w.view());
}

/// A channel section one byte short does not decode, and says so.
TEST(RankCheckpoint, TruncatedChannelSectionIsRejectedByName) {
  dnode::Outbox out;
  const std::vector<std::byte> value(8, std::byte{7});
  (void)out.put(1, dnode::ChannelOp::kData, 5, 0, 1, value);
  const auto blob =
      dnode::encode_rank_checkpoint(bytes_of(5, 300), out, dnode::Inbox{});
  ASSERT_EQ(decode_error(blob), "(decoded)");
  const std::string why = decode_error(cut_channels(blob));
  EXPECT_NE(why.find("channel section does not decode"), std::string::npos)
      << why;
}

/// A rank whose newest checkpoint has channels that do not decode is not
/// resurrected from it, as with a bad image: the agent answers RANK_UP
/// false, logs the rank, and runs nothing. The store holds the blob
/// intact, so its restore does not fall back.
TEST(CheckpointWriter, CorruptChannelSectionFailsTheResurrection) {
  const std::string src = R"(
    extern ptr checkpoint_target();
    int main() {
      migrate(checkpoint_target());
      return 0;
    }
  )";
  std::atomic<int> warnings{0};
  Logger::instance().set_sink(
      [&](LogLevel level, const std::string&, const std::string& msg) {
        if (level == LogLevel::kWarn &&
            msg.find("resurrect rank 0 failed") != std::string::npos &&
            msg.find("channel section") != std::string::npos) {
          warnings.fetch_add(1);
        }
      });
  {
    const TempDir root("mojave_writer_bad_channels_");
    OneAgent a(root.path());
    auto store = ckpt::CheckpointStore::open_shared(root.path());
    RawCoordinator coord(a.agent, src);
    ASSERT_TRUE(coord.next(dnode::MsgType::kResult, 10s).has_value());
    const auto blob = store->restore("rank_0");
    ASSERT_TRUE(blob.has_value());
    ASSERT_EQ(store->put("rank_0", cut_channels(*blob)).seq, 2u);

    const std::uint64_t resurrections = counter("node.resurrections");
    coord.control.send_frame(dnode::encode_resurrect(0, 2));
    const auto up = coord.next(dnode::MsgType::kRankUp, 10s);
    ASSERT_TRUE(up.has_value());
    EXPECT_EQ(up->rank, 0u);
    EXPECT_FALSE(up->ok) << "the rank ran with channels that do not decode";
    EXPECT_EQ(counter("node.resurrections"), resurrections);
    coord.control.set_io_deadline(0);
    coord.control.send_frame(dnode::encode_shutdown());
    a.agent.stop();
  }
  Logger::instance().set_sink(nullptr);
  EXPECT_EQ(warnings.load(), 1);
}

}  // namespace
