// Coverage for the remaining substrate corners: the MojC lexer, shared
// checkpoint storage, TCP framing, hashing/RNG determinism, and the grid
// application's source generator & reference kernel.
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

#include <filesystem>
#include <thread>

#include "cluster/storage.hpp"
#include "frontend/lexer.hpp"
#include "gridapp/heat.hpp"
#include "net/tcp.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"

namespace {

using namespace mojave;
namespace fs = std::filesystem;

// --- Lexer -----------------------------------------------------------------

TEST(Lexer, TokenizesOperatorsGreedily) {
  using frontend::Tok;
  const auto toks = frontend::lex("a<<=b <= < << ++ += + ^= ^ |= || |");
  std::vector<Tok> kinds;
  for (const auto& t : toks) kinds.push_back(t.kind);
  // "a<<=b": ident, <<, =, ident (no <<= token in MojC)
  const std::vector<Tok> expected = {
      Tok::kIdent, Tok::kShl,      Tok::kAssign, Tok::kIdent, Tok::kLe,
      Tok::kLt,    Tok::kShl,      Tok::kPlusPlus, Tok::kPlusAssign,
      Tok::kPlus,  Tok::kCaretAssign, Tok::kCaret, Tok::kPipeAssign,
      Tok::kOrOr,  Tok::kPipe,     Tok::kEof};
  EXPECT_EQ(kinds, expected);
}

TEST(Lexer, NumbersAndFloats) {
  const auto toks = frontend::lex("42 3.5 1e3 2.5e-2 007");
  EXPECT_EQ(toks[0].ival, 42);
  EXPECT_DOUBLE_EQ(toks[1].fval, 3.5);
  EXPECT_DOUBLE_EQ(toks[2].fval, 1000.0);
  EXPECT_DOUBLE_EQ(toks[3].fval, 0.025);
  EXPECT_EQ(toks[4].ival, 7);
}

TEST(Lexer, StringsWithEscapes) {
  const auto toks = frontend::lex(R"("a\nb\t\"q\"")");
  EXPECT_EQ(toks[0].kind, frontend::Tok::kString);
  EXPECT_EQ(toks[0].text, "a\nb\t\"q\"");
}

TEST(Lexer, CommentsAreSkippedAndTracked) {
  const auto toks = frontend::lex("a // line comment\n/* block\n*/ b");
  ASSERT_GE(toks.size(), 3u);
  EXPECT_EQ(toks[0].text, "a");
  EXPECT_EQ(toks[1].text, "b");
  EXPECT_EQ(toks[1].line, 3);  // line numbers survive comments
}

TEST(Lexer, Errors) {
  EXPECT_THROW((void)frontend::lex("\"unterminated"), ParseError);
  EXPECT_THROW((void)frontend::lex("/* unterminated"), ParseError);
  EXPECT_THROW((void)frontend::lex("@"), ParseError);
  EXPECT_THROW((void)frontend::lex("1e"), ParseError);
  EXPECT_THROW((void)frontend::lex("\"bad \\z escape\""), ParseError);
  EXPECT_THROW((void)frontend::lex("99999999999999999999999"), ParseError);
}

// --- SharedStorage -------------------------------------------------------------

TEST(Storage, WriteReadListRemove) {
  const fs::path root = fs::temp_directory_path() / "mojave_storage_test";
  fs::remove_all(root);
  cluster::SharedStorage storage(root);

  const std::vector<std::byte> payload = {std::byte{1}, std::byte{2},
                                          std::byte{3}};
  storage.write("a.img", payload);
  EXPECT_TRUE(storage.exists("a.img"));
  const auto back = storage.read("a.img");
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, payload);

  storage.write("b.img", payload);
  auto names = storage.list();
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, (std::vector<std::string>{"a.img", "b.img"}));

  storage.remove("a.img");
  EXPECT_FALSE(storage.exists("a.img"));
  EXPECT_FALSE(storage.read("a.img").has_value());
}

TEST(Storage, OverwriteIsAtomicallyVisible) {
  const fs::path root = fs::temp_directory_path() / "mojave_storage_atomic";
  fs::remove_all(root);
  cluster::SharedStorage storage(root);
  // Concurrent writers + reader: the reader must only ever see a complete
  // image of one generation (size 1000 of byte k), never a torn mix.
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (int gen = 0; gen < 50; ++gen) {
      std::vector<std::byte> img(1000, std::byte{static_cast<uint8_t>(gen)});
      storage.write("x.img", img);
    }
    stop.store(true);
  });
  int observations = 0;
  while (!stop.load()) {
    const auto img = storage.read("x.img");
    if (!img.has_value()) continue;
    ASSERT_EQ(img->size(), 1000u);
    for (std::byte b : *img) ASSERT_EQ(b, (*img)[0]);
    ++observations;
  }
  writer.join();
  EXPECT_GT(observations, 0);
}

// --- TCP framing ----------------------------------------------------------------

TEST(Tcp, FrameRoundTripAndPeerClose) {
  net::TcpListener listener(0);
  std::thread server([&] {
    auto stream = listener.accept();
    ASSERT_TRUE(stream.has_value());
    // Echo frames until the peer closes.
    while (auto frame = stream->recv_frame()) {
      stream->send_frame(*frame);
    }
  });

  auto client = net::TcpStream::connect("127.0.0.1", listener.port());
  std::vector<std::byte> msg(100000);
  for (std::size_t i = 0; i < msg.size(); ++i) {
    msg[i] = std::byte{static_cast<std::uint8_t>(i * 7)};
  }
  client.send_frame(msg);
  const auto echoed = client.recv_frame();
  ASSERT_TRUE(echoed.has_value());
  EXPECT_EQ(*echoed, msg);

  // Empty frames are legal.
  client.send_frame({});
  const auto empty = client.recv_frame();
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty->empty());

  client.close();
  server.join();
  listener.shutdown();
}

TEST(Tcp, AcceptedStreamsSetNoDelayLikeDialedOnes) {
  const auto nodelay = [](int fd) {
    int v = 0;
    socklen_t len = sizeof(v);
    EXPECT_EQ(::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &v, &len), 0);
    return v != 0;
  };
  net::TcpListener listener(0);
  auto client = net::TcpStream::connect("127.0.0.1", listener.port());
  auto accepted = listener.accept();
  ASSERT_TRUE(accepted.has_value());
  EXPECT_TRUE(nodelay(client.fd()));
  EXPECT_TRUE(nodelay(accepted->fd()));

  listener.set_nonblocking();
  auto client2 = net::TcpStream::connect("127.0.0.1", listener.port());
  std::optional<net::TcpStream> polled;
  for (int i = 0; i < 2000 && !polled.has_value(); ++i) {
    polled = listener.try_accept();
    if (!polled.has_value()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ASSERT_TRUE(polled.has_value());
  EXPECT_TRUE(nodelay(polled->fd()));
  listener.shutdown();
}

TEST(Tcp, ConnectFailureIsTypedError) {
  EXPECT_THROW((void)net::TcpStream::connect("127.0.0.1", 1),
               NetError);
  EXPECT_THROW((void)net::TcpStream::connect("not-an-ip", 80), NetError);
}

// --- Hash / RNG -------------------------------------------------------------------

TEST(Hash, Fnv1aKnownValuesAndSensitivity) {
  EXPECT_EQ(fnv1a(""), kFnvOffset);
  EXPECT_NE(fnv1a("a"), fnv1a("b"));
  EXPECT_NE(fnv1a("ab"), fnv1a("ba"));
  // Deterministic across calls.
  EXPECT_EQ(fnv1a("mojave"), fnv1a("mojave"));
}

TEST(Hash, Xxh64MatchesReferenceVectors) {
  // Reference XXH64 values, seed 0 (they agree with LLVM's xxHash64);
  // the last two take the 32-byte stripe path.
  EXPECT_EQ(xxh64(""), 0xef46db3751d8e999ULL);
  EXPECT_EQ(xxh64("a"), 0xd24ec4f1a98c6e5bULL);
  EXPECT_EQ(xxh64("abc"), 0x44bc2cf5ad770999ULL);
  EXPECT_EQ(xxh64("Nobody inspects the spammish repetition"),
            0xfbcea83c8a378bf1ULL);
  EXPECT_EQ(xxh64("The quick brown fox jumps over the lazy dog"),
            0x0b242d361fda71bcULL);
  // Every tail path (32-byte stripes, 8- and 4-byte words, single bytes)
  // is sensitive to each byte and to the seed.
  std::string s(77, 'x');
  for (std::size_t n = 0; n <= s.size(); ++n) {
    const std::string_view v(s.data(), n);
    EXPECT_NE(xxh64(v), xxh64(v, 1)) << n;
    if (n == 0) continue;
    std::string flipped(v);
    flipped[n - 1] ^= 1;
    EXPECT_NE(xxh64(v), xxh64(flipped)) << n;
  }
}

TEST(Rng, DeterministicPerSeedAndWellDistributed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
  Rng c(124);
  EXPECT_NE(Rng(123).next(), c.next());

  Rng d(5);
  int buckets[10] = {0};
  for (int i = 0; i < 10000; ++i) ++buckets[d.below(10)];
  for (int k = 0; k < 10; ++k) {
    EXPECT_GT(buckets[k], 800);
    EXPECT_LT(buckets[k], 1200);
  }
}

// --- Grid app generator -------------------------------------------------------------

TEST(GridGen, GeneratedSourceCompilesForVariousShapes) {
  for (std::uint32_t nodes : {1u, 2u, 4u}) {
    gridapp::HeatConfig cfg;
    cfg.nodes = nodes;
    cfg.rows = 8 * nodes;
    cfg.cols = 6;
    cfg.steps = 3;
    cfg.checkpoint_interval = 2;
    EXPECT_NO_THROW((void)gridapp::heat_program(cfg)) << nodes;
  }
}

TEST(GridGen, RejectsBadShapes) {
  gridapp::HeatConfig cfg;
  cfg.nodes = 3;
  cfg.rows = 10;  // not divisible by 3
  EXPECT_THROW((void)gridapp::heat_mojc_source(cfg), Error);
  cfg.nodes = 0;
  EXPECT_THROW((void)gridapp::heat_mojc_source(cfg), Error);
}

TEST(GridGen, ReferenceConservesBoundaryAndConverges) {
  gridapp::HeatConfig cfg;
  cfg.nodes = 2;
  cfg.rows = 8;
  cfg.cols = 8;
  cfg.steps = 0;
  const auto t0 = gridapp::heat_reference_sums(cfg);
  cfg.steps = 200;
  const auto t200 = gridapp::heat_reference_sums(cfg);
  // Heat flows inward from the hot boundary: total interior energy grows,
  // monotonically approaching the all-100 fixed point.
  double total0 = 0;
  double total200 = 0;
  for (double s : t0) total0 += s;
  for (double s : t200) total200 += s;
  EXPECT_GT(total200, total0);
  EXPECT_LE(total200, 100.0 * 8 * 8 + 1e-9);
}

}  // namespace
