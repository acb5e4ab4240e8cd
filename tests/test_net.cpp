// Transport-layer tests: connect/recv deadlines, error paths that must not
// leak fds, frame-size hardening, the retry policy's budget accounting,
// and the WireChaosProxy fault shim.
#include <gtest/gtest.h>

#include <dirent.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include "net/chaos.hpp"
#include "net/retry.hpp"
#include "net/tcp.hpp"
#include "support/error.hpp"
#include "support/stopwatch.hpp"

namespace {

using namespace mojave;
using net::Deadlines;
using net::RetryPolicy;
using net::TcpListener;
using net::TcpStream;

std::vector<std::byte> bytes_of(std::string_view s) {
  const auto span = std::as_bytes(std::span(s.data(), s.size()));
  return {span.begin(), span.end()};
}

/// A port that nothing listens on: bind a listener, note its port, close.
std::uint16_t dead_port() {
  TcpListener probe(0);
  const std::uint16_t port = probe.port();
  probe.shutdown();
  return port;
}

std::size_t open_fd_count() {
  std::size_t n = 0;
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return 0;
  while (::readdir(dir) != nullptr) ++n;
  ::closedir(dir);
  return n;
}

/// Echoes every frame back, across any number of connections.
class EchoServer {
 public:
  EchoServer() : listener_(0) {
    thread_ = std::thread([this] {
      while (true) {
        auto s = listener_.accept();
        if (!s.has_value()) return;
        workers_.emplace_back([stream = std::move(*s)]() mutable {
          try {
            while (auto frame = stream.recv_frame()) {
              stream.send_frame(*frame);
            }
          } catch (const NetError&) {
            // connection cut by the test or the proxy
          }
        });
      }
    });
  }
  ~EchoServer() {
    listener_.shutdown();
    thread_.join();
    for (auto& w : workers_) w.join();
  }
  [[nodiscard]] std::uint16_t port() const { return listener_.port(); }

 private:
  TcpListener listener_;
  std::thread thread_;
  std::vector<std::thread> workers_;
};

// --- Deadlines and error paths ----------------------------------------

TEST(TcpDeadlines, ConnectRefusedThrowsNetError) {
  EXPECT_THROW((void)TcpStream::connect("127.0.0.1", dead_port(),
                                        Deadlines{1.0, 1.0}),
               NetError);
}

TEST(TcpDeadlines, RecvDeadlineSurfacesAsNetTimeout) {
  TcpListener listener(0);
  std::thread server([&] {
    auto s = listener.accept();  // accept, then never send anything
    std::this_thread::sleep_for(std::chrono::seconds(2));
  });
  TcpStream client =
      TcpStream::connect("127.0.0.1", listener.port(), Deadlines{1.0, 0.2});
  Stopwatch sw;
  EXPECT_THROW((void)client.recv_frame(), NetTimeout);
  EXPECT_LT(sw.seconds(), 1.5) << "deadline did not bound the recv";
  client.close();
  listener.shutdown();
  server.join();
}

TEST(TcpDeadlines, HostnameResolutionWorks) {
  EchoServer echo;
  TcpStream client =
      TcpStream::connect("localhost", echo.port(), Deadlines{5.0, 5.0});
  client.send_frame(bytes_of("hi"));
  const auto back = client.recv_frame();
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, bytes_of("hi"));
}

TEST(TcpDeadlines, UnknownHostThrowsNetError) {
  EXPECT_THROW((void)TcpStream::connect("no-such-host.mojave.invalid", 1,
                                        Deadlines{2.0, 1.0}),
               NetError);
}

TEST(TcpFraming, PeerCloseMidFrameIsNetError) {
  // Raw server: advertise a 100-byte frame, deliver nothing, hang up.
  const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(lfd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(lfd, 1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const std::uint16_t port = ntohs(addr.sin_port);

  std::thread server([&] {
    const int cfd = ::accept(lfd, nullptr, nullptr);
    const std::uint32_t claim = 100;
    std::uint8_t header[4];
    std::memcpy(header, &claim, 4);  // little-endian, matching the framing
    (void)::send(cfd, header, sizeof(header), 0);
    ::close(cfd);
  });
  TcpStream client =
      TcpStream::connect("127.0.0.1", port, Deadlines{1.0, 1.0});
  EXPECT_THROW((void)client.recv_frame(), NetError);
  server.join();
  ::close(lfd);
}

TEST(TcpFraming, OversizedFrameIsRejectedBeforeAllocation) {
  const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(lfd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(lfd, 1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const std::uint16_t port = ntohs(addr.sin_port);

  std::thread server([&] {
    const int cfd = ::accept(lfd, nullptr, nullptr);
    const std::uint32_t claim =
        static_cast<std::uint32_t>(net::kMaxFrameBytes) + 1;
    std::uint8_t header[4];
    std::memcpy(header, &claim, 4);
    (void)::send(cfd, header, sizeof(header), 0);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    ::close(cfd);
  });
  TcpStream client =
      TcpStream::connect("127.0.0.1", port, Deadlines{1.0, 1.0});
  EXPECT_THROW((void)client.recv_frame(), NetError);
  server.join();
  ::close(lfd);
}

TEST(TcpFraming, FailedConnectsDoNotLeakFds) {
  const std::uint16_t port = dead_port();
  // Warm up whatever lazy state the first call initializes.
  for (int i = 0; i < 3; ++i) {
    EXPECT_THROW((void)TcpStream::connect("127.0.0.1", port, Deadlines{1.0, 0}),
                 NetError);
  }
  const std::size_t before = open_fd_count();
  for (int i = 0; i < 50; ++i) {
    EXPECT_THROW((void)TcpStream::connect("127.0.0.1", port, Deadlines{1.0, 0}),
                 NetError);
  }
  const std::size_t after = open_fd_count();
  EXPECT_LE(after, before + 2) << "connect error paths are leaking fds";
}

// --- Retry policy -------------------------------------------------------

TEST(RetryPolicyTest, BackoffStopsAtMaxAttempts) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_seconds = 0.001;
  policy.max_backoff_seconds = 0.002;
  policy.overall_deadline_seconds = 0;  // attempts only
  net::Backoff backoff(policy, 42);
  EXPECT_TRUE(backoff.retry_after_failure());   // attempt 2 allowed
  EXPECT_TRUE(backoff.retry_after_failure());   // attempt 3 allowed
  EXPECT_FALSE(backoff.retry_after_failure());  // budget exhausted
  EXPECT_EQ(backoff.attempts(), 3u);
}

TEST(RetryPolicyTest, OverallDeadlineCutsAttemptsShort) {
  RetryPolicy policy;
  policy.max_attempts = 1000;
  policy.initial_backoff_seconds = 0.02;
  policy.backoff_multiplier = 1.0;
  policy.max_backoff_seconds = 0.02;
  policy.overall_deadline_seconds = 0.1;
  net::Backoff backoff(policy, 42);
  std::uint32_t granted = 0;
  while (backoff.retry_after_failure()) ++granted;
  EXPECT_GT(granted, 0u);
  EXPECT_LT(granted, 20u) << "deadline did not bound the retry loop";
}

TEST(RetryPolicyTest, EnvOverridesApply) {
  ::setenv("MOJAVE_MIGRATE_MAX_ATTEMPTS", "7", 1);
  ::setenv("MOJAVE_NET_CONNECT_TIMEOUT_S", "2.5", 1);
  const RetryPolicy p = RetryPolicy::from_env();
  EXPECT_EQ(p.max_attempts, 7u);
  EXPECT_DOUBLE_EQ(p.connect_timeout_seconds, 2.5);
  ::unsetenv("MOJAVE_MIGRATE_MAX_ATTEMPTS");
  ::unsetenv("MOJAVE_NET_CONNECT_TIMEOUT_S");
  const RetryPolicy d = RetryPolicy::from_env();
  EXPECT_EQ(d.max_attempts, RetryPolicy{}.max_attempts);
}

// --- WireChaosProxy -----------------------------------------------------

TEST(WireChaosProxyTest, CleanProxyRelaysBothDirections) {
  EchoServer echo;
  net::WireChaosProxy proxy("127.0.0.1", echo.port(), net::WireFaults{});
  TcpStream client =
      TcpStream::connect("127.0.0.1", proxy.port(), Deadlines{2.0, 2.0});
  client.send_frame(bytes_of("ping"));
  const auto back = client.recv_frame();
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, bytes_of("ping"));
  client.close();
  // A pump counts its bytes after the send that delivered them; stop()
  // joins the pumps so the count is final.
  proxy.stop();
  // Both frames (4-byte header + "ping"), one in each direction.
  EXPECT_GE(proxy.stats().bytes_forwarded, 2u * 8u);
}

TEST(WireChaosProxyTest, DeterministicReplyDropCutsTheConnection) {
  EchoServer echo;
  net::WireFaults faults;
  faults.drop_reply_frames = {1};  // swallow the first reply ever relayed
  net::WireChaosProxy proxy("127.0.0.1", echo.port(), faults);
  {
    TcpStream client =
        TcpStream::connect("127.0.0.1", proxy.port(), Deadlines{2.0, 2.0});
    client.send_frame(bytes_of("lost"));
    // The reply is swallowed and the connection cut: recv sees either an
    // orderly close (nullopt) or a reset (NetError).
    try {
      const auto back = client.recv_frame();
      EXPECT_FALSE(back.has_value());
    } catch (const NetError&) {
    }
  }
  // A fresh connection works: only reply #1 was condemned.
  TcpStream retry =
      TcpStream::connect("127.0.0.1", proxy.port(), Deadlines{2.0, 2.0});
  retry.send_frame(bytes_of("again"));
  const auto back = retry.recv_frame();
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, bytes_of("again"));
  EXPECT_EQ(proxy.stats().frames_dropped, 1u);
}

TEST(WireChaosProxyTest, SplitWritesAndDelayPreserveEveryFrame) {
  EchoServer echo;
  net::WireFaults faults;
  faults.delay_seconds = 0.0005;
  faults.split_bytes = 7;  // frame headers arrive in pieces too
  net::WireChaosProxy proxy("127.0.0.1", echo.port(), faults);

  TcpStream client =
      TcpStream::connect("127.0.0.1", proxy.port(), Deadlines{2.0, 5.0});
  std::vector<std::byte> big(1024);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::byte>(i * 31 + 7);
  }
  for (int round = 0; round < 3; ++round) {
    client.send_frame(big);
    const auto back = client.recv_frame();
    ASSERT_TRUE(back.has_value()) << "round " << round;
    EXPECT_EQ(*back, big) << "round " << round;
  }
  client.close();
  proxy.stop();  // join the pumps: the last reply's count is final

  const auto stats = proxy.stats();
  EXPECT_EQ(stats.connections, 1u);
  // 3 frames x (1024 + 4-byte header) x both directions, in <=7-byte
  // writes: far more writes than frames.
  EXPECT_GE(stats.bytes_forwarded, 2u * 3u * 1028u);
  EXPECT_GE(stats.split_writes, stats.bytes_forwarded / 7);
  EXPECT_EQ(stats.resets, 0u);
}

TEST(WireChaosProxyTest, MidFrameResetCutsOnlyTheCondemnedConnection) {
  EchoServer echo;
  net::WireFaults faults;
  faults.reset_conn = 1;
  faults.reset_after_bytes = 10;  // inside the first 1 KiB frame's payload
  net::WireChaosProxy proxy("127.0.0.1", echo.port(), faults);

  {
    TcpStream doomed =
        TcpStream::connect("127.0.0.1", proxy.port(), Deadlines{2.0, 2.0});
    const std::vector<std::byte> big(1024, std::byte{0x5a});
    // The send may already fail (RST can land before the local buffer
    // drains); if not, the echo reply never comes back.
    try {
      doomed.send_frame(big);
      const auto back = doomed.recv_frame();
      EXPECT_FALSE(back.has_value());
    } catch (const NetError&) {
    }
  }

  // Connection #2 is untouched: the relay still works end to end.
  TcpStream fresh =
      TcpStream::connect("127.0.0.1", proxy.port(), Deadlines{2.0, 2.0});
  fresh.send_frame(bytes_of("alive"));
  const auto back = fresh.recv_frame();
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, bytes_of("alive"));

  const auto stats = proxy.stats();
  EXPECT_EQ(stats.resets, 1u);
  EXPECT_EQ(stats.connections, 2u);
}

}  // namespace
