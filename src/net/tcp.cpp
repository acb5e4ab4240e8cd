#include "net/tcp.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"
#include "support/stopwatch.hpp"

namespace mojave::net {

namespace {
[[noreturn]] void fail(const std::string& what) {
  throw NetError(what + ": " + std::strerror(errno));
}

/// Closes the fd unless release()d — keeps every error path leak-free.
class FdGuard {
 public:
  explicit FdGuard(int fd) : fd_(fd) {}
  ~FdGuard() {
    if (fd_ >= 0) ::close(fd_);
  }
  FdGuard(const FdGuard&) = delete;
  FdGuard& operator=(const FdGuard&) = delete;
  [[nodiscard]] int get() const { return fd_; }
  int release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }

 private:
  int fd_;
};

struct TcpMetrics {
  obs::Counter& frames_sent;
  obs::Counter& frames_recv;
  obs::Counter& bytes_sent;
  obs::Counter& bytes_recv;
  obs::Counter& timeouts;
  obs::Counter& connect_failures;
  obs::Histogram& send_us;
  obs::Histogram& connect_us;

  static TcpMetrics& get() {
    static TcpMetrics m{
        obs::MetricsRegistry::instance().counter("net.tcp.frames_sent"),
        obs::MetricsRegistry::instance().counter("net.tcp.frames_recv"),
        obs::MetricsRegistry::instance().counter("net.tcp.bytes_sent"),
        obs::MetricsRegistry::instance().counter("net.tcp.bytes_recv"),
        obs::MetricsRegistry::instance().counter("net.tcp.timeouts"),
        obs::MetricsRegistry::instance().counter("net.tcp.connect_failures"),
        obs::MetricsRegistry::instance().histogram("net.tcp.send_us"),
        obs::MetricsRegistry::instance().histogram("net.tcp.connect_us"),
    };
    return m;
  }
};

void set_socket_timeout(int fd, int which, double seconds) {
  timeval tv{};
  if (seconds > 0) {
    tv.tv_sec = static_cast<time_t>(seconds);
    tv.tv_usec = static_cast<suseconds_t>((seconds - static_cast<double>(
                                              tv.tv_sec)) * 1e6);
  }
  ::setsockopt(fd, SOL_SOCKET, which, &tv, sizeof(tv));
}

/// Resolve `host` to an IPv4 address. Numeric addresses never touch the
/// resolver; names go through getaddrinfo on a detached helper thread so a
/// hung resolver (no DNS in the environment, blackholed server) cannot
/// stall the caller past its connect deadline.
in_addr resolve_host(const std::string& host, double timeout_seconds) {
  in_addr numeric{};
  if (::inet_pton(AF_INET, host.c_str(), &numeric) == 1) return numeric;

  struct State {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    bool ok = false;
    in_addr addr{};
    int gai_err = 0;
  };
  auto st = std::make_shared<State>();
  std::thread([st, host] {
    addrinfo hints{};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo* res = nullptr;
    const int rc = ::getaddrinfo(host.c_str(), nullptr, &hints, &res);
    std::lock_guard<std::mutex> lock(st->mu);
    if (rc == 0 && res != nullptr) {
      st->ok = true;
      st->addr = reinterpret_cast<sockaddr_in*>(res->ai_addr)->sin_addr;
    } else {
      st->gai_err = rc;
    }
    if (res != nullptr) ::freeaddrinfo(res);
    st->done = true;
    st->cv.notify_all();
  }).detach();

  std::unique_lock<std::mutex> lock(st->mu);
  if (timeout_seconds > 0) {
    if (!st->cv.wait_for(lock, std::chrono::duration<double>(timeout_seconds),
                         [&] { return st->done; })) {
      throw NetTimeout("resolving " + host);
    }
  } else {
    st->cv.wait(lock, [&] { return st->done; });
  }
  if (!st->ok) {
    throw NetError("cannot resolve " + host + ": " +
                   ::gai_strerror(st->gai_err));
  }
  return st->addr;
}

/// Frames go out as header + payload sends; without TCP_NODELAY a reply
/// can wait out Nagle plus the peer's delayed ACK (~40 ms). Every stream,
/// dialed or accepted, sets it.
void set_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

TcpStream::~TcpStream() { close(); }

TcpStream& TcpStream::operator=(TcpStream&& o) noexcept {
  if (this != &o) {
    close();
    fd_ = o.fd_;
    o.fd_ = -1;
  }
  return *this;
}

void TcpStream::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void TcpStream::shutdown() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void TcpStream::set_io_deadline(double seconds) {
  if (!valid()) return;
  set_socket_timeout(fd_, SO_RCVTIMEO, seconds);
  set_socket_timeout(fd_, SO_SNDTIMEO, seconds);
}

void TcpStream::set_nonblocking() {
  if (!valid()) return;
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
}

TcpStream TcpStream::connect_begin(const std::string& host,
                                   std::uint16_t port) {
  const in_addr resolved = resolve_host(host, 0);
  FdGuard fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (fd.get() < 0) {
    TcpMetrics::get().connect_failures.inc();
    fail("socket");
  }
  const int flags = ::fcntl(fd.get(), F_GETFL, 0);
  ::fcntl(fd.get(), F_SETFL, flags | O_NONBLOCK);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr = resolved;
  const int rc =
      ::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    TcpMetrics::get().connect_failures.inc();
    fail("connect to " + host + ":" + std::to_string(port));
  }
  set_nodelay(fd.get());
  return TcpStream(fd.release());
}

bool TcpStream::connect_finished() {
  int err = 0;
  socklen_t len = sizeof(err);
  if (::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &err, &len) != 0) fail("SO_ERROR");
  if (err != 0) {
    TcpMetrics::get().connect_failures.inc();
    errno = err;
    fail("connect");
  }
  return true;
}

TcpStream TcpStream::connect(const std::string& host, std::uint16_t port,
                             const Deadlines& deadlines) {
  Stopwatch sw;
  const in_addr resolved = resolve_host(host, deadlines.connect_seconds);

  FdGuard fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (fd.get() < 0) {
    TcpMetrics::get().connect_failures.inc();
    fail("socket");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr = resolved;

  const std::string where = host + ":" + std::to_string(port);
  if (deadlines.connect_seconds > 0) {
    // Non-blocking connect bounded by poll: the classic pattern for a
    // handshake deadline (SYN retransmissions otherwise block for minutes).
    const int orig_flags = ::fcntl(fd.get(), F_GETFL, 0);
    ::fcntl(fd.get(), F_SETFL, orig_flags | O_NONBLOCK);
    int rc = ::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                       sizeof(addr));
    if (rc != 0 && errno != EINPROGRESS) {
      TcpMetrics::get().connect_failures.inc();
      fail("connect to " + where);
    }
    if (rc != 0) {
      const double remaining = deadlines.connect_seconds - sw.seconds();
      pollfd pfd{fd.get(), POLLOUT, 0};
      const int timeout_ms =
          remaining > 0 ? static_cast<int>(remaining * 1e3) + 1 : 0;
      const int n = ::poll(&pfd, 1, timeout_ms);
      if (n == 0) {
        TcpMetrics::get().timeouts.inc();
        TcpMetrics::get().connect_failures.inc();
        throw NetTimeout("connect to " + where);
      }
      if (n < 0) {
        TcpMetrics::get().connect_failures.inc();
        fail("poll for connect to " + where);
      }
      int err = 0;
      socklen_t len = sizeof(err);
      ::getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &err, &len);
      if (err != 0) {
        TcpMetrics::get().connect_failures.inc();
        errno = err;
        fail("connect to " + where);
      }
    }
    ::fcntl(fd.get(), F_SETFL, orig_flags);
  } else if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                       sizeof(addr)) != 0) {
    TcpMetrics::get().connect_failures.inc();
    fail("connect to " + where);
  }

  set_nodelay(fd.get());
  TcpMetrics::get().connect_us.record_seconds(sw.seconds());
  TcpStream stream(fd.release());
  stream.set_io_deadline(deadlines.io_seconds);
  return stream;
}

void TcpStream::send_all(const std::byte* data, std::size_t n) {
  std::size_t sent = 0;
  while (sent < n) {
    const ssize_t k = ::send(fd_, data + sent, n - sent, MSG_NOSIGNAL);
    if (k < 0 && errno == EINTR) continue;
    if (k < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      TcpMetrics::get().timeouts.inc();
      throw NetTimeout("send");
    }
    if (k <= 0) fail("send");
    sent += static_cast<std::size_t>(k);
  }
}

bool TcpStream::recv_all(std::byte* data, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t k = ::recv(fd_, data + got, n - got, 0);
    if (k == 0) return false;  // orderly close
    if (k < 0 && errno == EINTR) continue;
    if (k < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      TcpMetrics::get().timeouts.inc();
      throw NetTimeout("recv");
    }
    if (k < 0) fail("recv");
    got += static_cast<std::size_t>(k);
  }
  return true;
}

void TcpStream::send_frame(std::span<const std::byte> payload) {
  if (!valid()) throw NetError("send on closed stream");
  if (payload.size() > kMaxFrameBytes) throw NetError("frame too large");
  obs::ScopedSpan span("net", "tcp.send_frame");
  span.set_arg("bytes", payload.size());
  Stopwatch sw;
  std::byte header[4];
  const auto n = static_cast<std::uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) {
    header[i] = std::byte{static_cast<std::uint8_t>(n >> (8 * i))};
  }
  send_all(header, 4);
  if (!payload.empty()) send_all(payload.data(), payload.size());
  TcpMetrics& m = TcpMetrics::get();
  m.frames_sent.inc();
  m.bytes_sent.inc(payload.size() + 4);
  m.send_us.record_seconds(sw.seconds());
}

std::optional<std::vector<std::byte>> TcpStream::recv_frame() {
  if (!valid()) throw NetError("recv on closed stream");
  std::byte header[4];
  if (!recv_all(header, 4)) return std::nullopt;
  std::uint32_t n = 0;
  for (int i = 0; i < 4; ++i) {
    n |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(header[i]))
         << (8 * i);
  }
  if (n > kMaxFrameBytes) throw NetError("incoming frame too large");
  std::vector<std::byte> payload(n);
  if (n > 0 && !recv_all(payload.data(), n)) {
    throw NetError("peer closed mid-frame");
  }
  TcpMetrics& m = TcpMetrics::get();
  m.frames_recv.inc();
  m.bytes_recv.inc(payload.size() + 4);
  return payload;
}

TcpListener::TcpListener(std::uint16_t port)
    : TcpListener("127.0.0.1", port) {}

TcpListener::TcpListener(const std::string& bind_host, std::uint16_t port) {
  // Resolve synchronously: binds happen at startup, where a hung resolver
  // should fail loudly rather than be raced against a deadline.
  const in_addr bound = resolve_host(bind_host, 0);
  FdGuard fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (fd.get() < 0) fail("socket");
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr = bound;
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    fail("bind " + bind_host);
  }
  if (::listen(fd.get(), 16) != 0) fail("listen");
  socklen_t len = sizeof(addr);
  if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    fail("getsockname");
  }
  port_ = ntohs(addr.sin_port);
  fd_ = fd.release();
}

TcpListener::~TcpListener() {
  shutdown();
  const int fd = fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) ::close(fd);
}

std::optional<TcpStream> TcpListener::accept() {
  const int fd = fd_.load(std::memory_order_acquire);
  if (fd < 0 || shut_.load(std::memory_order_acquire)) return std::nullopt;
  while (true) {
    const int client = ::accept(fd, nullptr, nullptr);
    if (client >= 0) {
      // A connection that raced shutdown() is dropped, not served.
      if (shut_.load(std::memory_order_acquire)) {
        ::close(client);
        return std::nullopt;
      }
      set_nodelay(client);
      return TcpStream(client);
    }
    if (errno == EINTR) continue;
    if (errno == EBADF || errno == EINVAL) return std::nullopt;  // shut down
    fail("accept");
  }
}

void TcpListener::set_nonblocking() {
  const int fd = fd_.load(std::memory_order_acquire);
  if (fd < 0) return;
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

std::optional<TcpStream> TcpListener::try_accept() {
  const int fd = fd_.load(std::memory_order_acquire);
  if (fd < 0 || shut_.load(std::memory_order_acquire)) return std::nullopt;
  while (true) {
    const int client = ::accept(fd, nullptr, nullptr);
    if (client >= 0) {
      if (shut_.load(std::memory_order_acquire)) {
        ::close(client);
        return std::nullopt;
      }
      set_nodelay(client);
      return TcpStream(client);
    }
    if (errno == EINTR) continue;
    // EAGAIN (nothing pending), shutdown races, and transient per-
    // connection errors (ECONNABORTED) all mean "no connection now".
    return std::nullopt;
  }
}

void TcpListener::shutdown() {
  if (shut_.exchange(true, std::memory_order_acq_rel)) return;
  const int fd = fd_.load(std::memory_order_acquire);
  // Destroys the accept queue and wakes a blocked ::accept with EINVAL;
  // the fd stays reserved until ~TcpListener so its number cannot be
  // recycled under a thread still parked in ::accept.
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
}

}  // namespace mojave::net
