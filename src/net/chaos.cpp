#include "net/chaos.hpp"

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <vector>

#include "support/error.hpp"
#include "support/log.hpp"

namespace mojave::net {

/// One relayed connection: the two streams plus its own forwarded-byte
/// counter (the reset threshold is per connection, not global).
struct WireChaosProxy::Pipe {
  TcpStream client;
  TcpStream upstream;
  std::atomic<std::uint64_t> forwarded{0};

  /// Half-close both sockets; any pump blocked in recv() unblocks, and a
  /// peer mid-frame sees the stream die there. SO_LINGER(0) makes the
  /// eventual close abortive (RST, not a tidy FIN) — a genuine reset.
  void cut(bool abortive) {
    if (abortive) {
      const struct linger lg {1, 0};
      ::setsockopt(client.fd(), SOL_SOCKET, SO_LINGER, &lg, sizeof lg);
      ::setsockopt(upstream.fd(), SOL_SOCKET, SO_LINGER, &lg, sizeof lg);
    }
    client.shutdown();
    upstream.shutdown();
  }
};

WireChaosProxy::WireChaosProxy(std::string upstream_host,
                               std::uint16_t upstream_port, WireFaults faults)
    : upstream_host_(std::move(upstream_host)),
      upstream_port_(upstream_port),
      faults_(std::move(faults)),
      listener_(0),
      rng_(faults_.seed) {
  accept_thread_ = std::thread([this] { accept_loop(); });
}

WireChaosProxy::~WireChaosProxy() { stop(); }

void WireChaosProxy::stop() {
  if (stopping_.exchange(true)) return;
  listener_.shutdown();
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& p : pipes_) p->cut(false);
  }
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
}

WireStats WireChaosProxy::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

bool WireChaosProxy::condemn_frame(bool to_upstream) {
  std::lock_guard<std::mutex> lock(mu_);
  bool drop = faults_.drop_frame > 0 && rng_.chance(faults_.drop_frame);
  if (!to_upstream) {
    drop = faults_.drop_reply_frames.count(++replies_seen_) != 0 || drop;
  }
  if (drop) ++stats_.frames_dropped;
  return drop;
}

void WireChaosProxy::accept_loop() {
  while (!stopping_.load()) {
    auto client = listener_.accept();
    if (!client.has_value()) break;
    auto pipe = std::make_shared<Pipe>();
    pipe->client = std::move(*client);
    try {
      pipe->upstream = TcpStream::connect(upstream_host_, upstream_port_,
                                          Deadlines{5.0, 0.0});
    } catch (const NetError& e) {
      MOJAVE_LOG(kDebug, "chaos") << "wire upstream dial failed: " << e.what();
      continue;
    }
    std::uint64_t conn_id = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      conn_id = ++stats_.connections;
      pipes_.push_back(pipe);
      workers_.emplace_back([this, pipe, conn_id] {
        pump(pipe, /*to_upstream=*/true, conn_id);
      });
      workers_.emplace_back([this, pipe, conn_id] {
        pump(pipe, /*to_upstream=*/false, conn_id);
      });
    }
  }
}

void WireChaosProxy::pump(const std::shared_ptr<Pipe>& pipe, bool to_upstream,
                          std::uint64_t conn_id) {
  const int from = to_upstream ? pipe->client.fd() : pipe->upstream.fd();
  const int to = to_upstream ? pipe->upstream.fd() : pipe->client.fd();

  // Bandwidth-cap pacing state: bytes this pump has emitted vs. the time
  // they were "entitled" to take at the configured rate.
  const auto pace_start = std::chrono::steady_clock::now();
  std::uint64_t paced_bytes = 0;

  // Push `len` bytes through the split / reset / bandwidth machinery.
  // Returns false when the pipe was cut (reset fault or send failure);
  // the caller must return immediately.
  auto forward = [&](const std::byte* data, std::size_t len) -> bool {
    std::size_t off = 0;
    while (off < len) {
      std::size_t chunk = faults_.split_bytes > 0
                              ? std::min(faults_.split_bytes, len - off)
                              : len - off;
      bool do_reset = false;
      if (conn_id == faults_.reset_conn) {
        std::lock_guard<std::mutex> lock(mu_);
        const std::uint64_t sent = pipe->forwarded.load();
        if (!reset_done_ && sent + chunk >= faults_.reset_after_bytes) {
          // Truncate this write so the cut lands exactly at the
          // threshold — with frames longer than it, mid-frame.
          chunk = faults_.reset_after_bytes > sent
                      ? static_cast<std::size_t>(faults_.reset_after_bytes -
                                                 sent)
                      : 0;
          reset_done_ = true;
          do_reset = true;
          ++stats_.resets;
        }
      }
      if (faults_.bandwidth_bytes_per_sec > 0 && chunk > 0) {
        // Sleep until the cumulative byte count is allowed at the cap.
        // Per-direction (each pump paces itself), like a duplex link.
        paced_bytes += chunk;
        const double entitled =
            static_cast<double>(paced_bytes) / faults_.bandwidth_bytes_per_sec;
        const double elapsed =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          pace_start)
                .count();
        if (entitled > elapsed) {
          std::this_thread::sleep_for(
              std::chrono::duration<double>(entitled - elapsed));
          std::lock_guard<std::mutex> lock(mu_);
          ++stats_.throttle_waits;
        }
      }
      if (chunk > 0 &&
          ::send(to, data + off, chunk, MSG_NOSIGNAL) !=
              static_cast<ssize_t>(chunk)) {
        pipe->cut(false);
        return false;
      }
      pipe->forwarded.fetch_add(chunk);
      {
        std::lock_guard<std::mutex> lock(mu_);
        stats_.bytes_forwarded += chunk;
        if (faults_.split_bytes > 0) ++stats_.split_writes;
      }
      if (do_reset) {
        MOJAVE_LOG(kDebug, "chaos")
            << "wire reset on conn " << conn_id << " after "
            << pipe->forwarded.load() << " bytes";
        pipe->cut(true);
        return false;
      }
      off += chunk;
    }
    return true;
  };

  // Frame state: with reordering or drops on, the byte stream is parsed
  // into u32(LE)-length-prefixed frames. A dropped frame cuts the
  // connection; every Nth surviving frame is held back and emitted after
  // its successor.
  bool frame_mode = faults_.reorder_every_n > 0 || faults_.drop_frame > 0 ||
                    !faults_.drop_reply_frames.empty();
  std::vector<std::byte> inbuf;
  std::vector<std::byte> held;
  std::uint64_t frames_seen = 0;
  constexpr std::uint32_t kSaneFrameBytes = 64u << 20;
  constexpr int kMaxHoldMs = 5;

  std::byte buf[4096];
  while (!stopping_.load()) {
    if (!held.empty()) {
      // A held frame waits for its successor only briefly: on a quiet
      // connection (a lone control frame) it would otherwise wait forever,
      // a delay no real path imposes.
      pollfd pfd{from, POLLIN, 0};
      if (::poll(&pfd, 1, kMaxHoldMs) == 0) {
        if (!forward(held.data(), held.size())) return;
        held.clear();
        continue;
      }
    }
    const ssize_t n = ::recv(from, buf, sizeof buf, 0);
    if (n <= 0) break;
    if (faults_.delay_seconds > 0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(faults_.delay_seconds));
    }
    if (!frame_mode) {
      if (!forward(buf, static_cast<std::size_t>(n))) return;
      continue;
    }
    inbuf.insert(inbuf.end(), buf, buf + n);
    while (frame_mode && inbuf.size() >= 4) {
      std::uint32_t len = 0;
      std::memcpy(&len, inbuf.data(), 4);
      if (len > kSaneFrameBytes) {
        // Not the framed wire protocol after all — degrade to a raw
        // relay instead of wedging on a bogus length.
        frame_mode = false;
        if (!held.empty() && !forward(held.data(), held.size())) return;
        held.clear();
        break;
      }
      const std::size_t total = 4 + static_cast<std::size_t>(len);
      if (inbuf.size() < total) break;
      std::vector<std::byte> frame(
          inbuf.begin(), inbuf.begin() + static_cast<std::ptrdiff_t>(total));
      inbuf.erase(inbuf.begin(),
                  inbuf.begin() + static_cast<std::ptrdiff_t>(total));
      if (condemn_frame(to_upstream)) {
        MOJAVE_LOG(kDebug, "chaos") << "dropped a frame on conn " << conn_id;
        pipe->cut(false);
        return;
      }
      ++frames_seen;
      if (held.empty() && faults_.reorder_every_n > 0 &&
          frames_seen % faults_.reorder_every_n == 0) {
        held = std::move(frame);  // swap with the next frame
        continue;
      }
      if (!forward(frame.data(), frame.size())) return;
      if (!held.empty()) {
        if (!forward(held.data(), held.size())) return;
        held.clear();
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.frames_reordered;
      }
    }
    if (!frame_mode && !inbuf.empty()) {
      if (!forward(inbuf.data(), inbuf.size())) return;
      inbuf.clear();
    }
  }
  // EOF with a frame still held: it has no successor to swap with, so
  // release it unswapped rather than swallow it.
  if (!held.empty()) forward(held.data(), held.size());
  pipe->cut(false);
}

}  // namespace mojave::net
