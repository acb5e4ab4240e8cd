#include "ctrl/wal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>

#include "obs/metrics.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"
#include "support/log.hpp"

namespace mojave::ctrl {

namespace {

constexpr std::size_t kFrameHeader = 4 + 8;  // body_len + fnv1a(body)
constexpr std::uint32_t kSegmentMagic = 0x4c41574d;  // "MWAL"
/// Version 1 segments had no header and logged the speculation join.
constexpr std::uint32_t kSegmentVersion = 2;
constexpr std::size_t kSegmentHeader = 4 + 4;

struct WalMetrics {
  obs::Counter& appends;
  obs::Counter& bytes;
  obs::Counter& fsyncs;
  obs::Counter& replayed;
  obs::Counter& sealed_off;
  obs::Counter& truncated;

  static WalMetrics& get() {
    auto& r = obs::MetricsRegistry::instance();
    static WalMetrics m{
        r.counter("ctrl.wal.appends"),    r.counter("ctrl.wal.bytes"),
        r.counter("ctrl.wal.fsyncs"),     r.counter("ctrl.wal.replayed"),
        r.counter("ctrl.wal.sealed_off"), r.counter("ctrl.wal.truncated"),
    };
    return m;
  }
};

std::string segment_name(std::uint64_t epoch) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "wal-%016llx.log",
                static_cast<unsigned long long>(epoch));
  return buf;
}

std::optional<std::uint64_t> segment_epoch(const std::filesystem::path& p) {
  const std::string name = p.filename().string();
  if (name.rfind("wal-", 0) != 0 || name.size() != 4 + 16 + 4 ||
      name.compare(name.size() - 4, 4, ".log") != 0) {
    return std::nullopt;
  }
  std::uint64_t epoch = 0;
  for (std::size_t i = 4; i < 4 + 16; ++i) {
    const char c = name[i];
    std::uint64_t digit = 0;
    if (c >= '0' && c <= '9') digit = static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f') digit = static_cast<std::uint64_t>(c - 'a' + 10);
    else return std::nullopt;
    epoch = (epoch << 4) | digit;
  }
  return epoch;
}

/// One segment fully parsed: whole records with their end offsets. A torn
/// or corrupt record ends the parse (everything after it is unreachable —
/// the writer was single-threaded and append-only).
struct ParsedSegment {
  std::uint64_t epoch = 0;
  std::vector<std::pair<WalRecord, std::uint64_t>> records;  // rec, end off
  std::uint64_t consumed = 0;  ///< byte offset after the last whole record
  bool torn = false;
};

void write_all(int fd, std::span<const std::byte> bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw Error(std::string("wal: append failed: ") + std::strerror(errno));
    }
    off += static_cast<std::size_t>(n);
  }
}

ParsedSegment parse_segment(const std::filesystem::path& path,
                            std::uint64_t epoch) {
  ParsedSegment seg;
  seg.epoch = epoch;
  std::ifstream in(path, std::ios::binary);
  if (!in) return seg;
  std::vector<char> raw((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  const auto data = std::as_bytes(std::span(raw.data(), raw.size()));
  if (data.size() < kSegmentHeader) {
    seg.torn = !data.empty();
    return seg;
  }
  Reader head(data.first(kSegmentHeader));
  const std::uint32_t version =
      head.u32() == kSegmentMagic ? head.u32() : 1;
  if (version != kSegmentVersion) {
    MOJAVE_LOG(kError, "ctrl")
        << "skipping WAL segment " << path.filename().string()
        << ": format version " << version
        << " is not readable by this build (it reads version "
        << kSegmentVersion << ")";
    return seg;
  }
  std::size_t pos = kSegmentHeader;
  seg.consumed = pos;
  while (pos + kFrameHeader <= data.size()) {
    Reader hdr(data.subspan(pos, kFrameHeader));
    const std::uint32_t body_len = hdr.u32();
    const std::uint64_t sum = hdr.u64();
    if (pos + kFrameHeader + body_len > data.size()) {
      seg.torn = true;  // torn tail: the record never fully landed
      break;
    }
    const auto body = data.subspan(pos + kFrameHeader, body_len);
    if (fnv1a(body) != sum) {
      seg.torn = true;  // corrupt tail: treat like a torn record
      break;
    }
    WalRecord rec;
    try {
      rec = WalRecord::decode_body(body);
    } catch (const ImageError&) {
      seg.torn = true;
      break;
    }
    pos += kFrameHeader + body_len;
    seg.records.emplace_back(std::move(rec),
                             static_cast<std::uint64_t>(pos));
    seg.consumed = pos;
  }
  if (pos != data.size()) seg.torn = true;  // partial header at the tail
  return seg;
}

}  // namespace

const char* wal_op_name(WalOp op) {
  switch (op) {
    case WalOp::kMeta: return "meta";
    case WalOp::kTakeover: return "takeover";
    case WalOp::kPlacement: return "placement";
    case WalOp::kAgentDown: return "agent-down";
    case WalOp::kResurrectGrant: return "resurrect-grant";
    case WalOp::kRankUp: return "rank-up";
    case WalOp::kRankResult: return "rank-result";
    case WalOp::kRunComplete: return "run-complete";
  }
  return "?";
}

void RankResult::encode(Writer& w) const {
  w.u8(result_kind);
  w.i64(exit_code);
  w.u8(has_reported ? 1 : 0);
  w.f64(reported);
  w.str(error);
  w.str(output);
  w.u64(instructions);
  w.u64(speculates);
  w.u64(commits);
  w.u64(rollbacks);
}

RankResult RankResult::decode(Reader& r) {
  RankResult res;
  res.result_kind = r.u8();
  res.exit_code = r.i64();
  res.has_reported = r.u8() != 0;
  res.reported = r.f64();
  res.error = r.str();
  res.output = r.str();
  res.instructions = r.u64();
  res.speculates = r.u64();
  res.commits = r.u64();
  res.rollbacks = r.u64();
  return res;
}

std::vector<std::byte> WalRecord::encode_body() const {
  Writer w;
  w.u8(static_cast<std::uint8_t>(op));
  w.u64(wal_epoch);
  switch (op) {
    case WalOp::kMeta:
      w.u32(num_ranks);
      w.u32(static_cast<std::uint32_t>(agents.size()));
      for (const AgentEndpoint& a : agents) {
        w.str(a.host);
        w.u16(a.port);
      }
      w.u64(max_instructions);
      w.f64(recv_timeout_seconds);
      break;
    case WalOp::kTakeover:
      w.u32(static_cast<std::uint32_t>(seals.size()));
      for (const SegmentSeal& s : seals) {
        w.u64(s.epoch);
        w.u64(s.bytes);
      }
      break;
    case WalOp::kPlacement:
      w.u32(rank);
      w.u32(agent);
      w.u8(alive ? 1 : 0);
      break;
    case WalOp::kAgentDown:
      w.u32(agent);
      break;
    case WalOp::kRankUp:
    case WalOp::kRunComplete:
      w.u32(rank);
      break;
    case WalOp::kResurrectGrant:
      w.u32(rank);
      w.u32(agent);
      break;
    case WalOp::kRankResult:
      w.u32(rank);
      result.encode(w);
      break;
  }
  return w.take();
}

WalRecord WalRecord::decode_body(std::span<const std::byte> body) {
  Reader r(body);
  WalRecord rec;
  rec.op = static_cast<WalOp>(r.u8());
  rec.wal_epoch = r.u64();
  switch (rec.op) {
    case WalOp::kMeta: {
      rec.num_ranks = r.u32();
      const std::uint32_t n = r.u32();
      for (std::uint32_t i = 0; i < n; ++i) {
        AgentEndpoint a;
        a.host = r.str();
        a.port = r.u16();
        rec.agents.push_back(std::move(a));
      }
      rec.max_instructions = r.u64();
      rec.recv_timeout_seconds = r.f64();
      break;
    }
    case WalOp::kTakeover: {
      const std::uint32_t n = r.u32();
      for (std::uint32_t i = 0; i < n; ++i) {
        SegmentSeal s;
        s.epoch = r.u64();
        s.bytes = r.u64();
        rec.seals.push_back(s);
      }
      break;
    }
    case WalOp::kPlacement:
      rec.rank = r.u32();
      rec.agent = r.u32();
      rec.alive = r.u8() != 0;
      break;
    case WalOp::kAgentDown:
      rec.agent = r.u32();
      break;
    case WalOp::kRankUp:
    case WalOp::kRunComplete:
      rec.rank = r.u32();
      break;
    case WalOp::kResurrectGrant:
      rec.rank = r.u32();
      rec.agent = r.u32();
      break;
    case WalOp::kRankResult:
      rec.rank = r.u32();
      rec.result = RankResult::decode(r);
      break;
    default:
      throw ImageError("wal: unknown record op");
  }
  if (!r.done()) throw ImageError("wal: trailing bytes in record body");
  return rec;
}

WalWriter::WalWriter(std::filesystem::path dir, std::uint64_t epoch)
    : epoch_(epoch) {
  std::filesystem::create_directories(dir);
  path_ = dir / segment_name(epoch);
  // O_APPEND: each record lands whole at the tail; a deposed writer with
  // an fd to an older segment cannot interleave into this one.
  fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
               0644);
  if (fd_ < 0) {
    throw Error("wal: cannot open segment " + path_.string() + ": " +
                std::strerror(errno));
  }
  if (::lseek(fd_, 0, SEEK_END) == 0) {
    Writer head;
    head.u32(kSegmentMagic);
    head.u32(kSegmentVersion);
    write_all(fd_, head.view());
  }
}

WalWriter::~WalWriter() { close(); }

void WalWriter::append(WalRecord rec) {
  if (fd_ < 0) throw Error("wal: append to closed segment");
  rec.wal_epoch = epoch_;
  const std::vector<std::byte> body = rec.encode_body();
  Writer frame;
  frame.u32(static_cast<std::uint32_t>(body.size()));
  frame.u64(fnv1a(body));
  frame.bytes(body);
  const std::vector<std::byte> bytes = frame.take();
  write_all(fd_, bytes);
  dirty_ = true;
  ++appended_;
  WalMetrics::get().appends.inc();
  WalMetrics::get().bytes.inc(bytes.size());
}

void WalWriter::flush() {
  if (fd_ < 0 || !dirty_) return;
  ::fsync(fd_);
  dirty_ = false;
  WalMetrics::get().fsyncs.inc();
}

void WalWriter::close() {
  if (fd_ < 0) return;
  flush();
  ::close(fd_);
  fd_ = -1;
}

std::vector<std::filesystem::path> wal_segments(
    const std::filesystem::path& dir) {
  std::vector<std::filesystem::path> out;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    if (segment_epoch(entry.path()).has_value()) out.push_back(entry.path());
  }
  // Epoch is zero-padded hex in the name: lexicographic = numeric order.
  std::sort(out.begin(), out.end());
  return out;
}

ReplayStats replay_wal(const std::filesystem::path& dir,
                       const std::function<void(const WalRecord&)>& apply) {
  ReplayStats stats;
  auto& m = WalMetrics::get();

  std::vector<ParsedSegment> segs;
  for (const std::filesystem::path& path : wal_segments(dir)) {
    const auto epoch = segment_epoch(path);
    segs.push_back(parse_segment(path, *epoch));
  }

  // Collect every seal: a kTakeover in segment E clamps segments < E to
  // the bytes the taking-over coordinator actually consumed. Seals chain
  // across repeated failovers; the tightest clamp wins.
  std::map<std::uint64_t, std::uint64_t> clamp;  // epoch -> byte limit
  for (const ParsedSegment& seg : segs) {
    for (const auto& [rec, end] : seg.records) {
      if (rec.op != WalOp::kTakeover) continue;
      for (const SegmentSeal& s : rec.seals) {
        if (s.epoch >= seg.epoch) continue;  // malformed seal; ignore
        const auto it = clamp.find(s.epoch);
        if (it == clamp.end() || s.bytes < it->second) clamp[s.epoch] = s.bytes;
      }
    }
  }

  for (const ParsedSegment& seg : segs) {
    ++stats.segments;
    if (seg.torn) {
      ++stats.truncated;
      m.truncated.inc();
    }
    const auto it = clamp.find(seg.epoch);
    const std::uint64_t limit =
        it == clamp.end() ? ~std::uint64_t{0} : it->second;
    std::uint64_t consumed = 0;
    for (const auto& [rec, end] : seg.records) {
      if (end > limit) {
        // A fenced zombie's append: written after a successor sealed
        // this segment. Reject it.
        ++stats.sealed_off;
        m.sealed_off.inc();
        continue;
      }
      consumed = end;
      if (rec.op == WalOp::kTakeover) continue;  // replayer-internal
      apply(rec);
      ++stats.records;
      m.replayed.inc();
    }
    stats.max_epoch = std::max(stats.max_epoch, seg.epoch);
    stats.consumed.push_back(SegmentSeal{seg.epoch, consumed});
  }
  if (stats.records > 0 || stats.sealed_off > 0) {
    MOJAVE_LOG(kInfo, "ctrl")
        << "wal replay: " << stats.records << " records from "
        << stats.segments << " segments (sealed-off " << stats.sealed_off
        << ", torn " << stats.truncated << ")";
  }
  return stats;
}

}  // namespace mojave::ctrl
