#include "dnode/wire.hpp"

#include <atomic>

#include "support/hash.hpp"
#include "support/log.hpp"

namespace mojave::dnode {

namespace {

constexpr std::size_t kChecksumBytes = 8;

Writer begin(MsgType type) {
  Writer w;
  w.u32(kWireMagic);
  w.u8(static_cast<std::uint8_t>(type));
  return w;
}

std::vector<std::byte> finish(Writer& w) {
  std::vector<std::byte> frame = w.take();
  const std::uint64_t h = xxh64(frame);
  for (std::size_t i = 0; i < kChecksumBytes; ++i) {
    frame.push_back(std::byte{static_cast<std::uint8_t>(h >> (8 * i))});
  }
  return frame;
}

}  // namespace

const char* msg_type_name(MsgType t) {
  switch (t) {
    case MsgType::kHello: return "hello";
    case MsgType::kConfig: return "config";
    case MsgType::kLaunch: return "launch";
    case MsgType::kPlacement: return "placement";
    case MsgType::kData: return "data";
    case MsgType::kSpecOutcome: return "spec-outcome";
    case MsgType::kResend: return "resend";
    case MsgType::kWatermark: return "watermark";
    case MsgType::kHeartbeat: return "heartbeat";
    case MsgType::kResurrect: return "resurrect";
    case MsgType::kYieldRank: return "yield-rank";
    case MsgType::kRankYielded: return "rank-yielded";
    case MsgType::kRankUp: return "rank-up";
    case MsgType::kResult: return "result";
    case MsgType::kForceRoll: return "force-roll";
    case MsgType::kShutdown: return "shutdown";
    case MsgType::kReAdopt: return "re-adopt";
    case MsgType::kReAdoptAck: return "re-adopt-ack";
  }
  return "?";
}

std::vector<std::byte> encode_hello(PeerKind kind, std::uint32_t agent,
                                    std::uint64_t coord_epoch) {
  Writer w = begin(MsgType::kHello);
  w.u8(static_cast<std::uint8_t>(kind));
  w.u32(agent);
  w.u64(coord_epoch);
  return finish(w);
}

std::vector<std::byte> encode_config(std::uint32_t your_agent,
                                     std::uint32_t num_ranks,
                                     const std::vector<AgentAddr>& agents,
                                     std::uint64_t max_instructions,
                                     double recv_timeout_seconds) {
  Writer w = begin(MsgType::kConfig);
  w.u32(your_agent);
  w.u32(num_ranks);
  w.u32(static_cast<std::uint32_t>(agents.size()));
  for (const AgentAddr& a : agents) {
    w.str(a.host);
    w.u16(a.port);
  }
  w.u64(max_instructions);
  w.f64(recv_timeout_seconds);
  return finish(w);
}

std::vector<std::byte> encode_launch(std::uint32_t rank,
                                     std::span<const std::byte> image) {
  Writer w = begin(MsgType::kLaunch);
  w.u32(rank);
  w.u32(static_cast<std::uint32_t>(image.size()));
  w.bytes(image);
  return finish(w);
}

std::vector<std::byte> encode_placement(
    const std::vector<PlacementEntry>& entries) {
  Writer w = begin(MsgType::kPlacement);
  w.u32(static_cast<std::uint32_t>(entries.size()));
  for (const PlacementEntry& e : entries) {
    w.u32(e.rank);
    w.u32(e.agent);
    w.u8(e.alive ? 1 : 0);
    w.u64(e.incarnation);
  }
  return finish(w);
}

std::vector<std::byte> encode_data(std::uint32_t src, std::uint32_t dst,
                                   std::int32_t tag,
                                   std::span<const std::byte> payload) {
  Writer w = begin(MsgType::kData);
  w.u32(src);
  w.u32(dst);
  w.i32(tag);
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.bytes(payload);
  return finish(w);
}

std::vector<std::byte> encode_spec_outcome(std::uint32_t src,
                                           std::uint32_t dst, ChannelOp op,
                                           std::uint64_t incarnation,
                                           std::uint64_t seq,
                                           std::uint64_t spec_id) {
  Writer w = begin(MsgType::kSpecOutcome);
  w.u32(src);
  w.u32(dst);
  w.u8(static_cast<std::uint8_t>(op));
  w.u64(incarnation);
  w.u64(seq);
  w.u64(spec_id);
  return finish(w);
}

std::vector<std::byte> encode_resend(std::uint32_t reply_agent,
                                     const std::vector<ResendEntry>& entries) {
  Writer w = begin(MsgType::kResend);
  w.u32(reply_agent);
  w.u32(static_cast<std::uint32_t>(entries.size()));
  for (const ResendEntry& e : entries) {
    w.u32(e.src);
    w.u32(e.dst);
    w.u64(e.seq);
  }
  return finish(w);
}

std::vector<std::byte> encode_watermark(std::uint32_t src, std::uint32_t dst,
                                        std::uint64_t seq) {
  Writer w = begin(MsgType::kWatermark);
  w.u32(src);
  w.u32(dst);
  w.u64(seq);
  return finish(w);
}

std::vector<std::byte> encode_heartbeat(std::uint32_t agent, double load,
                                        std::uint32_t live_ranks) {
  Writer w = begin(MsgType::kHeartbeat);
  w.u32(agent);
  w.f64(load);
  w.u32(live_ranks);
  return finish(w);
}

std::vector<std::byte> encode_resurrect(std::uint32_t rank,
                                        std::uint64_t incarnation) {
  Writer w = begin(MsgType::kResurrect);
  w.u32(rank);
  w.u64(incarnation);
  return finish(w);
}

std::vector<std::byte> encode_yield_rank(std::uint32_t rank) {
  Writer w = begin(MsgType::kYieldRank);
  w.u32(rank);
  return finish(w);
}

std::vector<std::byte> encode_rank_yielded(std::uint32_t rank, bool ok) {
  Writer w = begin(MsgType::kRankYielded);
  w.u32(rank);
  w.u8(ok ? 1 : 0);
  return finish(w);
}

std::vector<std::byte> encode_rank_up(std::uint32_t rank, bool ok) {
  Writer w = begin(MsgType::kRankUp);
  w.u32(rank);
  w.u8(ok ? 1 : 0);
  return finish(w);
}

std::vector<std::byte> encode_result(std::uint32_t rank,
                                     const ctrl::RankResult& result) {
  Writer w = begin(MsgType::kResult);
  w.u32(rank);
  result.encode(w);
  return finish(w);
}

std::vector<std::byte> encode_force_roll(std::uint32_t rank) {
  Writer w = begin(MsgType::kForceRoll);
  w.u32(rank);
  return finish(w);
}

std::vector<std::byte> encode_shutdown() {
  Writer w = begin(MsgType::kShutdown);
  return finish(w);
}

std::vector<std::byte> encode_re_adopt(std::uint64_t coord_epoch) {
  Writer w = begin(MsgType::kReAdopt);
  w.u64(coord_epoch);
  return finish(w);
}

std::vector<std::byte> encode_re_adopt_ack(
    std::uint32_t agent, const std::vector<CensusEntry>& census) {
  Writer w = begin(MsgType::kReAdoptAck);
  w.u32(agent);
  w.u32(static_cast<std::uint32_t>(census.size()));
  for (const CensusEntry& e : census) {
    w.u32(e.rank);
    w.u8(e.state);
  }
  return finish(w);
}

std::vector<std::byte> encode_data_payload(const DataHeader& header,
                                           std::span<const std::byte> values) {
  Writer w;
  w.u64(header.incarnation);
  w.u64(header.seq);
  w.u64(header.spec_id);
  w.u32(header.count);
  w.bytes(values);
  return w.take();
}

DataHeader decode_data_header(std::span<const std::byte> payload) {
  Reader r(payload);
  DataHeader h;
  h.incarnation = r.u64();
  h.seq = r.u64();
  h.spec_id = r.u64();
  h.count = r.u32();
  return h;
}

std::optional<Msg> decode(std::span<const std::byte> frame) {
  if (frame.size() < 4 + 1 + kChecksumBytes) return std::nullopt;
  if (const std::uint32_t magic = Reader(frame.first(4)).u32();
      magic != kWireMagic && (magic & 0xffffffu) == (kWireMagic & 0xffffffu)) {
    static std::atomic<bool> reported{false};
    if (!reported.exchange(true)) {
      MOJAVE_LOG(kError, "dnode")
          << "dropping DNO" << static_cast<char>(magic >> 24)
          << " frames: the peer runs a build with another wire format "
             "(this build speaks DNO"
          << static_cast<char>(kWireMagic >> 24) << ")";
    }
    return std::nullopt;
  }
  const std::size_t body = frame.size() - kChecksumBytes;
  std::uint64_t stored = 0;
  for (std::size_t i = 0; i < kChecksumBytes; ++i) {
    stored |= std::to_integer<std::uint64_t>(frame[body + i]) << (8 * i);
  }
  if (stored != xxh64(frame.first(body))) return std::nullopt;

  try {
    Reader r(frame.first(body));
    if (r.u32() != kWireMagic) return std::nullopt;
    Msg m;
    m.type = static_cast<MsgType>(r.u8());
    switch (m.type) {
      case MsgType::kHello:
        m.peer_kind = static_cast<PeerKind>(r.u8());
        m.agent = r.u32();
        m.coord_epoch = r.u64();
        break;
      case MsgType::kConfig: {
        m.agent = r.u32();
        m.num_ranks = r.u32();
        const std::uint32_t n = r.u32();
        for (std::uint32_t i = 0; i < n; ++i) {
          AgentAddr a;
          a.host = r.str();
          a.port = r.u16();
          m.agents.push_back(std::move(a));
        }
        m.max_instructions = r.u64();
        m.recv_timeout_seconds = r.f64();
        break;
      }
      case MsgType::kLaunch: {
        m.rank = r.u32();
        const std::uint32_t n = r.u32();
        const auto span = r.bytes(n);
        m.payload.assign(span.begin(), span.end());
        break;
      }
      case MsgType::kPlacement: {
        const std::uint32_t n = r.u32();
        for (std::uint32_t i = 0; i < n; ++i) {
          PlacementEntry e;
          e.rank = r.u32();
          e.agent = r.u32();
          e.alive = r.u8() != 0;
          e.incarnation = r.u64();
          m.placement.push_back(e);
        }
        break;
      }
      case MsgType::kData: {
        m.src = r.u32();
        m.dst = r.u32();
        m.tag = r.i32();
        const std::uint32_t n = r.u32();
        // A DATA body always starts with a DataHeader; a shorter one is
        // as corrupt as a bad checksum.
        if (n < kDataHeaderBytes) return std::nullopt;
        const auto span = r.bytes(n);
        m.payload.assign(span.begin(), span.end());
        break;
      }
      case MsgType::kSpecOutcome:
        m.src = r.u32();
        m.dst = r.u32();
        m.op = static_cast<ChannelOp>(r.u8());
        if (m.op == ChannelOp::kData || m.op > ChannelOp::kLanded) {
          return std::nullopt;
        }
        m.incarnation = r.u64();
        m.seq = r.u64();
        m.spec_id = r.u64();
        break;
      case MsgType::kResend: {
        m.agent = r.u32();
        const std::uint32_t n = r.u32();
        if (n > r.remaining() / 16) return std::nullopt;  // 16 bytes each
        m.resends.reserve(n);
        for (std::uint32_t i = 0; i < n; ++i) {
          ResendEntry e;
          e.src = r.u32();
          e.dst = r.u32();
          e.seq = r.u64();
          m.resends.push_back(e);
        }
        break;
      }
      case MsgType::kWatermark:
        m.src = r.u32();
        m.dst = r.u32();
        m.seq = r.u64();
        break;
      case MsgType::kResurrect:
        m.rank = r.u32();
        m.incarnation = r.u64();
        break;
      case MsgType::kYieldRank:
      case MsgType::kForceRoll:
        m.rank = r.u32();
        break;
      case MsgType::kHeartbeat:
        m.agent = r.u32();
        m.load = r.f64();
        m.live_ranks = r.u32();
        break;
      case MsgType::kRankYielded:
      case MsgType::kRankUp:
        m.rank = r.u32();
        m.ok = r.u8() != 0;
        break;
      case MsgType::kResult:
        m.rank = r.u32();
        m.result = ctrl::RankResult::decode(r);
        break;
      case MsgType::kShutdown:
        break;
      case MsgType::kReAdopt:
        m.coord_epoch = r.u64();
        break;
      case MsgType::kReAdoptAck: {
        m.agent = r.u32();
        const std::uint32_t n = r.u32();
        for (std::uint32_t i = 0; i < n; ++i) {
          CensusEntry e;
          e.rank = r.u32();
          e.state = r.u8();
          m.census.push_back(e);
        }
        break;
      }
      default:
        return std::nullopt;
    }
    return m;
  } catch (const ImageError&) {
    return std::nullopt;  // truncated body
  }
}

}  // namespace mojave::dnode
