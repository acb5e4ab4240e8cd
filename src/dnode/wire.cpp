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
    case MsgType::kReplayReq: return "replay-req";
    case MsgType::kDepRecord: return "dep-record";
    case MsgType::kRollPoison: return "roll-poison";
    case MsgType::kPoison: return "poison";
    case MsgType::kCommitDischarge: return "commit-discharge";
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

std::vector<std::byte> encode_replay_req(std::uint32_t owner,
                                         std::uint32_t requester,
                                         std::int32_t tag) {
  Writer w = begin(MsgType::kReplayReq);
  w.u32(owner);
  w.u32(requester);
  w.i32(tag);
  return finish(w);
}

std::vector<std::byte> encode_dep_record(std::uint32_t sender,
                                         std::uint32_t sender_level,
                                         std::uint32_t receiver,
                                         std::uint32_t receiver_level,
                                         std::uint64_t epoch,
                                         std::uint64_t commit_seq) {
  Writer w = begin(MsgType::kDepRecord);
  w.u32(sender);
  w.u32(sender_level);
  w.u32(receiver);
  w.u32(receiver_level);
  w.u64(epoch);
  w.u64(commit_seq);
  return finish(w);
}

std::vector<std::byte> encode_roll_poison(std::uint32_t rank,
                                          std::uint32_t level,
                                          std::uint64_t epoch) {
  Writer w = begin(MsgType::kRollPoison);
  w.u32(rank);
  w.u32(level);
  w.u64(epoch);
  return finish(w);
}

std::vector<std::byte> encode_poison(std::uint32_t rank) {
  Writer w = begin(MsgType::kPoison);
  w.u32(rank);
  return finish(w);
}

std::vector<std::byte> encode_commit_discharge(std::uint32_t rank) {
  Writer w = begin(MsgType::kCommitDischarge);
  w.u32(rank);
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
                                        std::uint64_t commit_seq) {
  Writer w = begin(MsgType::kResurrect);
  w.u32(rank);
  w.u64(commit_seq);
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

std::vector<std::byte> encode_result(const Msg& r) {
  Writer w = begin(MsgType::kResult);
  w.u32(r.rank);
  w.u8(r.result_kind);
  w.i64(r.exit_code);
  w.u8(r.has_reported ? 1 : 0);
  w.f64(r.reported);
  w.str(r.error);
  w.str(r.output);
  w.u64(r.instructions);
  w.u64(r.speculates);
  w.u64(r.commits);
  w.u64(r.rollbacks);
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
    w.u64(e.commit_seq);
  }
  return finish(w);
}

std::vector<std::byte> encode_data_payload(const DataHeader& header,
                                           std::span<const std::byte> values) {
  Writer w;
  w.u32(header.spec_level);
  w.u64(header.epoch);
  w.u64(header.commit_seq);
  w.u64(header.outer_rollbacks);
  w.u32(header.count);
  w.bytes(values);
  return w.take();
}

DataHeader decode_data_header(std::span<const std::byte> payload) {
  Reader r(payload);
  DataHeader h;
  h.spec_level = r.u32();
  h.epoch = r.u64();
  h.commit_seq = r.u64();
  h.outer_rollbacks = r.u64();
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
      case MsgType::kReplayReq:
        m.owner = r.u32();
        m.requester = r.u32();
        m.tag = r.i32();
        break;
      case MsgType::kDepRecord:
        m.sender = r.u32();
        m.sender_level = r.u32();
        m.receiver = r.u32();
        m.receiver_level = r.u32();
        m.epoch = r.u64();
        m.commit_seq = r.u64();
        break;
      case MsgType::kRollPoison:
        m.rank = r.u32();
        m.level = r.u32();
        m.epoch = r.u64();
        break;
      case MsgType::kResurrect:
        m.rank = r.u32();
        m.commit_seq = r.u64();
        break;
      case MsgType::kPoison:
      case MsgType::kCommitDischarge:
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
        m.result_kind = r.u8();
        m.exit_code = r.i64();
        m.has_reported = r.u8() != 0;
        m.reported = r.f64();
        m.error = r.str();
        m.output = r.str();
        m.instructions = r.u64();
        m.speculates = r.u64();
        m.commits = r.u64();
        m.rollbacks = r.u64();
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
          e.commit_seq = r.u64();
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
