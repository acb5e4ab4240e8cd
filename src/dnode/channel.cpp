#include "dnode/channel.hpp"

#include <algorithm>
#include <string>

#include "support/common.hpp"

namespace mojave::dnode {

namespace {

void write_entry(Writer& w, const Entry& e) {
  w.u8(static_cast<std::uint8_t>(e.op));
  w.i32(e.tag);
  w.u64(e.h.incarnation);
  w.u64(e.h.seq);
  w.u64(e.h.spec_id);
  w.u32(e.h.count);
  w.u32(static_cast<std::uint32_t>(e.payload.size()));
  w.bytes(e.payload);
}

Entry read_entry(Reader& r) {
  Entry e;
  e.op = static_cast<ChannelOp>(r.u8());
  e.tag = r.i32();
  e.h.incarnation = r.u64();
  e.h.seq = r.u64();
  e.h.spec_id = r.u64();
  e.h.count = r.u32();
  const auto payload = r.bytes(r.u32());
  e.payload.assign(payload.begin(), payload.end());
  return e;
}

constexpr std::uint32_t kRankCheckpointMagic = 0x4b43524d;  // "MRCK"
constexpr std::uint32_t kRankCheckpointVersion = 1;
/// version u32, channel section size u64, magic u32.
constexpr std::size_t kTrailerBytes = 16;

}  // namespace

// --- Outbox -----------------------------------------------------------

void Outbox::append(std::uint32_t dst, Channel& c, ChannelOp op,
                    std::int32_t tag, std::uint64_t spec_id,
                    std::uint32_t count, std::span<const std::byte> values,
                    Sent& out) {
  if (restarting_ && !c.restarted) {
    c.restarted = true;
    append(dst, c, ChannelOp::kRestart, 0, 0, 0, {}, out);
  }
  Entry& e = c.log.emplace_back();
  e.op = op;
  e.tag = tag;
  e.h = DataHeader{incarnation_, c.next_seq++, spec_id, count};
  if (op == ChannelOp::kData) e.payload = encode_data_payload(e.h, values);
  out.emplace_back(dst, &e);
}

Outbox::Sent Outbox::put(std::uint32_t dst, ChannelOp op, std::int32_t tag,
                         std::uint64_t spec_id, std::uint32_t count,
                         std::span<const std::byte> values) {
  Sent out;
  Channel& c = ch_[dst];
  append(dst, c, op, tag, spec_id, count, values, out);
  if (op == ChannelOp::kData) c.spec_sent = std::max(c.spec_sent, spec_id);
  return out;
}

Outbox::Sent Outbox::rollback(std::uint64_t spec_id) {
  Sent out;
  for (auto& [dst, c] : ch_) {
    if (c.spec_sent >= spec_id) {
      append(dst, c, ChannelOp::kRollback, 0, spec_id, 0, {}, out);
    }
  }
  return out;
}

Outbox::Sent Outbox::commit(std::uint64_t durable_below, bool level_zero) {
  Sent out;
  for (auto& [dst, c] : ch_) {
    if (c.spec_sent == 0) continue;
    append(dst, c, ChannelOp::kCommit, 0, durable_below, 0, {}, out);
    c.last_commit = c.next_seq - 1;
    if (level_zero) c.spec_sent = 0;
  }
  return out;
}

Outbox::Commits Outbox::uncovered() const {
  Commits out;
  for (const auto& [dst, c] : ch_) {
    if (c.last_commit != 0 && c.last_commit >= c.landed_below) {
      out.emplace_back(dst, c.last_commit);
    }
  }
  return out;
}

Outbox::Sent Outbox::landed(const Commits& commits) {
  Sent out;
  for (const auto& [dst, seq] : commits) {
    Channel& c = ch_[dst];
    if (seq < c.landed_below) continue;
    c.landed_below = seq + 1;
    append(dst, c, ChannelOp::kLanded, 0, c.landed_below, 0, {}, out);
  }
  return out;
}

Outbox::Sent Outbox::from(std::uint32_t dst, Channel& c, std::uint64_t seq) {
  Sent out;
  for (const Entry& e : c.log) {
    // Every RESTART goes: a receiver past its seq still needs it to
    // accept what follows. That holds for an older incarnation's too: a
    // receiver restored from a checkpoint that outran this sender's may
    // have applied entries a dead incarnation numbered past it.
    if (e.h.seq >= seq || e.op == ChannelOp::kRestart) {
      out.emplace_back(dst, &e);
    }
  }
  return out;
}

Outbox::Sent Outbox::resend(std::uint32_t dst, std::uint64_t seq) {
  Channel& c = ch_[dst];
  if (restarting_ && !c.restarted) {
    // A new incarnation answers its first request with the RESTART that
    // tells the receiver where this incarnation's numbering begins.
    c.restarted = true;
    Sent restart;
    append(dst, c, ChannelOp::kRestart, 0, 0, 0, {}, restart);
  }
  return from(dst, c, seq);
}

void Outbox::defer(std::uint32_t dst, std::uint64_t seq) {
  Channel& c = ch_[dst];
  if (c.deferred == 0 || seq < c.deferred) c.deferred = seq;
}

Outbox::Sent Outbox::take_deferred(std::uint32_t dst) {
  const auto it = ch_.find(dst);
  if (it == ch_.end() || it->second.deferred == 0) return {};
  const std::uint64_t seq = std::exchange(it->second.deferred, 0);
  return from(dst, it->second, seq);
}

void Outbox::truncate(std::uint32_t dst, std::uint64_t seq) {
  // RESTARTs stay, one per incarnation: resend() always sends them.
  std::erase_if(ch_[dst].log, [&](const Entry& e) {
    return e.h.seq < seq && e.op != ChannelOp::kRestart;
  });
}

void Outbox::encode(Writer& w) const {
  w.u32(static_cast<std::uint32_t>(ch_.size()));
  for (const auto& [dst, c] : ch_) {
    w.u32(dst);
    w.u64(c.next_seq);
    w.u32(static_cast<std::uint32_t>(c.log.size()));
    for (const Entry& e : c.log) write_entry(w, e);
  }
}

void Outbox::decode(Reader& r) {
  const std::uint32_t n = r.u32();
  for (std::uint32_t i = 0; i < n; ++i) {
    Channel& c = ch_[r.u32()];
    c.next_seq = r.u64();
    const std::uint32_t entries = r.u32();
    for (std::uint32_t j = 0; j < entries; ++j) c.log.push_back(read_entry(r));
  }
}

// --- Inbox ------------------------------------------------------------

Inbox::Applied Inbox::receive(std::uint32_t src, Entry e) {
  Channel& c = ch_[src];
  Applied out;
  accept(c, std::move(e), out);
  while (!c.early.empty() && c.early.begin()->first <= c.next &&
         !needs_restart(c, c.early.begin()->second)) {
    auto node = c.early.extract(c.early.begin());
    accept(c, std::move(node.mapped()), out);
  }
  if (c.early.empty() && c.wanted.empty()) {
    c.resend_pending = false;
  } else if (!c.early.empty() && !c.resend_pending) {
    // A RESTART renumbered the channel under what was held early.
    c.resend_pending = true;
    out.gap = true;
  }
  return out;
}

bool Inbox::needs_restart(const Channel& c, const Entry& e) {
  // Launch incarnations (1) number from scratch; every later one opens
  // the channel with a RESTART that must be applied before its entries.
  return e.op != ChannelOp::kRestart &&
         e.h.incarnation > std::max<std::uint64_t>(c.inc, 1);
}

void Inbox::accept(Channel& c, Entry e, Applied& out) {
  const std::uint64_t s = e.h.seq;
  const std::uint64_t inc = e.h.incarnation;
  // Numbered past a newer incarnation's RESTART: a dead incarnation's
  // entry that its successor re-sends, if at all, on its own.
  if (inc < std::max<std::uint64_t>(c.inc, 1) && s >= c.cut) return;
  const bool restart = e.op == ChannelOp::kRestart && inc > c.inc;
  if (s < c.next && !restart && !needs_restart(c, e)) {
    // A duplicate, unless it is one the channel asked to get again.
    if (e.op == ChannelOp::kData && c.wanted.erase(s) != 0) {
      apply(c, std::move(e), out);
    }
    return;
  }
  if (s > c.next || needs_restart(c, e)) {
    auto [it, fresh] = c.early.try_emplace(s, std::move(e));
    if (!fresh && it->second.h.incarnation < inc) it->second = std::move(e);
    if (!c.resend_pending) {
      c.resend_pending = true;
      out.gap = true;
    }
    return;
  }
  apply(c, std::move(e), out);
}

void Inbox::apply(Channel& c, Entry e, Applied& out) {
  const std::uint64_t s = e.h.seq;
  if (s >= c.next) c.next = s + 1;
  const auto drop = [&](auto pred) {
    std::erase_if(c.held, [&](const Held& h) {
      if (!pred(h)) return false;
      out.poison = out.poison || (h.consumed && h.e.h.spec_id > 0);
      return true;
    });
  };
  switch (e.op) {
    case ChannelOp::kData:
      out.arrived.push_back(e.tag);
      c.held.push_back(Held{std::move(e)});
      break;
    case ChannelOp::kRollback:
      drop([&](const Held& h) {
        return h.e.h.incarnation == e.h.incarnation &&
               h.e.h.spec_id >= e.h.spec_id;
      });
      break;
    case ChannelOp::kCommit:
      c.commits.push_back(std::move(e));
      break;
    case ChannelOp::kLanded:
      while (!c.commits.empty() && c.commits.front().h.seq < e.h.spec_id) {
        make_durable(c, c.commits.front());
        c.commits.pop_front();
      }
      break;
    case ChannelOp::kRestart:
      // The new incarnation resumed from the checkpoint that numbered
      // this seq: whatever its predecessor sent from here on is void. A
      // speculative payload of it that was consumed poisons; a durable
      // one is re-sent by the new incarnation's re-execution. That
      // checkpoint landed, so the COMMITs it covers count.
      for (const Entry& k : c.commits) {
        if (k.h.seq < s) make_durable(c, k);
      }
      c.commits.clear();
      drop([&](const Held& h) { return h.e.h.seq >= s; });
      c.wanted.erase(c.wanted.lower_bound(s), c.wanted.end());
      std::erase_if(c.early, [&](const auto& kv) {
        return kv.second.h.incarnation < e.h.incarnation;
      });
      c.inc = e.h.incarnation;
      c.cut = s;
      c.next = s + 1;
      c.resend_pending = false;  // asked under the old numbering
      break;
  }
}

void Inbox::make_durable(Channel& c, const Entry& k) {
  for (Held& h : c.held) {
    if (h.e.h.incarnation == k.h.incarnation && h.e.h.seq < k.h.seq &&
        h.e.h.spec_id < k.h.spec_id) {
      h.e.h.spec_id = 0;
    }
  }
  std::erase_if(c.held, [](const Held& h) {
    return h.consumed && h.under == 0 && h.e.h.spec_id == 0;
  });
}

std::optional<std::vector<std::byte>> Inbox::consume(std::uint32_t src,
                                                     std::int32_t tag,
                                                     std::uint64_t spec_id) {
  const auto it = ch_.find(src);
  if (it == ch_.end()) return std::nullopt;
  std::deque<Held>& held = it->second.held;
  const auto h = std::find_if(held.begin(), held.end(), [&](const Held& x) {
    return !x.consumed && x.e.tag == tag;
  });
  if (h == held.end()) return std::nullopt;
  if (spec_id == 0 && h->e.h.spec_id == 0) {
    std::vector<std::byte> payload = std::move(h->e.payload);
    held.erase(h);
    return payload;
  }
  h->consumed = true;
  h->under = spec_id;
  return h->e.payload;
}

void Inbox::rollback(std::uint64_t spec_id) {
  for (auto& [src, c] : ch_) {
    for (Held& h : c.held) {
      if (h.consumed && h.under >= spec_id) h.consumed = false;
    }
  }
}

void Inbox::commit(std::uint64_t durable_below) {
  for (auto& [src, c] : ch_) {
    for (Held& h : c.held) {
      if (h.consumed && h.under < durable_below) h.under = 0;
    }
    std::erase_if(c.held, [](const Held& h) {
      return h.consumed && h.under == 0 && h.e.h.spec_id == 0;
    });
  }
}

bool Inbox::kill(std::uint32_t src) {
  const auto it = ch_.find(src);
  if (it == ch_.end()) return false;
  Channel& c = it->second;
  bool poison = false;
  std::erase_if(c.held, [&](const Held& h) {
    if (h.e.h.spec_id == 0) return false;
    // Void, unless its sender's checkpoint covers it after all: the next
    // incarnation re-sends it from its checkpointed log when asked.
    c.wanted.insert(h.e.h.seq);
    poison = poison || h.consumed;
    return true;
  });
  return poison;
}

std::set<std::uint64_t> Inbox::missing(const Channel& c) {
  std::set<std::uint64_t> seqs = c.wanted;
  for (const Held& h : c.held) {
    if (!h.consumed) seqs.insert(h.e.h.seq);
  }
  return seqs;
}

std::uint64_t Inbox::resend_from(std::uint32_t src) {
  Channel& c = ch_[src];
  c.resend_pending = true;
  return c.wanted.empty() ? c.next : std::min(*c.wanted.begin(), c.next);
}

std::uint64_t Inbox::next_seq(std::uint32_t src) const {
  const auto it = ch_.find(src);
  return it == ch_.end() ? 1 : it->second.next;
}

std::vector<std::pair<std::uint32_t, std::uint64_t>> Inbox::watermarks()
    const {
  std::vector<std::pair<std::uint32_t, std::uint64_t>> out;
  for (const auto& [src, c] : ch_) {
    const std::set<std::uint64_t> seqs = missing(c);  // all below next
    out.emplace_back(src, seqs.empty() ? c.next : *seqs.begin());
  }
  return out;
}

void Inbox::encode(Writer& w) const {
  w.u32(static_cast<std::uint32_t>(ch_.size()));
  for (const auto& [src, c] : ch_) {
    w.u32(src);
    w.u64(c.inc);
    w.u64(c.cut);
    w.u64(c.next);
    const std::set<std::uint64_t> seqs = missing(c);
    w.u32(static_cast<std::uint32_t>(seqs.size()));
    for (const std::uint64_t s : seqs) w.u64(s);
  }
}

void Inbox::decode(Reader& r) {
  const std::uint32_t n = r.u32();
  for (std::uint32_t i = 0; i < n; ++i) {
    Channel& c = ch_[r.u32()];
    c.inc = r.u64();
    c.cut = r.u64();
    c.next = r.u64();
    const std::uint32_t wanted = r.u32();
    for (std::uint32_t j = 0; j < wanted; ++j) c.wanted.insert(r.u64());
  }
}

// --- Rank checkpoints -------------------------------------------------

std::vector<std::byte> encode_rank_checkpoint(std::vector<std::byte> image,
                                              const Outbox& out,
                                              const Inbox& in) {
  const std::size_t image_bytes = image.size();
  Writer w(std::move(image));
  out.encode(w);
  in.encode(w);
  const std::size_t section = w.size() - image_bytes;
  w.u32(kRankCheckpointVersion);
  w.u64(section);
  w.u32(kRankCheckpointMagic);
  return w.take();
}

RankCheckpoint decode_rank_checkpoint(std::span<const std::byte> blob) {
  if (blob.size() < kTrailerBytes) throw ImageError("rank checkpoint too small");
  Reader trailer(blob.last(kTrailerBytes));
  const std::uint32_t version = trailer.u32();
  const std::uint64_t section = trailer.u64();
  if (trailer.u32() != kRankCheckpointMagic) {
    if (Reader(blob).u32() == kImageMagic) {
      throw ImageError(
          "rank checkpoint is a bare process image without its channels "
          "(an older build's checkpoint)");
    }
    throw ImageError("not a rank checkpoint: bad trailer magic");
  }
  if (version != kRankCheckpointVersion) {
    throw ImageError("rank checkpoint format version " +
                     std::to_string(version) +
                     " is not readable by this build (it reads version " +
                     std::to_string(kRankCheckpointVersion) + ")");
  }
  if (section > blob.size() - kTrailerBytes) {
    throw ImageError("rank checkpoint channel section overruns the blob");
  }
  const std::size_t image_bytes = blob.size() - kTrailerBytes - section;
  RankCheckpoint ck;
  ck.image = blob.first(image_bytes);
  try {
    Reader r(blob.subspan(image_bytes, section));
    ck.out.decode(r);
    ck.in.decode(r);
    if (!r.done()) throw ImageError("trailing bytes");
  } catch (const ImageError& e) {
    throw ImageError(
        std::string("rank checkpoint channel section does not decode: ") +
        e.what());
  }
  return ck;
}

}  // namespace mojave::dnode
