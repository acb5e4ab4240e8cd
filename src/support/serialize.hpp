// Canonical serialization streams.
//
// The paper requires "standard byte ordering and alignment rules on heap
// data" so state can migrate across heterogeneous architectures
// (Section 4.2.2). Every serialized integer is little-endian at a fixed
// width; floats use the IEEE-754 binary64 bit pattern. Readers validate
// bounds on every access so a corrupt or malicious image cannot crash the
// unpacking host.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "support/error.hpp"

namespace mojave {

/// Append-only byte sink producing the canonical wire format.
class Writer {
 public:
  Writer() = default;
  /// Append to `buf` (take() hands it back, grown).
  explicit Writer(std::vector<std::byte> buf) : buf_(std::move(buf)) {}

  void u8(std::uint8_t v) { buf_.push_back(std::byte{v}); }
  void u16(std::uint16_t v) { put_le(v); }
  void u32(std::uint32_t v) { put_le(v); }
  void u64(std::uint64_t v) { put_le(v); }
  void i32(std::int32_t v) { put_le(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { put_le(static_cast<std::uint64_t>(v)); }

  void f64(double v) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    put_le(bits);
  }

  /// Length-prefixed string (u32 length + raw bytes, no terminator).
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    bytes(std::as_bytes(std::span(s.data(), s.size())));
  }

  void bytes(std::span<const std::byte> b) {
    buf_.insert(buf_.end(), b.begin(), b.end());
  }

  /// Room for `n` more bytes without reallocating. For a fresh writer
  /// whose size is known up front: repeated calls defeat the vector's
  /// geometric growth.
  void reserve(std::size_t n) { buf_.reserve(buf_.size() + n); }

  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  [[nodiscard]] std::span<const std::byte> view() const { return buf_; }
  [[nodiscard]] std::vector<std::byte> take() { return std::move(buf_); }

  /// Patch a previously written u32 at `pos` (used for back-filled sizes).
  void patch_u32(std::size_t pos, std::uint32_t v) {
    if (pos + 4 > buf_.size()) throw ImageError("patch out of range");
    for (int i = 0; i < 4; ++i) {
      buf_[pos + static_cast<std::size_t>(i)] =
          std::byte{static_cast<std::uint8_t>(v >> (8 * i))};
    }
  }

 private:
  /// One resize per value, then byte stores at fixed shifts: the
  /// compiler folds them into a single little-endian store.
  template <typename T>
  void put_le(T v) {
    const std::size_t at = buf_.size();
    buf_.resize(at + sizeof(T));
    std::byte* p = buf_.data() + at;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      p[i] = std::byte{static_cast<std::uint8_t>(v >> (8 * i))};
    }
  }

  std::vector<std::byte> buf_;
};

/// Bounds-checked reader over a canonical byte stream.
class Reader {
 public:
  explicit Reader(std::span<const std::byte> data) : data_(data) {}

  [[nodiscard]] std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(data_[pos_++]);
  }
  [[nodiscard]] std::uint16_t u16() { return get_le<std::uint16_t>(); }
  [[nodiscard]] std::uint32_t u32() { return get_le<std::uint32_t>(); }
  [[nodiscard]] std::uint64_t u64() { return get_le<std::uint64_t>(); }
  [[nodiscard]] std::int32_t i32() {
    return static_cast<std::int32_t>(get_le<std::uint32_t>());
  }
  [[nodiscard]] std::int64_t i64() {
    return static_cast<std::int64_t>(get_le<std::uint64_t>());
  }

  [[nodiscard]] double f64() {
    const std::uint64_t bits = get_le<std::uint64_t>();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  [[nodiscard]] std::string str() {
    const std::uint32_t n = u32();
    need(n);
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  [[nodiscard]] std::span<const std::byte> bytes(std::size_t n) {
    need(n);
    auto s = data_.subspan(pos_, n);
    pos_ += n;
    return s;
  }

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool done() const { return pos_ == data_.size(); }
  [[nodiscard]] std::size_t position() const { return pos_; }

 private:
  void need(std::size_t n) const {
    if (data_.size() - pos_ < n) throw ImageError("truncated stream");
  }

  template <typename T>
  [[nodiscard]] T get_le() {
    need(sizeof(T));
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>(
          v | (static_cast<T>(static_cast<std::uint8_t>(data_[pos_ + i]))
               << (8 * i)));
    }
    pos_ += sizeof(T);
    return v;
  }

  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

}  // namespace mojave
