// Portable little-endian binary (de)serialisation.
//
// All protocol messages and wire formats in `src/net` are built on these two
// primitives.  Encoding is explicit little-endian byte packing (independent of
// host endianness), doubles travel as their IEEE-754 bit patterns, and the
// reader throws on underflow so malformed frames cannot cause reads past the
// buffer.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace dsud {

/// Error thrown by ByteReader when a frame is truncated or malformed.
class SerializeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Appends primitive values to a growable byte buffer.
class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(std::size_t reserveBytes) { buf_.reserve(reserveBytes); }

  void putU8(std::uint8_t v) { buf_.push_back(static_cast<std::byte>(v)); }

  void putU32(std::uint32_t v) { putLittleEndian(v); }
  void putU64(std::uint64_t v) { putLittleEndian(v); }

  void putF64(double v) { putU64(std::bit_cast<std::uint64_t>(v)); }

  void putBool(bool v) { putU8(v ? 1 : 0); }

  /// Length-prefixed UTF-8 string (u32 length).
  void putString(std::string_view s);

  std::span<const std::byte> bytes() const noexcept { return buf_; }
  std::size_t size() const noexcept { return buf_.size(); }
  std::vector<std::byte> take() && { return std::move(buf_); }
  void clear() noexcept { buf_.clear(); }

  /// Any fixed-width unsigned integer, little-endian.
  template <typename T>
  void putLittleEndian(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xff));
    }
  }

 private:
  std::vector<std::byte> buf_;
};

/// Reads primitive values from a byte span; throws SerializeError on
/// underflow or impossible lengths.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> bytes) : bytes_(bytes) {}

  std::uint8_t getU8();
  std::uint32_t getU32() { return getLittleEndian<std::uint32_t>(); }
  std::uint64_t getU64() { return getLittleEndian<std::uint64_t>(); }
  double getF64() { return std::bit_cast<double>(getU64()); }
  bool getBool() { return getU8() != 0; }

  std::string getString();

  std::size_t remaining() const noexcept { return bytes_.size() - pos_; }
  bool atEnd() const noexcept { return remaining() == 0; }

  /// Throws unless the whole buffer has been consumed; call at the end of a
  /// message decode to catch trailing garbage.
  void expectEnd() const;

  /// Any fixed-width unsigned integer, little-endian.
  template <typename T>
  T getLittleEndian() {
    require(sizeof(T));
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(std::to_integer<std::uint8_t>(bytes_[pos_ + i]))
           << (8 * i);
    }
    pos_ += sizeof(T);
    return v;
  }

 private:
  void require(std::size_t n) const;

  std::span<const std::byte> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace dsud
