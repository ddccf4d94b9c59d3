#include "common/serialize.hpp"

namespace dsud {

void ByteWriter::putString(std::string_view s) {
  putU32(static_cast<std::uint32_t>(s.size()));
  const auto* data = reinterpret_cast<const std::byte*>(s.data());
  buf_.insert(buf_.end(), data, data + s.size());
}

std::uint8_t ByteReader::getU8() {
  require(1);
  return std::to_integer<std::uint8_t>(bytes_[pos_++]);
}

std::string ByteReader::getString() {
  const std::uint32_t n = getU32();
  require(n);
  std::string out(reinterpret_cast<const char*>(bytes_.data() + pos_), n);
  pos_ += n;
  return out;
}

void ByteReader::expectEnd() const {
  if (!atEnd()) {
    throw SerializeError("ByteReader: " + std::to_string(remaining()) +
                         " trailing bytes after message");
  }
}

void ByteReader::require(std::size_t n) const {
  if (remaining() < n) {
    throw SerializeError("ByteReader: truncated input (need " +
                         std::to_string(n) + " bytes, have " +
                         std::to_string(remaining()) + ")");
  }
}

}  // namespace dsud
