#include "core/protocol.hpp"

namespace dsud {

void wire::putRect(ByteWriter& w, const Rect& rect) {
  w.putU8(static_cast<std::uint8_t>(rect.dims()));
  for (std::size_t j = 0; j < rect.dims(); ++j) w.putF64(rect.lo(j));
  for (std::size_t j = 0; j < rect.dims(); ++j) w.putF64(rect.hi(j));
}

Rect wire::getRect(ByteReader& r) {
  const std::uint8_t dims = r.getU8();
  if (dims == 0 || dims > kMaxDims) {
    throw SerializeError("wire: rect dims out of range");
  }
  std::array<double, kMaxDims> lo{};
  std::array<double, kMaxDims> hi{};
  for (std::size_t j = 0; j < dims; ++j) lo[j] = r.getF64();
  for (std::size_t j = 0; j < dims; ++j) hi[j] = r.getF64();
  Rect rect(dims);
  rect.expand(std::span<const double>(lo.data(), dims));
  rect.expand(std::span<const double>(hi.data(), dims));
  return rect;
}

}  // namespace dsud
