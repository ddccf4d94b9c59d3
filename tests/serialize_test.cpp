#include "common/serialize.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace dsud {
namespace {

TEST(SerializeTest, PrimitiveRoundTrip) {
  ByteWriter w;
  w.putU8(0xab);
  w.putU32(0xdeadbeef);
  w.putU64(0x0123456789abcdefULL);
  w.putF64(-1234.5678);
  w.putBool(true);
  w.putBool(false);

  ByteReader r(w.bytes());
  EXPECT_EQ(r.getU8(), 0xab);
  EXPECT_EQ(r.getU32(), 0xdeadbeefu);
  EXPECT_EQ(r.getU64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.getF64(), -1234.5678);
  EXPECT_TRUE(r.getBool());
  EXPECT_FALSE(r.getBool());
  r.expectEnd();
}

TEST(SerializeTest, LittleEndianLayout) {
  ByteWriter w;
  w.putU32(0x01020304);
  const auto bytes = w.bytes();
  EXPECT_EQ(std::to_integer<int>(bytes[0]), 0x04);
  EXPECT_EQ(std::to_integer<int>(bytes[1]), 0x03);
  EXPECT_EQ(std::to_integer<int>(bytes[2]), 0x02);
  EXPECT_EQ(std::to_integer<int>(bytes[3]), 0x01);
}

TEST(SerializeTest, SpecialDoublesSurvive) {
  ByteWriter w;
  w.putF64(std::numeric_limits<double>::infinity());
  w.putF64(-0.0);
  w.putF64(std::numeric_limits<double>::quiet_NaN());
  w.putF64(std::numeric_limits<double>::denorm_min());

  ByteReader r(w.bytes());
  EXPECT_TRUE(std::isinf(r.getF64()));
  const double negZero = r.getF64();
  EXPECT_EQ(negZero, 0.0);
  EXPECT_TRUE(std::signbit(negZero));
  EXPECT_TRUE(std::isnan(r.getF64()));
  EXPECT_EQ(r.getF64(), std::numeric_limits<double>::denorm_min());
}

TEST(SerializeTest, StringRoundTrip) {
  ByteWriter w;
  w.putString("hello \0 world");
  w.putString("");
  ByteReader r(w.bytes());
  EXPECT_EQ(r.getString(), "hello ");  // string_view from literal stops at NUL
  EXPECT_EQ(r.getString(), "");
}

TEST(SerializeTest, UnderflowThrows) {
  ByteWriter w;
  w.putU8(7);
  w.putU8(0);
  ByteReader r(w.bytes());
  EXPECT_THROW(r.getU32(), SerializeError);
}

TEST(SerializeTest, TruncatedStringThrows) {
  ByteWriter w;
  w.putU32(50);
  w.putU8('x');
  ByteReader r(w.bytes());
  EXPECT_THROW(r.getString(), SerializeError);
}

TEST(SerializeTest, ExpectEndRejectsTrailingBytes) {
  ByteWriter w;
  w.putU8(1);
  w.putU8(2);
  ByteReader r(w.bytes());
  r.getU8();
  EXPECT_THROW(r.expectEnd(), SerializeError);
  r.getU8();
  EXPECT_NO_THROW(r.expectEnd());
}

TEST(SerializeTest, RemainingTracksPosition) {
  ByteWriter w;
  w.putU64(0);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.remaining(), 8u);
  r.getU32();
  EXPECT_EQ(r.remaining(), 4u);
  EXPECT_FALSE(r.atEnd());
  r.getU32();
  EXPECT_TRUE(r.atEnd());
}

TEST(SerializeTest, ClearResetsWriter) {
  ByteWriter w;
  w.putU64(1);
  w.clear();
  EXPECT_EQ(w.size(), 0u);
}

}  // namespace
}  // namespace dsud
