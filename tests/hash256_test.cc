#include "crypto/hash256.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace sep2p::crypto {
namespace {

TEST(Hash256Test, ZeroIsAllZero) {
  Hash256 z = Hash256::Zero();
  for (uint8_t b : z.bytes()) EXPECT_EQ(b, 0);
  EXPECT_EQ(z.ring_pos(), static_cast<RingPos>(0));
}

TEST(Hash256Test, OfHashesContent) {
  Hash256 a = Hash256::Of("hello");
  Hash256 b = Hash256::Of("hello");
  Hash256 c = Hash256::Of("world");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(Hash256Test, XorProperties) {
  Hash256 a = Hash256::Of("a"), b = Hash256::Of("b");
  EXPECT_EQ(a.Xor(a), Hash256::Zero());
  EXPECT_EQ(a.Xor(b), b.Xor(a));
  EXPECT_EQ(a.Xor(Hash256::Zero()), a);
  EXPECT_EQ(a.Xor(b).Xor(b), a);
}

TEST(Hash256Test, RingPosUsesTop128BitsBigEndian) {
  Hash256 h;
  h.bytes()[0] = 0x80;  // most significant bit of the ring position
  EXPECT_EQ(h.ring_pos(), static_cast<RingPos>(1) << 127);
  Hash256 low;
  low.bytes()[15] = 0x01;  // least significant ring byte
  EXPECT_EQ(low.ring_pos(), static_cast<RingPos>(1));
  Hash256 ignored;
  ignored.bytes()[16] = 0xff;  // beyond the geometric prefix
  EXPECT_EQ(ignored.ring_pos(), static_cast<RingPos>(0));
}

// Every byte of the prefix at once, against SHA-256("abc"): a
// position assembled from two swapped halves, or from bytes in the
// wrong order within a half, reads differently.
TEST(Hash256Test, RingPosOfKnownDigest) {
  const RingPos expected =
      (static_cast<RingPos>(0xba7816bf8f01cfeaULL) << 64) |
      0x414140de5dae2223ULL;
  EXPECT_TRUE(Hash256::Of("abc").ring_pos() == expected);
}

TEST(Hash256Test, FromRingPosRoundTrips) {
  util::Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    RingPos pos = (static_cast<RingPos>(rng.NextUint64()) << 64) |
                  rng.NextUint64();
    EXPECT_EQ(Hash256::FromRingPos(pos).ring_pos(), pos);
  }
}

TEST(Hash256Test, HexFormatting) {
  Hash256 z = Hash256::Zero();
  EXPECT_EQ(z.ToHex(), std::string(64, '0'));
  EXPECT_EQ(z.ShortHex(), "00000000");
  EXPECT_EQ(Hash256::Of("abc").ToHex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Hash256Test, RehashChainsDiffer) {
  Hash256 h = Hash256::Of("seed");
  Hash256 h1 = h.Rehash();
  Hash256 h2 = h1.Rehash();
  EXPECT_NE(h, h1);
  EXPECT_NE(h1, h2);
  EXPECT_EQ(h.Rehash(), h1);  // deterministic
}

TEST(RingDistanceTest, ClockwiseWraps) {
  RingPos a = 10, b = 3;
  // From 10 clockwise to 3 wraps nearly the whole ring.
  EXPECT_EQ(ClockwiseDistance(b, a), static_cast<RingPos>(7));
  EXPECT_EQ(ClockwiseDistance(a, b), static_cast<RingPos>(0) - 7);
}

TEST(RingDistanceTest, MinimalDistanceSymmetric) {
  util::Rng rng(77);
  for (int i = 0; i < 200; ++i) {
    RingPos a = (static_cast<RingPos>(rng.NextUint64()) << 64) |
                rng.NextUint64();
    RingPos b = (static_cast<RingPos>(rng.NextUint64()) << 64) |
                rng.NextUint64();
    EXPECT_EQ(RingDistance(a, b), RingDistance(b, a));
    EXPECT_LE(RingDistance(a, b), static_cast<RingPos>(1) << 127);
    EXPECT_EQ(RingDistance(a, a), static_cast<RingPos>(0));
  }
}

TEST(RingDistanceTest, AntipodalIsHalfRing) {
  RingPos a = 0;
  RingPos b = static_cast<RingPos>(1) << 127;
  EXPECT_EQ(RingDistance(a, b), b);
}

}  // namespace
}  // namespace sep2p::crypto
