#include "dht/region.h"

#include <gtest/gtest.h>

#include <cmath>

#include "dht/node_id.h"
#include "util/rng.h"

namespace sep2p::dht {
namespace {

TEST(WidthFromFractionTest, KnownValues) {
  EXPECT_EQ(WidthFromFraction(0.0), static_cast<RingPos>(0));
  EXPECT_EQ(WidthFromFraction(0.5), static_cast<RingPos>(1) << 127);
  EXPECT_EQ(WidthFromFraction(0.25), static_cast<RingPos>(1) << 126);
  EXPECT_EQ(WidthFromFraction(1.0), ~static_cast<RingPos>(0));
}

TEST(WidthFromFractionTest, RoundTripsThroughFraction) {
  util::Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    double rs = std::pow(10.0, -12.0 * rng.NextDouble());
    double back = FractionFromWidth(WidthFromFraction(rs));
    EXPECT_NEAR(back / rs, 1.0, 1e-9) << "rs=" << rs;
  }
}

// A region size no one signs can arrive as NaN; it must not reach the
// integer cast, where it is undefined (x86 gives half the ring).
TEST(RegionTest, NanSizeIsEmpty) {
  const RingPos p = 12345;
  EXPECT_EQ(WidthFromFraction(std::nan("")), static_cast<RingPos>(0));
  Region r = Region::Centered(p, std::nan(""));
  EXPECT_EQ(r, Region::Centered(p, 0.0));
  EXPECT_EQ(r.half_width(), static_cast<RingPos>(0));
  EXPECT_FALSE(r.Contains(p + 1));
  EXPECT_FALSE(r.Contains(p - 1));
}

TEST(RegionTest, ContainsCenter) {
  Region r = Region::Centered(12345, 0.001);
  EXPECT_TRUE(r.Contains(static_cast<RingPos>(12345)));
}

TEST(RegionTest, SymmetricAroundCenter) {
  RingPos center = static_cast<RingPos>(1) << 100;
  Region r = Region::Centered(center, 0.01);
  RingPos half = r.half_width();
  EXPECT_TRUE(r.Contains(center + half));
  EXPECT_TRUE(r.Contains(center - half));
  EXPECT_FALSE(r.Contains(center + half + 1));
  EXPECT_FALSE(r.Contains(center - half - 1));
}

TEST(RegionTest, WrapsAroundZero) {
  // Region centered near 0 must contain points just below 2^128.
  Region r = Region::Centered(5, 0.001);
  RingPos wrapped = static_cast<RingPos>(0) - 10;  // 2^128 - 10
  EXPECT_TRUE(r.Contains(wrapped));
}

TEST(RegionTest, FullRingContainsEverything) {
  Region r = Region::Centered(0, 1.0);
  util::Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    RingPos p = (static_cast<RingPos>(rng.NextUint64()) << 64) |
                rng.NextUint64();
    EXPECT_TRUE(r.Contains(p));
  }
  EXPECT_DOUBLE_EQ(r.size(), 1.0);
}

TEST(RegionTest, SizeMatchesConstruction) {
  for (double rs : {1e-9, 1e-6, 1e-3, 0.1, 0.5}) {
    Region r = Region::Centered(777, rs);
    EXPECT_NEAR(r.size() / rs, 1.0, 1e-9) << "rs=" << rs;
  }
}

TEST(RegionTest, MembershipMatchesRingDistance) {
  util::Rng rng(7);
  Region r = Region::Centered(static_cast<RingPos>(1) << 90, 0.03);
  for (int i = 0; i < 1000; ++i) {
    RingPos p = (static_cast<RingPos>(rng.NextUint64()) << 64) |
                rng.NextUint64();
    bool expected = RingDistance(r.center(), p) <= r.half_width();
    EXPECT_EQ(r.Contains(p), expected);
  }
}

TEST(RegionTest, BeginEndSpanTheArc) {
  Region r = Region::Centered(1000000, 0.001);
  EXPECT_TRUE(r.Contains(r.begin()));
  EXPECT_TRUE(r.Contains(r.end()));
  EXPECT_EQ(ClockwiseDistance(r.begin(), r.end()),
            r.half_width() << 1);
}

}  // namespace
}  // namespace sep2p::dht
