#include "util/rng.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

namespace sep2p::util {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, BoundedValuesRespectBound) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextUint64(17), 17u);
  }
}

TEST(RngTest, BoundedValuesAreRoughlyUniform) {
  Rng rng(9);
  constexpr int kBuckets = 10;
  constexpr int kDraws = 100000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) ++counts[rng.NextUint64(kBuckets)];
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / kBuckets, 500);  // ~5 sigma
  }
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, NextBoolEdgeCases) {
  Rng rng(17);
  EXPECT_FALSE(rng.NextBool(0.0));
  EXPECT_TRUE(rng.NextBool(1.0));
  int heads = 0;
  for (int i = 0; i < 10000; ++i) heads += rng.NextBool(0.25);
  EXPECT_NEAR(heads, 2500, 250);
}

TEST(RngTest, FillBytesCoversAllPositions) {
  Rng rng(19);
  uint8_t buf[37] = {};
  // With 32 fills of 37 bytes, each byte position is 0 in all fills with
  // probability (1/256)^32 ~ never.
  bool any_nonzero[37] = {};
  for (int round = 0; round < 32; ++round) {
    rng.FillBytes(buf, sizeof(buf));
    for (size_t i = 0; i < sizeof(buf); ++i) {
      if (buf[i] != 0) any_nonzero[i] = true;
    }
  }
  for (bool nz : any_nonzero) EXPECT_TRUE(nz);
}

TEST(RngTest, SampleIndicesDistinctAndInRange) {
  Rng rng(23);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<size_t> sample = rng.SampleIndices(100, 10);
    EXPECT_EQ(sample.size(), 10u);
    std::set<size_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 10u);
    for (size_t s : sample) EXPECT_LT(s, 100u);
  }
}

TEST(RngTest, SampleIndicesFullPopulation) {
  Rng rng(29);
  std::vector<size_t> sample = rng.SampleIndices(5, 5);
  EXPECT_EQ(sample, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(31);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(v);
  std::multiset<int> a(v.begin(), v.end()), b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

TEST(RngTest, ShuffleIsRoughlyUniformOnFirstPosition) {
  Rng rng(37);
  std::map<int, int> first_counts;
  for (int t = 0; t < 6000; ++t) {
    std::vector<int> v{0, 1, 2};
    rng.Shuffle(v);
    ++first_counts[v[0]];
  }
  for (auto& [value, count] : first_counts) {
    EXPECT_NEAR(count, 2000, 200) << "value " << value;
  }
}

}  // namespace
}  // namespace sep2p::util
