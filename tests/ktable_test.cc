#include "core/ktable.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/probability.h"
#include "tests/test_util.h"

namespace sep2p::core {
namespace {

TEST(KTableTest, EntriesStartAtTwoAndIncrease) {
  KTable table = KTable::Build(100000, 1000, 1e-6);
  ASSERT_FALSE(table.entries().empty());
  EXPECT_EQ(table.entries().front().k, 2);
  double prev_rs = 0;
  int prev_k = 1;
  for (const KTable::Entry& entry : table.entries()) {
    EXPECT_EQ(entry.k, prev_k + 1);
    EXPECT_GT(entry.rs, prev_rs);
    prev_k = entry.k;
    prev_rs = entry.rs;
  }
}

TEST(KTableTest, EveryEntryHonorsAlpha) {
  KTable table = KTable::Build(100000, 1000, 1e-6);
  for (const KTable::Entry& entry : table.entries()) {
    EXPECT_LE(PC(entry.k, 1000, entry.rs), 1e-6 * 1.01) << "k=" << entry.k;
  }
}

TEST(KTableTest, KMaxRegionIsPopulatedWithHighProbability) {
  KTable table = KTable::Build(100000, 1000, 1e-6);
  const KTable::Entry& last = table.entries().back();
  EXPECT_GE(PL(last.k, 100000, last.rs), 1.0 - 1e-6);
}

TEST(KTableTest, SingleColluderGivesKTwoFullRing) {
  // Paper: "with a single corrupted node ... k = C + 1" (= 2).
  KTable table = KTable::Build(10000, 1, 1e-6);
  EXPECT_EQ(table.k_max(), 2);
  EXPECT_DOUBLE_EQ(table.entries().front().rs, 1.0);
}

TEST(KTableTest, KDependsOnColluderFractionNotN) {
  // Paper Figure 6 insight: scaling N and C together leaves k unchanged.
  KTable small = KTable::Build(10000, 100, 1e-6);
  KTable large = KTable::Build(1000000, 10000, 1e-6);
  EXPECT_EQ(small.k_max(), large.k_max());
}

TEST(KTableTest, SmallerAlphaNeedsLargerOrEqualKMax) {
  KTable loose = KTable::Build(100000, 1000, 1e-6);
  KTable tight = KTable::Build(100000, 1000, 1e-10);
  EXPECT_GE(tight.k_max(), loose.k_max());
}

TEST(KTableTest, MoreColludersNeedLargerKMax) {
  KTable few = KTable::Build(100000, 100, 1e-6);
  KTable many = KTable::Build(100000, 10000, 1e-6);
  EXPECT_GT(many.k_max(), few.k_max());
}

TEST(KTableTest, KMaxStaysSmallAtPaperScale) {
  // Paper: k <= 6 for C% <= 1% even at alpha = 1e-10 — actually k stays
  // single digit; assert the headline "generally lower than 6" at 1e-6.
  KTable table = KTable::Build(1000000, 10000, 1e-6);
  EXPECT_LE(table.k_max(), 6);
}

TEST(KTableTest, AdmitsRegionBoundsEveryEntry) {
  KTable table = KTable::Build(100000, 1000, 1e-6);
  for (const KTable::Entry& entry : table.entries()) {
    SCOPED_TRACE(entry.k);
    EXPECT_TRUE(table.AdmitsRegion(entry.k, entry.rs));
    EXPECT_TRUE(table.AdmitsRegion(entry.k, entry.rs / 2));
    EXPECT_FALSE(table.AdmitsRegion(entry.k, entry.rs * 1.001));
    EXPECT_FALSE(table.AdmitsRegion(entry.k, std::nan("")));
    EXPECT_FALSE(table.AdmitsRegion(entry.k, 0.0));
    EXPECT_FALSE(table.AdmitsRegion(entry.k, -entry.rs));
  }
  const double widest = table.entries().back().rs;
  EXPECT_FALSE(table.AdmitsRegion(1, widest));
  EXPECT_FALSE(table.AdmitsRegion(999, widest));
}

TEST(KTableTest, ChooseForPointFindsUsableEntry) {
  auto dir = test::MakeDirectory(5000);
  KTable table = KTable::Build(5000, 50, 1e-6);
  util::Rng rng(1);
  for (int trial = 0; trial < 50; ++trial) {
    uint32_t node = rng.NextUint64(dir->size());
    KTable::Choice choice =
        table.ChooseForPoint(*dir, dir->pos(node));
    ASSERT_TRUE(choice.found);
    // The chosen entry's region truly contains enough other nodes.
    dht::Region region =
        dht::Region::Centered(dir->pos(node), choice.entry.rs);
    size_t population = dir->CountInRegion(region);
    EXPECT_GE(population, static_cast<size_t>(choice.entry.k));
  }
}

TEST(KTableTest, ChooseForPointExcludesCenterNode) {
  // A 2-colluder table on a tiny network: the node itself must not count
  // towards its own quorum.
  auto dir = test::MakeDirectory(100);
  KTable table = KTable::Build(100, 2, 1e-3);
  KTable::Choice choice = table.ChooseForPoint(*dir, dir->pos(0));
  ASSERT_TRUE(choice.found);
  EXPECT_GE(choice.population, static_cast<size_t>(choice.entry.k));
}

TEST(KTableTest, DenserNeighborhoodsGetSmallerK) {
  // Statistical: averaging the chosen k over many nodes must be below
  // k_max (the whole point of the k-table optimization).
  auto dir = test::MakeDirectory(20000);
  KTable table = KTable::Build(20000, 200, 1e-6);
  double sum_k = 0;
  int samples = 200;
  util::Rng rng(2);
  for (int i = 0; i < samples; ++i) {
    uint32_t node = rng.NextUint64(dir->size());
    KTable::Choice choice = table.ChooseForPoint(*dir, dir->pos(node));
    ASSERT_TRUE(choice.found);
    sum_k += choice.entry.k;
  }
  EXPECT_LT(sum_k / samples, table.k_max());
}

}  // namespace
}  // namespace sep2p::core
