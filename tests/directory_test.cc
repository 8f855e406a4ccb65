#include "dht/directory.h"

#include <gtest/gtest.h>

#include <cmath>

#include <algorithm>

#include "tests/test_util.h"

namespace sep2p::dht {
namespace {

TEST(DirectoryTest, SortedByRingPosition) {
  auto dir = test::MakeDirectory(500);
  for (uint32_t i = 1; i < dir->size(); ++i) {
    EXPECT_LE(dir->pos(i - 1), dir->pos(i));
  }
}

TEST(DirectoryTest, SuccessorOfOwnPositionIsSelf) {
  auto dir = test::MakeDirectory(200);
  for (uint32_t i = 0; i < dir->size(); i += 17) {
    auto succ = dir->SuccessorIndex(dir->pos(i));
    ASSERT_TRUE(succ.has_value());
    EXPECT_EQ(*succ, i);
  }
}

TEST(DirectoryTest, SuccessorWrapsPastLastNode) {
  auto dir = test::MakeDirectory(100);
  RingPos beyond_last = dir->pos(dir->size() - 1) + 1;
  auto succ = dir->SuccessorIndex(beyond_last);
  ASSERT_TRUE(succ.has_value());
  EXPECT_EQ(*succ, 0u);  // wraps to the first node
}

TEST(DirectoryTest, SuccessorSkipsDeadNodes) {
  auto dir = test::MakeDirectory(50);
  dir->SetAlive(3, false);
  RingPos pos = dir->pos(3);
  auto succ = dir->SuccessorIndex(pos);
  ASSERT_TRUE(succ.has_value());
  EXPECT_EQ(*succ, 4u);
  dir->SetAlive(3, true);
}

TEST(DirectoryTest, AliveCountTracksToggles) {
  auto dir = test::MakeDirectory(20);
  EXPECT_EQ(dir->alive_count(), 20u);
  dir->SetAlive(5, false);
  dir->SetAlive(5, false);  // idempotent
  EXPECT_EQ(dir->alive_count(), 19u);
  dir->SetAlive(5, true);
  EXPECT_EQ(dir->alive_count(), 20u);
}

TEST(DirectoryTest, PredecessorIsStrictlyBefore) {
  auto dir = test::MakeDirectory(200);
  for (uint32_t i = 0; i < dir->size(); i += 11) {
    auto pred = dir->PredecessorIndex(dir->pos(i));
    ASSERT_TRUE(pred.has_value());
    // Strictly before on the ring: the predecessor of node i's position
    // is node i-1 (wrapping).
    EXPECT_EQ(*pred, (i + dir->size() - 1) % dir->size());
  }
}

TEST(DirectoryTest, PredecessorSkipsDeadNodes) {
  auto dir = test::MakeDirectory(50);
  auto pred = dir->PredecessorIndex(dir->pos(10));
  ASSERT_TRUE(pred.has_value());
  EXPECT_EQ(*pred, 9u);
  dir->SetAlive(9, false);
  pred = dir->PredecessorIndex(dir->pos(10));
  ASSERT_TRUE(pred.has_value());
  EXPECT_EQ(*pred, 8u);
  dir->SetAlive(9, true);
}

TEST(DirectoryTest, PredecessorFindsAliveNodeSharingPositionWithDeadOne) {
  // Every alive node sits exactly at the probed position and the
  // first-ranked node there is dead: the predecessor wraps to the alive
  // one rather than reporting an empty ring.
  const RingPos pos = static_cast<RingPos>(1) << 90;
  std::vector<NodeRecord> records(2);
  records[0].id = NodeId::Of("first");
  records[1].id = NodeId::Of("second");
  for (NodeRecord& record : records) record.pos = pos;
  Directory dir(std::move(records));
  dir.SetAlive(0, false);
  ASSERT_EQ(dir.alive_count(), 1u);
  EXPECT_EQ(dir.SuccessorIndex(pos), std::optional<uint32_t>(1));
  EXPECT_EQ(dir.PredecessorIndex(pos), std::optional<uint32_t>(1));
  EXPECT_EQ(dir.PredecessorIndex(pos + 1), std::optional<uint32_t>(1));
}

TEST(DirectoryTest, SuccessorAndPredecessorAreInverse) {
  auto dir = test::MakeDirectory(300);
  util::Rng rng(3);
  for (int trial = 0; trial < 50; ++trial) {
    RingPos probe = (static_cast<RingPos>(rng.NextUint64()) << 64) |
                    rng.NextUint64();
    auto succ = dir->SuccessorIndex(probe);
    auto pred = dir->PredecessorIndex(probe);
    ASSERT_TRUE(succ.has_value() && pred.has_value());
    // No alive node lies strictly between pred and probe or between
    // probe and succ (succ may equal probe's exact holder).
    EXPECT_EQ(*dir->SuccessorIndex(dir->pos(*pred) + 1), *succ);
  }
}

TEST(DirectoryTest, NearestPicksCloserOfNeighbors) {
  auto dir = test::MakeDirectory(300);
  // Probe points between consecutive nodes.
  for (uint32_t i = 0; i + 1 < dir->size(); i += 23) {
    RingPos a = dir->pos(i), b = dir->pos(i + 1);
    if (b - a < 4) continue;
    RingPos near_a = a + 1;
    auto nearest = dir->NearestIndex(near_a);
    ASSERT_TRUE(nearest.has_value());
    EXPECT_EQ(*nearest, i);
    RingPos near_b = b - 1;
    nearest = dir->NearestIndex(near_b);
    ASSERT_TRUE(nearest.has_value());
    EXPECT_EQ(*nearest, i + 1);
  }
}

TEST(DirectoryTest, RegionQueryMatchesBruteForce) {
  auto dir = test::MakeDirectory(400);
  util::Rng rng(9);
  for (int trial = 0; trial < 30; ++trial) {
    RingPos center = (static_cast<RingPos>(rng.NextUint64()) << 64) |
                     rng.NextUint64();
    double rs = std::pow(10.0, -3.0 * rng.NextDouble());
    Region region = Region::Centered(center, rs);

    std::vector<uint32_t> brute;
    for (uint32_t i = 0; i < dir->size(); ++i) {
      if (region.Contains(dir->pos(i))) brute.push_back(i);
    }
    std::vector<uint32_t> fast = dir->NodesInRegion(region);
    std::sort(fast.begin(), fast.end());
    std::sort(brute.begin(), brute.end());
    EXPECT_EQ(fast, brute) << "trial " << trial << " rs " << rs;
    EXPECT_EQ(dir->CountInRegion(region), brute.size());
  }
}

TEST(DirectoryTest, RegionQueryFullRingReturnsAllAlive) {
  auto dir = test::MakeDirectory(64);
  dir->SetAlive(10, false);
  Region full = Region::Centered(12345, 1.0);
  EXPECT_EQ(dir->NodesInRegion(full).size(), 63u);
  dir->SetAlive(10, true);
}

TEST(DirectoryTest, RegionQueryRespectsLimit) {
  auto dir = test::MakeDirectory(64);
  Region full = Region::Centered(0, 1.0);
  EXPECT_EQ(dir->NodesInRegion(full, 5).size(), 5u);
}

TEST(DirectoryTest, RegionQueryExcludesDeadNodes) {
  auto dir = test::MakeDirectory(64);
  Region full = Region::Centered(0, 1.0);
  std::vector<uint32_t> all = dir->NodesInRegion(full);
  dir->SetAlive(all[7], false);
  std::vector<uint32_t> after = dir->NodesInRegion(full);
  EXPECT_EQ(after.size(), all.size() - 1);
  EXPECT_EQ(std::count(after.begin(), after.end(), all[7]), 0);
  dir->SetAlive(all[7], true);
}

TEST(DirectoryTest, IndexOfFindsEveryNode) {
  auto dir = test::MakeDirectory(128);
  for (uint32_t i = 0; i < dir->size(); ++i) {
    auto found = dir->IndexOf(dir->id(i));
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(*found, i);
  }
}

TEST(DirectoryTest, IndexOfUnknownIdReturnsNullopt) {
  auto dir = test::MakeDirectory(16);
  EXPECT_FALSE(dir->IndexOf(NodeId::Of("not a node")).has_value());
}

TEST(DirectoryTest, EmptyWhenAllDead) {
  auto dir = test::MakeDirectory(8);
  for (uint32_t i = 0; i < 8; ++i) dir->SetAlive(i, false);
  EXPECT_FALSE(dir->SuccessorIndex(0).has_value());
  EXPECT_FALSE(dir->NearestIndex(0).has_value());
  EXPECT_TRUE(dir->NodesInRegion(Region::Centered(0, 1.0)).empty());
}

// Construction sorts its input: any permutation of one record set
// builds the same directory, handle for handle. The set mixes
// certified nodes, pool nodes with neither a private key nor a CA
// signature, and runs of nodes sharing one position (ordered by id).
TEST(DirectoryTest, ShuffledRecordsBuildTheSameDirectory) {
  crypto::SimProvider provider;
  util::Rng rng(21);
  std::vector<NodeRecord> records;
  for (uint64_t i = 0; i < 300; ++i) {
    NodeRecord record;
    if (i % 10 == 3) {
      // Several ids at one position: the top 128 bits agree.
      record.id = NodeId::FromRingPos(records.back().pos);
      record.id.bytes()[31] = static_cast<uint8_t>(rng.NextUint64());
      record.pub = record.id.bytes();
      record.pos = record.id.ring_pos();
    } else {
      auto pair = provider.GenerateKeyPair(rng);
      record.pub = pair->pub;
      record.id = NodeIdForKey(record.pub);
      record.pos = record.id.ring_pos();
      if (i % 7 != 0) record.priv = std::move(pair->priv);
    }
    record.cert.subject = record.pub;
    record.cert.serial = 1000 + i;
    if (i % 4 == 0) {
      record.alive = false;  // a pool node: no CA signature yet
    } else {
      crypto::Digest sig = crypto::Sha256Hash(record.pub.data(), 32);
      record.cert.ca_signature.assign(sig.begin(), sig.end());
    }
    records.push_back(std::move(record));
  }
  std::vector<NodeRecord> sorted = records;
  std::sort(sorted.begin(), sorted.end(),
            [](const NodeRecord& a, const NodeRecord& b) {
              if (a.pos != b.pos) return a.pos < b.pos;
              return a.id < b.id;
            });
  std::vector<NodeRecord> shuffled = records;
  rng.Shuffle(shuffled);

  Directory from_sorted(sorted);
  Directory from_shuffled(shuffled);
  test::ExpectSameNodes(from_sorted, from_shuffled);
  size_t shared = 0;
  for (uint32_t i = 0; i < from_shuffled.size(); ++i) {
    EXPECT_EQ(from_shuffled.id(i), sorted[i].id) << "handle " << i;
    EXPECT_EQ(from_shuffled.has_cert(i),
              !sorted[i].cert.ca_signature.empty());
    if (i > 0 && from_shuffled.pos(i) == from_shuffled.pos(i - 1)) {
      EXPECT_LT(from_shuffled.id(i - 1), from_shuffled.id(i));
      ++shared;
    }
  }
  EXPECT_EQ(shared, 30u);
  EXPECT_EQ(from_shuffled.alive_count(), 225u);
}

TEST(DirectoryTest, ImposedIdsAreUniformAcrossRing) {
  // Chi-square-ish check: bucket 4000 node positions into 16 arcs.
  auto dir = test::MakeDirectory(4000);
  int buckets[16] = {};
  for (uint32_t i = 0; i < dir->size(); ++i) {
    int b = static_cast<int>(dir->pos(i) >> 124);
    ++buckets[b];
  }
  for (int b : buckets) EXPECT_NEAR(b, 250, 80);
}

}  // namespace
}  // namespace sep2p::dht
