#include "dht/chord.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "sim/metrics.h"
#include "tests/test_util.h"

namespace sep2p::dht {
namespace {

RingPos RandomPos(util::Rng& rng) {
  return (static_cast<RingPos>(rng.NextUint64()) << 64) | rng.NextUint64();
}

TEST(ChordTest, RouteReachesOwner) {
  auto dir = test::MakeDirectory(1000);
  ChordOverlay chord(dir.get());
  util::Rng rng(1);
  for (int trial = 0; trial < 100; ++trial) {
    uint32_t from = rng.NextUint64(dir->size());
    RingPos target = (static_cast<RingPos>(rng.NextUint64()) << 64) |
                     rng.NextUint64();
    auto route = chord.Route(from, target);
    ASSERT_TRUE(route.ok());
    auto owner = dir->SuccessorIndex(target);
    ASSERT_TRUE(owner.has_value());
    EXPECT_EQ(route->dest_index, *owner);
  }
}

TEST(ChordTest, RouteToSelfIsZeroHops) {
  auto dir = test::MakeDirectory(100);
  ChordOverlay chord(dir.get());
  for (uint32_t i = 0; i < dir->size(); i += 13) {
    auto route = chord.Route(i, dir->pos(i));
    ASSERT_TRUE(route.ok());
    EXPECT_EQ(route->dest_index, i);
    EXPECT_EQ(route->hops, 0);
  }
}

TEST(ChordTest, HopCountIsLogarithmic) {
  auto dir = test::MakeDirectory(4096);
  ChordOverlay chord(dir.get());
  util::Rng rng(2);
  sim::OnlineStats hops;
  for (int trial = 0; trial < 300; ++trial) {
    uint32_t from = rng.NextUint64(dir->size());
    RingPos target = (static_cast<RingPos>(rng.NextUint64()) << 64) |
                     rng.NextUint64();
    auto route = chord.Route(from, target);
    ASSERT_TRUE(route.ok());
    hops.Add(route->hops);
  }
  double log2n = std::log2(4096.0);
  // Theoretical average is ~0.5 log2 N; generous envelope around it.
  EXPECT_GT(hops.mean(), 0.25 * log2n);
  EXPECT_LT(hops.mean(), 1.5 * log2n);
  EXPECT_LE(hops.max(), 2.5 * log2n);
}

TEST(ChordTest, HopsGrowSlowlyWithNetworkSize) {
  util::Rng rng(3);
  double mean_small = 0, mean_large = 0;
  for (auto [n, out] : {std::pair<size_t, double*>{256, &mean_small},
                        std::pair<size_t, double*>{8192, &mean_large}}) {
    auto dir = test::MakeDirectory(n, /*seed=*/5);
    ChordOverlay chord(dir.get());
    sim::OnlineStats hops;
    for (int trial = 0; trial < 200; ++trial) {
      uint32_t from = rng.NextUint64(dir->size());
      RingPos target = (static_cast<RingPos>(rng.NextUint64()) << 64) |
                       rng.NextUint64();
      auto route = chord.Route(from, target);
      ASSERT_TRUE(route.ok());
      hops.Add(route->hops);
    }
    *out = hops.mean();
  }
  // 32x more nodes must cost far less than 32x more hops (log growth).
  EXPECT_LT(mean_large, mean_small * 3.0);
}

TEST(ChordTest, RoutesAroundDeadNodes) {
  auto dir = test::MakeDirectory(200);
  ChordOverlay chord(dir.get());
  util::Rng rng(4);
  // Kill a third of the network.
  for (uint32_t i = 0; i < dir->size(); i += 3) dir->SetAlive(i, false);
  for (int trial = 0; trial < 50; ++trial) {
    uint32_t from;
    do {
      from = rng.NextUint64(dir->size());
    } while (!dir->alive(from));
    RingPos target = (static_cast<RingPos>(rng.NextUint64()) << 64) |
                     rng.NextUint64();
    auto route = chord.Route(from, target);
    ASSERT_TRUE(route.ok());
    EXPECT_TRUE(dir->alive(route->dest_index));
  }
}

TEST(ChordTest, EmptyNetworkIsUnavailable) {
  auto dir = test::MakeDirectory(4);
  for (uint32_t i = 0; i < 4; ++i) dir->SetAlive(i, false);
  ChordOverlay chord(dir.get());
  EXPECT_FALSE(chord.Route(0, static_cast<RingPos>(1)).ok());
}

TEST(ChordTest, DeterministicRoutes) {
  auto dir = test::MakeDirectory(512);
  ChordOverlay chord(dir.get());
  auto r1 = chord.Route(3, static_cast<RingPos>(1) << 100);
  auto r2 = chord.Route(3, static_cast<RingPos>(1) << 100);
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_EQ(r1->dest_index, r2->dest_index);
  EXPECT_EQ(r1->hops, r2->hops);
}

// Reference for the test below: the textbook closest-preceding-finger
// scan. Per hop, try the finger slots from 2^127 down and take the first
// whose successor lands strictly inside (current, target).
Result<RouteResult> ScanRoute(const Directory& dir, uint32_t from,
                              RingPos target, int max_hops) {
  std::optional<uint32_t> owner_opt = dir.SuccessorIndex(target);
  if (!owner_opt.has_value()) {
    return Status::Unavailable("chord: no alive node");
  }
  const uint32_t owner = *owner_opt;
  RouteResult result;
  result.dest_index = owner;
  uint32_t current = from;
  while (current != owner && result.hops < max_hops) {
    const RingPos cur_pos = dir.pos(current);
    const RingPos dist_to_target = ClockwiseDistance(cur_pos, target);
    uint32_t next = owner;
    for (int j = 127; j >= 0; --j) {
      const RingPos jump = static_cast<RingPos>(1) << j;
      if (jump >= dist_to_target) continue;
      const uint32_t finger = *dir.SuccessorIndex(cur_pos + jump);
      const RingPos finger_dist = ClockwiseDistance(cur_pos, dir.pos(finger));
      if (finger_dist > 0 && finger_dist < dist_to_target) {
        next = finger;
        break;
      }
    }
    ++result.hops;
    if (next == current) break;
    current = next;
  }
  if (current != owner) {
    return Status::Internal("chord: routing failed to converge");
  }
  return result;
}

enum class Layout { kUniform, kSeamCluster, kDuplicates, kGrid };

// Ring positions for `n` nodes. kSeamCluster packs them within 2^20 of
// the 0/2^128 wrap point, kDuplicates draws them from n/4 distinct
// positions, and kGrid puts them on small multiples of 2^40, where
// finger starts land exactly on node positions.
std::vector<RingPos> LayoutPositions(Layout layout, size_t n, util::Rng& rng) {
  std::vector<RingPos> pool;
  if (layout == Layout::kDuplicates) {
    for (size_t i = 0; i < n / 4 + 1; ++i) pool.push_back(RandomPos(rng));
  }
  std::vector<RingPos> positions(n);
  for (RingPos& pos : positions) {
    switch (layout) {
      case Layout::kUniform:
        pos = RandomPos(rng);
        break;
      case Layout::kSeamCluster:
        pos = static_cast<RingPos>(rng.NextUint64(uint64_t{1} << 21)) -
              (static_cast<RingPos>(1) << 20);
        break;
      case Layout::kDuplicates:
        pos = pool[rng.NextUint64(pool.size())];
        break;
      case Layout::kGrid:
        pos = static_cast<RingPos>(rng.NextUint64(4 * n)) << 40;
        break;
    }
  }
  return positions;
}

// Targets that stress the boundaries: anywhere, exactly on a node, and
// one unit either side of a node.
RingPos PickTarget(const Directory& dir, util::Rng& rng) {
  const RingPos node_pos = dir.pos(rng.NextUint64(dir.size()));
  switch (rng.NextUint64(4)) {
    case 0:
      return RandomPos(rng);
    case 1:
      return node_pos;
    case 2:
      return node_pos - 1;
    default:
      return node_pos + 1;
  }
}

TEST(ChordTest, RouteMatchesFingerScanReference) {
  util::Rng rng(2019);
  int routes = 0;
  for (Layout layout : {Layout::kUniform, Layout::kSeamCluster,
                        Layout::kDuplicates, Layout::kGrid}) {
    for (double dead_fraction : {0.0, 0.3, 0.6}) {
      for (int trial = 0; trial < 20; ++trial) {
        // Sizes from 1 to 3,000, log-uniform so tiny rings are covered.
        const size_t n = static_cast<size_t>(
            std::exp(rng.NextDouble() * std::log(3000.0)));
        std::vector<NodeRecord> records(n);
        std::vector<RingPos> positions = LayoutPositions(layout, n, rng);
        for (size_t i = 0; i < n; ++i) {
          records[i].id = NodeId::Of("node-" + std::to_string(i));
          records[i].pos = positions[i];
        }
        Directory dir(std::move(records));
        for (uint32_t i = 0; i < dir.size(); ++i) {
          if (rng.NextBool(dead_fraction)) dir.SetAlive(i, false);
        }
        ChordOverlay chord(&dir);
        for (int r = 0; r < 50; ++r) {
          // Every other route starts at a dead node when there is one.
          uint32_t from = rng.NextUint64(dir.size());
          for (int tries = 0; tries < 8 && dir.alive(from) == (r % 2 == 1);
               ++tries) {
            from = rng.NextUint64(dir.size());
          }
          const RingPos target = PickTarget(dir, rng);
          auto got = chord.Route(from, target);
          auto want = ScanRoute(dir, from, target, chord.max_hops());
          ASSERT_EQ(got.ok(), want.ok());
          if (!want.ok()) continue;
          ++routes;
          EXPECT_EQ(got->dest_index, want->dest_index)
              << "n=" << n << " from=" << from;
          EXPECT_EQ(got->hops, want->hops) << "n=" << n << " from=" << from;
        }
      }
    }
  }
  EXPECT_GT(routes, 10000);
}

}  // namespace
}  // namespace sep2p::dht
