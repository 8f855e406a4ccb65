#include "apps/concept_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <type_traits>

#include "tests/test_util.h"

namespace sep2p::apps {
namespace {

// The registered handlers capture the app's address: a copy or a move
// would leave them pointing at the original.
static_assert(!std::is_copy_constructible_v<ConceptIndex> &&
              !std::is_copy_assignable_v<ConceptIndex> &&
              !std::is_move_constructible_v<ConceptIndex> &&
              !std::is_move_assignable_v<ConceptIndex>);

class ConceptIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    network_ = test::MakeNetwork(800, 0.01);
    ASSERT_NE(network_, nullptr);
    simnet_ = std::make_unique<net::SimNetwork>(
        test::MakeZeroFaultSimNet(800));
    runtime_ = std::make_unique<node::AppRuntime>(simnet_.get());
  }

  std::unique_ptr<sim::Network> network_;
  std::unique_ptr<net::SimNetwork> simnet_;
  std::unique_ptr<node::AppRuntime> runtime_;
  util::Rng rng_{13};
};

TEST_F(ConceptIndexTest, PublishThenLookupReturnsPoster) {
  ConceptIndex index(network_.get(), runtime_.get());
  ASSERT_TRUE(index.Publish(42, {"pilot", "paris"}, rng_).ok());
  auto result = index.Lookup(7, "pilot");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->nodes, (std::vector<uint32_t>{42}));
}

TEST_F(ConceptIndexTest, MultiplePostersAccumulate) {
  ConceptIndex index(network_.get(), runtime_.get());
  for (uint32_t node : {5u, 9u, 200u}) {
    ASSERT_TRUE(index.Publish(node, {"pilot"}, rng_).ok());
  }
  auto result = index.Lookup(7, "pilot");
  ASSERT_TRUE(result.ok());
  std::vector<uint32_t> nodes = result->nodes;
  std::sort(nodes.begin(), nodes.end());
  EXPECT_EQ(nodes, (std::vector<uint32_t>{5, 9, 200}));
}

TEST_F(ConceptIndexTest, UnknownConceptIsEmpty) {
  ConceptIndex index(network_.get(), runtime_.get());
  auto result = index.Lookup(7, "nothing");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->nodes.empty());
}

TEST_F(ConceptIndexTest, ConceptsScatterAcrossIndexers) {
  ConceptIndex index(network_.get(), runtime_.get());
  std::set<uint32_t> indexers;
  for (int i = 0; i < 40; ++i) {
    auto owner = index.IndexerFor("concept-" + std::to_string(i), 0);
    ASSERT_TRUE(owner.ok());
    indexers.insert(*owner);
  }
  // Randomized concept-to-MI association (imposed node ids): 40 concepts
  // land on many distinct indexers.
  EXPECT_GT(indexers.size(), 25u);
}

TEST_F(ConceptIndexTest, LookupCostCountsDhtRouting) {
  ConceptIndex index(network_.get(), runtime_.get());
  ASSERT_TRUE(index.Publish(3, {"x"}, rng_).ok());
  auto result = index.Lookup(600, "x");
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->cost.msg_work, 1.0);  // at least the store contact
}

TEST_F(ConceptIndexTest, PlaintextIndexLeaksToSingleIndexer) {
  ConceptIndex index(network_.get(), runtime_.get());  // p = s = 1
  ASSERT_TRUE(index.Publish(42, {"secret-club"}, rng_).ok());
  auto owner = index.IndexerFor("secret-club", 0);
  ASSERT_TRUE(owner.ok());
  std::vector<uint32_t> leak =
      index.SingleIndexerDisclosure(*owner, "secret-club");
  EXPECT_EQ(leak, (std::vector<uint32_t>{42}));  // full disclosure
}

TEST_F(ConceptIndexTest, ShamirShardedIndexStillAnswersLookups) {
  ConceptIndex::Options options;
  options.shamir_threshold = 3;
  options.shamir_shares = 5;
  ConceptIndex index(network_.get(), runtime_.get(), options);
  for (uint32_t node : {10u, 20u, 30u}) {
    ASSERT_TRUE(index.Publish(node, {"pilot"}, rng_).ok());
  }
  auto result = index.Lookup(7, "pilot");
  ASSERT_TRUE(result.ok());
  std::vector<uint32_t> nodes = result->nodes;
  std::sort(nodes.begin(), nodes.end());
  EXPECT_EQ(nodes, (std::vector<uint32_t>{10, 20, 30}));
  EXPECT_EQ(result->indexers.size(), 3u);  // p indexers contacted
}

TEST_F(ConceptIndexTest, ShamirShardedIndexHidesPostingsFromOneIndexer) {
  ConceptIndex::Options options;
  options.shamir_threshold = 2;
  options.shamir_shares = 3;
  ConceptIndex index(network_.get(), runtime_.get(), options);
  ASSERT_TRUE(index.Publish(42, {"secret-club"}, rng_).ok());

  // No single MI can reconstruct the posting: its naive decode must not
  // equal the real posting (probability 2^-32 of collision per share).
  for (int share = 0; share < 3; ++share) {
    auto owner = index.IndexerFor("secret-club", share);
    ASSERT_TRUE(owner.ok());
    std::vector<uint32_t> leak =
        index.SingleIndexerDisclosure(*owner, "secret-club");
    for (uint32_t decoded : leak) {
      EXPECT_NE(decoded, 42u) << "share " << share;
    }
  }
}

TEST_F(ConceptIndexTest, SharesLiveOnDistinctIndexersUsually) {
  ConceptIndex::Options options;
  options.shamir_threshold = 2;
  options.shamir_shares = 3;
  ConceptIndex index(network_.get(), runtime_.get(), options);
  int distinct_total = 0;
  for (int i = 0; i < 20; ++i) {
    std::set<uint32_t> owners;
    for (int s = 0; s < 3; ++s) {
      auto owner = index.IndexerFor("c" + std::to_string(i), s);
      ASSERT_TRUE(owner.ok());
      owners.insert(*owner);
    }
    distinct_total += owners.size();
  }
  // Hash-scattered share keys: nearly always 3 distinct MIs.
  EXPECT_GT(distinct_total, 20 * 2);
}

TEST_F(ConceptIndexTest, PublishCostGrowsWithShares) {
  // Separate runtimes: each index owns its handler registrations.
  net::SimNetwork plain_net = test::MakeZeroFaultSimNet(800);
  node::AppRuntime plain_runtime(&plain_net);
  ConceptIndex plain(network_.get(), &plain_runtime);
  ConceptIndex::Options options;
  options.shamir_threshold = 2;
  options.shamir_shares = 5;
  ConceptIndex sharded(network_.get(), runtime_.get(), options);
  auto c1 = plain.Publish(1, {"a"}, rng_);
  auto c5 = sharded.Publish(1, {"a"}, rng_);
  ASSERT_TRUE(c1.ok() && c5.ok());
  EXPECT_GT(c5->msg_work, c1->msg_work * 2);
}

TEST_F(ConceptIndexTest, UnreachableIndexerDegradesLookup) {
  // A lossy network that eats every transmission: the first MI contact
  // exhausts its retries and the lookup reports the degradation instead
  // of failing.
  net::SimNetwork dead_net = test::MakeSimNet(800, /*drop=*/1.0);
  node::AppRuntime dead_runtime(&dead_net);
  ConceptIndex index(network_.get(), &dead_runtime);
  auto result = index.Lookup(7, "pilot");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->indexer_unreachable);
  EXPECT_TRUE(result->nodes.empty());
  EXPECT_GT(dead_net.stats().rpc_failures, 0u);
}

TEST_F(ConceptIndexTest, StoreRetransmissionIsDeduplicated) {
  // Force retries on every RPC by dropping ~half the transmissions: the
  // MI-side dedup on (posting id, share x) must keep each posting single
  // even when the store handler runs more than once.
  net::SimNetwork lossy_net = test::MakeSimNet(800, /*drop=*/0.3,
                                               /*jitter_mean_us=*/0,
                                               /*seed=*/11);
  node::AppRuntime lossy_runtime(&lossy_net);
  ConceptIndex index(network_.get(), &lossy_runtime);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(index.Publish(100 + i, {"pilot"}, rng_).ok());
  }
  ASSERT_GT(lossy_net.stats().retries, 0u);  // dedup actually exercised
  auto result = index.Lookup(7, "pilot");
  ASSERT_TRUE(result.ok());
  if (result->indexer_unreachable) return;  // nothing to assert
  std::set<uint32_t> unique(result->nodes.begin(), result->nodes.end());
  // No duplicates: every returned posting appears exactly once.
  EXPECT_EQ(unique.size(), result->nodes.size());
}

}  // namespace
}  // namespace sep2p::apps
