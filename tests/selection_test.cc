#include "core/selection.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>

#include "core/verification.h"
#include "dht/region.h"
#include "tests/test_util.h"

namespace sep2p::core {
namespace {

class SelectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    network_ = test::MakeNetwork(/*n=*/3000, /*c_fraction=*/0.01,
                                 /*cache=*/256);
    ASSERT_NE(network_, nullptr);
    ctx_ = network_->context();
  }

  ProtocolContext ctx_;
  std::unique_ptr<sim::Network> network_;
  util::Rng rng_{11};
};

TEST_F(SelectionTest, SelectsExactlyAActors) {
  SelectionProtocol protocol(ctx_);
  auto outcome = protocol.Run(5, rng_);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->val.actor_count(), ctx_.actor_count);
  EXPECT_EQ(outcome->actor_indices.size(),
            static_cast<size_t>(ctx_.actor_count));
}

TEST_F(SelectionTest, ActorsAreDistinct) {
  SelectionProtocol protocol(ctx_);
  auto outcome = protocol.Run(5, rng_);
  ASSERT_TRUE(outcome.ok());
  std::set<uint32_t> unique(outcome->actor_indices.begin(),
                            outcome->actor_indices.end());
  EXPECT_EQ(unique.size(), outcome->actor_indices.size());
}

TEST_F(SelectionTest, ActorsAreLegitimateForR3) {
  SelectionProtocol protocol(ctx_);
  auto outcome = protocol.Run(5, rng_);
  ASSERT_TRUE(outcome.ok());
  dht::Region r3 = dht::Region::Centered(
      outcome->val.SetterPoint().ring_pos(), ctx_.rs3);
  for (uint32_t actor : outcome->actor_indices) {
    EXPECT_TRUE(r3.Contains(network_->directory().pos(actor)));
  }
}

TEST_F(SelectionTest, SlsAreLegitimateForR2) {
  SelectionProtocol protocol(ctx_);
  auto outcome = protocol.Run(5, rng_);
  ASSERT_TRUE(outcome.ok());
  dht::Region r2 = dht::Region::Centered(
      outcome->val.SetterPoint().ring_pos(), outcome->val.rs2);
  for (const auto& att : outcome->val.attestations) {
    EXPECT_TRUE(r2.Contains(att.cert.NodeIdFromSubject().ring_pos()));
  }
}

TEST_F(SelectionTest, VerificationSucceedsAndCostsExactlyTwoK) {
  SelectionProtocol protocol(ctx_);
  auto outcome = protocol.Run(5, rng_);
  ASSERT_TRUE(outcome.ok());
  auto cost = VerifyActorList(ctx_, outcome->val);
  ASSERT_TRUE(cost.ok()) << cost.status().ToString();
  EXPECT_DOUBLE_EQ(cost->crypto_work, 2.0 * outcome->val.k());

  // And the cost model matches the provider's actual operation count.
  network_->provider().meter().Reset();
  auto again = VerifyActorList(ctx_, outcome->val);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(network_->provider().meter().asym_ops(),
            static_cast<uint64_t>(2 * outcome->val.k()));
}

TEST_F(SelectionTest, SetterIsOwnerOfHashedRandom) {
  SelectionProtocol protocol(ctx_);
  auto outcome = protocol.Run(5, rng_);
  ASSERT_TRUE(outcome.ok());
  ASSERT_EQ(outcome->relocations, 0);
  auto owner = network_->directory().SuccessorIndex(
      outcome->val.SetterPoint().ring_pos());
  ASSERT_TRUE(owner.has_value());
  EXPECT_EQ(outcome->setter_index, *owner);
}

TEST_F(SelectionTest, DifferentTriggersSelectDifferentRegions) {
  SelectionProtocol protocol(ctx_);
  auto a = protocol.Run(5, rng_);
  auto b = protocol.Run(6, rng_);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(a->val.rnd_t, b->val.rnd_t);
  std::set<uint32_t> actors_a(a->actor_indices.begin(),
                              a->actor_indices.end());
  int overlap = 0;
  for (uint32_t x : b->actor_indices) overlap += actors_a.count(x);
  // Two random R3 regions of ~256/3000 of the ring almost never coincide.
  EXPECT_LT(overlap, ctx_.actor_count / 2);
}

TEST_F(SelectionTest, BuildActorListDeterministicAcrossBuilders) {
  std::vector<std::vector<crypto::PublicKey>> lists(3);
  util::Rng rng(3);
  crypto::SimProvider provider;
  for (auto& list : lists) {
    for (int i = 0; i < 20; ++i) {
      list.push_back(provider.GenerateKeyPair(rng)->pub);
    }
  }
  crypto::Hash256 rnd_s = crypto::Hash256::Of("round");
  auto a = BuildActorList(lists, rnd_s, 10);
  auto b = BuildActorList(lists, rnd_s, 10);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 10u);
}

TEST_F(SelectionTest, BuildActorListOrderIndependentOfListOrder) {
  std::vector<std::vector<crypto::PublicKey>> lists(2);
  util::Rng rng(4);
  crypto::SimProvider provider;
  for (auto& list : lists) {
    for (int i = 0; i < 15; ++i) {
      list.push_back(provider.GenerateKeyPair(rng)->pub);
    }
  }
  crypto::Hash256 rnd_s = crypto::Hash256::Of("x");
  auto a = BuildActorList(lists, rnd_s, 8);
  std::swap(lists[0], lists[1]);
  auto b = BuildActorList(lists, rnd_s, 8);
  EXPECT_EQ(a, b);  // union + sort: the SLs' message order is irrelevant
}

// The driver's indexed list builder must pick exactly BuildActorList's
// keys, in order, with every key still carrying its own directory index.
// Randomized over fixed seeds: 1-8 lists drawn from a shared pool (so
// keys repeat across lists, never within one), unions both larger and
// smaller than A, A = 1, and keys sharing their first 8 bytes so the
// full-key tie-break decides the order.
TEST(BuildActorListIndexedTest, MatchesFullSortOnRandomLists) {
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE(seed);
    util::Rng rng(seed);
    const size_t pool_size = 1 + rng.NextUint64(120);
    std::vector<crypto::PublicKey> pool(pool_size);
    std::vector<uint32_t> pool_index(pool_size);
    for (size_t i = 0; i < pool_size; ++i) {
      pool[i] = rng.NextBytes32();
      // About a third of the keys copy an earlier key's 8-byte prefix.
      if (i > 0 && rng.NextBool(0.3)) {
        const size_t donor = rng.NextUint64(i);
        std::copy(pool[donor].begin(), pool[donor].begin() + 8,
                  pool[i].begin());
      }
      pool_index[i] = static_cast<uint32_t>(rng.NextUint64(1u << 30));
    }
    const size_t list_count = 1 + rng.NextUint64(8);
    const double keep = 0.2 + 0.8 * rng.NextDouble();
    std::vector<std::vector<crypto::PublicKey>> lists(list_count);
    std::vector<std::vector<uint32_t>> index_lists(list_count);
    for (size_t l = 0; l < list_count; ++l) {
      std::vector<size_t> order(pool_size);
      for (size_t i = 0; i < pool_size; ++i) order[i] = i;
      rng.Shuffle(order);
      for (size_t i : order) {
        if (!rng.NextBool(keep)) continue;
        lists[l].push_back(pool[i]);
        index_lists[l].push_back(pool_index[i]);
      }
    }
    const int actor_count =
        seed % 5 == 0 ? 1 : 1 + static_cast<int>(rng.NextUint64(64));
    const crypto::Hash256 rnd_s(crypto::Digest(rng.NextBytes32()));

    const std::vector<crypto::PublicKey> expected =
        BuildActorList(lists, rnd_s, actor_count);
    const std::vector<std::pair<crypto::PublicKey, uint32_t>> indexed =
        BuildActorListIndexed(lists, index_lists, rnd_s, actor_count);
    ASSERT_EQ(indexed.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(indexed[i].first, expected[i]);
      const size_t at = static_cast<size_t>(
          std::find(pool.begin(), pool.end(), indexed[i].first) -
          pool.begin());
      ASSERT_LT(at, pool_size);
      EXPECT_EQ(indexed[i].second, pool_index[at]);
    }
  }
}

TEST_F(SelectionTest, RandomnessOfSortKeyChangesSelection) {
  std::vector<std::vector<crypto::PublicKey>> lists(1);
  util::Rng rng(5);
  crypto::SimProvider provider;
  for (int i = 0; i < 64; ++i) {
    lists[0].push_back(provider.GenerateKeyPair(rng)->pub);
  }
  auto a = BuildActorList(lists, crypto::Hash256::Of("round-1"), 8);
  auto b = BuildActorList(lists, crypto::Hash256::Of("round-2"), 8);
  EXPECT_NE(a, b);  // unpredictability comes from RND_S
}

TEST_F(SelectionTest, CollusionHidingCacheEntriesIsDefeated) {
  // A corrupted SL that reports only colluders in CL_j gains nothing: at
  // least one honest SL contributes its full candidate list, so the
  // union restores (nearly) all honest candidates — the corrupted-actor
  // count cannot grow beyond edge noise, and the contract always holds.
  struct HideHonestEntries : AttackHooks {
    bool SlBiasesCandidates(uint32_t /*sl_index*/) override { return true; }
  } hide;
  SelectionProtocol protocol(ctx_);
  SelectionOptions honest;
  SelectionOptions hiding;
  hiding.attack = &hide;

  int honest_corrupted = 0, hiding_corrupted = 0;
  for (uint32_t trigger = 0; trigger < 15; ++trigger) {
    util::Rng rng_a(900 + trigger), rng_b(900 + trigger);
    auto a = protocol.Run(trigger, rng_a, honest);
    auto b = protocol.Run(trigger, rng_b, hiding);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(b->val.actor_count(), ctx_.actor_count);
    EXPECT_TRUE(VerifyActorList(ctx_, b->val).ok());
    for (uint32_t actor : a->actor_indices) {
      honest_corrupted += network_->directory().colluding(actor);
    }
    for (uint32_t actor : b->actor_indices) {
      hiding_corrupted += network_->directory().colluding(actor);
    }
  }
  // 15 runs x 8 actors at C% = 1%: ideal ~1.2 corrupted in total. The
  // hiding adversary must stay in the same regime (far from controlling
  // the lists), not merely "not much worse".
  EXPECT_LE(hiding_corrupted, honest_corrupted + 5);
  EXPECT_LE(hiding_corrupted, 12);  // << A * runs = 120
}

TEST_F(SelectionTest, SmallR3TriggersRelocation) {
  ProtocolContext tight = ctx_;
  tight.actor_count = 8;
  // R3 sized for ~10 expected candidates against A = 8: relocations
  // become likely; run several triggers and require at least one
  // relocation overall.
  tight.rs3 = 10.0 / 3000.0;
  tight.max_relocations = 64;
  SelectionProtocol protocol(tight);
  int total_relocations = 0;
  for (uint32_t trigger = 0; trigger < 10; ++trigger) {
    auto outcome = protocol.Run(trigger, rng_);
    if (outcome.ok()) {
      total_relocations += outcome->relocations;
      // Even after relocating, the contract holds.
      EXPECT_EQ(outcome->val.actor_count(), tight.actor_count);
      auto cost = VerifyActorList(tight, outcome->val);
      EXPECT_TRUE(cost.ok()) << cost.status().ToString();
    }
  }
  EXPECT_GT(total_relocations, 0);
}

TEST_F(SelectionTest, RelocationBudgetExhaustionFails) {
  ProtocolContext impossible = ctx_;
  impossible.actor_count = 2000;  // more than any R3 can hold
  impossible.rs3 = 8.0 / 3000.0;
  impossible.max_relocations = 3;
  SelectionProtocol protocol(impossible);
  auto outcome = protocol.Run(5, rng_);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(SelectionTest, SetupCostAccountsVrandRoutingAndSlWork) {
  SelectionProtocol protocol(ctx_);
  auto outcome = protocol.Run(5, rng_);
  ASSERT_TRUE(outcome.ok());
  const int k = outcome->val.k();
  // Lower bounds: vrand (4 msg rounds) + 5 SL rounds + signatures.
  EXPECT_GE(outcome->cost.msg_latency, 9.0);
  EXPECT_GE(outcome->cost.msg_work, 9.0 * k);
  EXPECT_GE(outcome->cost.crypto_work, 3.0 * k);
  // Latency stays bounded (paper: ~20 crypto ops, ~30 messages).
  EXPECT_LE(outcome->cost.crypto_latency, 40.0);
  EXPECT_LE(outcome->cost.msg_latency, 60.0);
}

TEST_F(SelectionTest, FailureInjectionAbortsCleanly) {
  // Every participant crashes on its first request.
  net::SimNetwork crashing = test::MakeSimNet(
      static_cast<uint32_t>(network_->directory().size()));
  crashing.set_step_crash_probability(1.0);
  SelectionOptions options;
  options.network = &crashing;
  SelectionProtocol protocol(ctx_);
  auto outcome = protocol.Run(5, rng_, options);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kUnavailable);
}

}  // namespace
}  // namespace sep2p::core
