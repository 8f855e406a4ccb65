#include "apps/diffusion.h"

#include <gtest/gtest.h>

#include <set>
#include <type_traits>

#include "tests/test_util.h"

namespace sep2p::apps {
namespace {

// The registered handlers capture the app's address: a copy or a move
// would leave them pointing at the original.
static_assert(!std::is_copy_constructible_v<DiffusionApp> &&
              !std::is_copy_assignable_v<DiffusionApp> &&
              !std::is_move_constructible_v<DiffusionApp> &&
              !std::is_move_assignable_v<DiffusionApp>);

class DiffusionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    network_ = test::MakeNetwork(1200, 0.01, /*cache=*/160);
    ASSERT_NE(network_, nullptr);
    for (uint32_t i = 0; i < network_->directory().size(); ++i) {
      pdms_.emplace_back(i);
    }
    // Deterministic profiles: node i is a pilot iff i % 5 == 0, in their
    // forties iff i % 3 == 0, retired iff i % 7 == 0.
    for (uint32_t i = 0; i < pdms_.size(); ++i) {
      if (i % 5 == 0) pdms_[i].AddConcept("pilot");
      if (i % 3 == 0) pdms_[i].AddConcept("age:40s");
      if (i % 7 == 0) pdms_[i].AddConcept("retired");
    }
    simnet_ = std::make_unique<net::SimNetwork>(
        test::MakeZeroFaultSimNet(1200));
    runtime_ = std::make_unique<node::AppRuntime>(simnet_.get());
    index_ = std::make_unique<ConceptIndex>(network_.get(), runtime_.get());
    app_ = std::make_unique<DiffusionApp>(network_.get(), &pdms_,
                                          index_.get(), runtime_.get());
    util::Rng rng(5);
    ASSERT_TRUE(app_->PublishAllProfiles(rng).ok());
  }

  std::vector<uint32_t> Expected(const std::string& expression) {
    auto parsed = ProfileExpression::Parse(expression);
    EXPECT_TRUE(parsed.ok());
    std::vector<uint32_t> out;
    for (uint32_t i = 0; i < pdms_.size(); ++i) {
      if (parsed->Matches(pdms_[i].concepts())) out.push_back(i);
    }
    return out;
  }

  std::unique_ptr<sim::Network> network_;
  std::vector<node::PdmsNode> pdms_;
  std::unique_ptr<net::SimNetwork> simnet_;
  std::unique_ptr<node::AppRuntime> runtime_;
  std::unique_ptr<ConceptIndex> index_;
  std::unique_ptr<DiffusionApp> app_;
  util::Rng rng_{19};
};

TEST_F(DiffusionTest, SingleConceptReachesExactlyTheMatchingNodes) {
  auto result = app_->Diffuse(1, "pilot", "hello pilots", rng_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->targets, Expected("pilot"));
  for (uint32_t target : result->targets) {
    ASSERT_EQ(pdms_[target].inbox().size(), 1u);
    EXPECT_EQ(pdms_[target].inbox()[0], "hello pilots");
  }
}

TEST_F(DiffusionTest, ConjunctionFiltersCandidates) {
  auto result = app_->Diffuse(1, "pilot AND age:40s", "msg", rng_);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->targets, Expected("pilot AND age:40s"));
  // i % 15 == 0: ~1200/15 = 80 targets.
  EXPECT_NEAR(result->targets.size(), 80, 1);
}

TEST_F(DiffusionTest, NegationExcludesWithinCandidates) {
  auto result = app_->Diffuse(1, "pilot AND NOT retired", "msg", rng_);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->targets, Expected("pilot AND NOT retired"));
  for (uint32_t target : result->targets) {
    EXPECT_FALSE(pdms_[target].HasConcept("retired"));
  }
}

TEST_F(DiffusionTest, DisjunctionUnionsCandidates) {
  auto result = app_->Diffuse(1, "pilot OR retired", "msg", rng_);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->targets, Expected("pilot OR retired"));
}

TEST_F(DiffusionTest, NonMatchingNodesReceiveNothing) {
  auto result = app_->Diffuse(1, "pilot", "only pilots", rng_);
  ASSERT_TRUE(result.ok());
  std::set<uint32_t> targets(result->targets.begin(),
                             result->targets.end());
  for (uint32_t i = 0; i < pdms_.size(); ++i) {
    if (targets.count(i) == 0) {
      EXPECT_TRUE(pdms_[i].inbox().empty()) << i;
    }
  }
}

TEST_F(DiffusionTest, MalformedExpressionFailsCleanly) {
  auto result = app_->Diffuse(1, "NOT pilot", "msg", rng_);
  EXPECT_FALSE(result.ok());
  auto result2 = app_->Diffuse(1, "pilot AND", "msg", rng_);
  EXPECT_FALSE(result2.ok());
}

TEST_F(DiffusionTest, TargetFindersAreSelectedSecurely) {
  auto result = app_->Diffuse(1, "pilot", "msg", rng_);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->target_finders.size(), 4u);
  EXPECT_EQ(result->indexer_rejections, 0);
  EXPECT_GT(result->indexers_contacted, 0);
}

TEST_F(DiffusionTest, UnknownConceptReachesNobody) {
  auto result = app_->Diffuse(1, "astronaut", "msg", rng_);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->targets.empty());
}

TEST_F(DiffusionTest, FaultFreeDiffusionHasNoDegradation) {
  auto result = app_->Diffuse(1, "pilot", "msg", rng_);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->selection_restarts, 0);
  EXPECT_EQ(result->indexer_failures, 0);
  EXPECT_EQ(result->offer_failures, 0);
  EXPECT_GT(result->candidates_contacted, 0);
  EXPECT_GT(result->round_latency_us, 0u);
}

TEST_F(DiffusionTest, LossyOffersDegradeToASubsetOfTrueTargets) {
  // Publish over a clean network, then diffuse over a lossy one: some
  // offers (or index lookups) exhaust their retries, but whoever IS
  // reached is a genuine match and actually received the message.
  net::SimNetwork lossy = test::MakeSimNet(1200, /*drop=*/0.25,
                                           /*jitter_mean_us=*/0, /*seed=*/6);
  node::AppRuntime runtime(&lossy);
  ConceptIndex index(network_.get(), &runtime);
  DiffusionApp app(network_.get(), &pdms_, &index, &runtime);
  util::Rng rng(31);
  ASSERT_TRUE(app.PublishAllProfiles(rng).ok());
  auto result = app.Diffuse(1, "pilot", "lossy hello", rng);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_GT(lossy.stats().retries, 0u);

  std::vector<uint32_t> expected = Expected("pilot");
  std::set<uint32_t> expected_set(expected.begin(), expected.end());
  EXPECT_LE(result->targets.size(), expected.size());
  for (uint32_t target : result->targets) {
    EXPECT_EQ(expected_set.count(target), 1u) << target;
    // Exactly one copy despite retransmissions (offer-id dedup).
    EXPECT_EQ(pdms_[target].inbox().size(), 1u) << target;
  }
  // The degradation is reported, never silent: whatever is missing from
  // the target set is accounted for by a failure counter (a share lost
  // during publish also shrinks the candidate set).
  if (result->targets.size() < expected.size()) {
    EXPECT_GT(result->offer_failures + result->indexer_failures +
                  static_cast<int>(expected.size()) -
                  result->candidates_contacted,
              0);
  }
}

TEST_F(DiffusionTest, WorksWithShamirShardedIndex) {
  ConceptIndex::Options options;
  options.shamir_threshold = 2;
  options.shamir_shares = 3;
  net::SimNetwork simnet = test::MakeZeroFaultSimNet(1200);
  node::AppRuntime runtime(&simnet);
  ConceptIndex sharded(network_.get(), &runtime, options);
  DiffusionApp app(network_.get(), &pdms_, &sharded, &runtime);
  util::Rng rng(7);
  ASSERT_TRUE(app.PublishAllProfiles(rng).ok());
  auto result = app.Diffuse(1, "pilot AND age:40s", "msg", rng);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->targets, Expected("pilot AND age:40s"));
}

}  // namespace
}  // namespace sep2p::apps
