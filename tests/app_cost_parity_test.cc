// Fault-free cost parity: on a zero-drop, zero-jitter SimNetwork the
// network-measured Cost of every application round must equal the
// closed-form message counts the pre-runtime code charged by hand.

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "apps/concept_index.h"
#include "apps/diffusion.h"
#include "apps/proxy.h"
#include "apps/query.h"
#include "apps/sensing.h"
#include "crypto/hash256.h"
#include "tests/test_util.h"

namespace sep2p::apps {
namespace {

class AppCostParityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    network_ = test::MakeNetwork(1200, 0.01, /*cache=*/160);
    ASSERT_NE(network_, nullptr);
    for (uint32_t i = 0; i < network_->directory().size(); ++i) {
      pdms_.emplace_back(i);
    }
    for (uint32_t i = 0; i < pdms_.size(); ++i) {
      if (i % 5 == 0) pdms_[i].AddConcept("pilot");
      if (i % 3 == 0) pdms_[i].AddConcept("age:40s");
      pdms_[i].SetAttribute("sick_leave_days", (i % 10) * 1.0);
    }
    simnet_ = std::make_unique<net::SimNetwork>(
        test::MakeZeroFaultSimNet(1200));
    runtime_ = std::make_unique<node::AppRuntime>(simnet_.get());
  }

  // Messages a DHT store/lookup for `share_key` costs: the routing hops
  // plus the indexer round trip.
  double RouteMessages(uint32_t from, const std::string& share_key) {
    auto route = network_->overlay().RouteKey(
        from, crypto::Hash256::Of(share_key));
    EXPECT_TRUE(route.ok());
    return route->hops + 1.0;
  }

  std::unique_ptr<sim::Network> network_;
  std::vector<node::PdmsNode> pdms_;
  std::unique_ptr<net::SimNetwork> simnet_;
  std::unique_ptr<node::AppRuntime> runtime_;
  util::Rng rng_{19};
};

TEST_F(AppCostParityTest, ProxyDeliveryCostsTwoMessages) {
  test::ServeProxyDeliveries(*simnet_);
  auto delivery = ForwardViaProxy(*runtime_, *network_, 3,
                                  network_->directory().pub(7),
                                  {1, 2, 3}, rng_);
  ASSERT_TRUE(delivery.ok());
  EXPECT_TRUE(delivery->delivered_ok);
  EXPECT_DOUBLE_EQ(delivery->cost.msg_work, 2.0);
  EXPECT_DOUBLE_EQ(delivery->cost.msg_latency, 2.0);
}

TEST_F(AppCostParityTest, ProxyChainCostsChainPlusOneMessages) {
  test::ServeProxyDeliveries(*simnet_);
  auto delivery = ForwardViaProxy(*runtime_, *network_, 3,
                                  network_->directory().pub(7), {1, 2, 3},
                                  rng_, /*relays=*/3);
  ASSERT_TRUE(delivery.ok());
  EXPECT_TRUE(delivery->delivered_ok);
  EXPECT_DOUBLE_EQ(delivery->cost.msg_work, 4.0);
}

TEST_F(AppCostParityTest, ConceptIndexPublishAndLookupMatchRouting) {
  ConceptIndex index(network_.get(), runtime_.get());  // p = s = 1
  std::set<std::string> concepts = {"pilot", "age:40s"};
  auto publish = index.Publish(17, concepts, rng_);
  ASSERT_TRUE(publish.ok());
  double expected = 0;
  for (const std::string& c : concepts) expected += RouteMessages(17, c + "#0");
  EXPECT_DOUBLE_EQ(publish->msg_work, expected);

  auto lookup = index.Lookup(23, "pilot");
  ASSERT_TRUE(lookup.ok());
  EXPECT_FALSE(lookup->indexer_unreachable);
  EXPECT_DOUBLE_EQ(lookup->cost.msg_work, RouteMessages(23, "pilot#0"));
}

TEST_F(AppCostParityTest, SensingRoundMatchesLegacyCounters) {
  ParticipatorySensingApp::Config config;
  config.aggregator_count = 4;
  ParticipatorySensingApp app(network_.get(), &pdms_, runtime_.get(),
                              config);
  app.GenerateWorkload(/*sources=*/50, /*readings_per_source=*/4, rng_);
  auto round = app.RunRound(3, rng_);
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  ASSERT_EQ(round->readings_delivered, round->readings_sent);

  // Legacy: one message per contribution, one partial per DA, one
  // publish of the merged aggregate.
  EXPECT_DOUBLE_EQ(round->cost.msg_work,
                   round->selection_cost.msg_work + round->readings_sent +
                       config.aggregator_count + 1);
  // Legacy: every source verifies the DA actor list (2k asymmetric ops).
  EXPECT_DOUBLE_EQ(round->cost.crypto_work,
                   round->selection_cost.crypto_work +
                       round->sources * round->per_source_verification_ops);
  EXPECT_GT(round->per_source_verification_ops, 0);
}

TEST_F(AppCostParityTest, DiffusionRoundMatchesLegacyCounters) {
  ConceptIndex index(network_.get(), runtime_.get());
  DiffusionApp app(network_.get(), &pdms_, &index, runtime_.get());
  ASSERT_TRUE(app.PublishAllProfiles(rng_).ok());
  auto result = app.Diffuse(1, "pilot", "msg", rng_);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->offer_failures, 0);
  ASSERT_EQ(result->indexer_failures, 0);

  // Legacy: the TF's index lookup plus one offer per candidate. The
  // lookup route is deterministic, so re-running it re-measures it.
  auto lookup = index.Lookup(result->target_finders[0], "pilot");
  ASSERT_TRUE(lookup.ok());
  EXPECT_DOUBLE_EQ(result->cost.msg_work,
                   result->selection_cost.msg_work + lookup->cost.msg_work +
                       result->candidates_contacted);

  // Legacy: one VAL verification (2k asymmetric ops) per contacted MI.
  const double verif =
      result->cost.crypto_work - result->selection_cost.crypto_work;
  ASSERT_GT(result->indexers_contacted, 0);
  const double per_indexer = verif / result->indexers_contacted;
  EXPECT_GT(per_indexer, 0);
  EXPECT_DOUBLE_EQ(per_indexer, 2.0 * std::round(per_indexer / 2.0));
}

TEST_F(AppCostParityTest, QueryRoundMatchesLegacyCounters) {
  ConceptIndex index(network_.get(), runtime_.get());
  DiffusionApp publisher(network_.get(), &pdms_, &index, runtime_.get());
  ASSERT_TRUE(publisher.PublishAllProfiles(rng_).ok());

  QueryApp app(network_.get(), &pdms_, &index, runtime_.get());
  QuerySpec spec;
  spec.profile_expression = "pilot AND age:40s";
  spec.attribute = "sick_leave_days";
  spec.aggregate = Aggregate::kAvg;
  auto result = app.Execute(2, spec, rng_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(result->answer_delivered);
  ASSERT_EQ(result->lost_contributions, 0);
  ASSERT_EQ(result->da_failovers, 0);
  ASSERT_GT(result->contributors, 0u);

  // Legacy: two messages per contribution (target -> proxy -> DA), one
  // partial per DA slot, one merged answer back to the querier.
  const double app_msgs = result->cost.msg_work -
                          result->target_finding_cost.msg_work -
                          result->selection_cost.msg_work;
  EXPECT_DOUBLE_EQ(app_msgs, 2.0 * result->contributors +
                                 result->aggregators.size() + 1);

  // Legacy: one VAL verification (2k asymmetric ops) per contributor.
  const double verif = result->cost.crypto_work -
                       result->target_finding_cost.crypto_work -
                       result->selection_cost.crypto_work;
  const double per_contributor = verif / result->contributors;
  EXPECT_GT(per_contributor, 0);
  EXPECT_DOUBLE_EQ(per_contributor,
                   2.0 * std::round(per_contributor / 2.0));
}

}  // namespace
}  // namespace sep2p::apps
