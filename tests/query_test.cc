#include "apps/query.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "core/messages.h"
#include "crypto/sealed.h"
#include "tests/test_util.h"

namespace sep2p::apps {
namespace {

namespace msg = core::msg;

class QueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    network_ = test::MakeNetwork(1200, 0.01, /*cache=*/160);
    ASSERT_NE(network_, nullptr);
    for (uint32_t i = 0; i < network_->directory().size(); ++i) {
      pdms_.emplace_back(i);
    }
    // Pilots (i % 5 == 0) in their forties (i % 3 == 0) have a known
    // number of sick-leave days: i % 10.
    for (uint32_t i = 0; i < pdms_.size(); ++i) {
      if (i % 5 == 0) pdms_[i].AddConcept("pilot");
      if (i % 3 == 0) pdms_[i].AddConcept("age:40s");
      pdms_[i].SetAttribute("sick_leave_days", i % 10);
    }
    simnet_ = std::make_unique<net::SimNetwork>(
        test::MakeZeroFaultSimNet(1200));
    runtime_ = std::make_unique<node::AppRuntime>(simnet_.get());
    index_ = std::make_unique<ConceptIndex>(network_.get(), runtime_.get());
    DiffusionApp publish_helper(network_.get(), &pdms_, index_.get(),
                                runtime_.get());
    util::Rng rng(5);
    ASSERT_TRUE(publish_helper.PublishAllProfiles(rng).ok());
    app_ = std::make_unique<QueryApp>(network_.get(), &pdms_, index_.get(),
                                      runtime_.get());
  }

  double ExpectedAverage() {
    double sum = 0;
    int count = 0;
    for (uint32_t i = 0; i < pdms_.size(); ++i) {
      if (i % 15 == 0) {
        sum += i % 10;
        ++count;
      }
    }
    return sum / count;
  }

  std::unique_ptr<sim::Network> network_;
  std::vector<node::PdmsNode> pdms_;
  std::unique_ptr<net::SimNetwork> simnet_;
  std::unique_ptr<node::AppRuntime> runtime_;
  std::unique_ptr<ConceptIndex> index_;
  std::unique_ptr<QueryApp> app_;
  util::Rng rng_{23};
};

TEST_F(QueryTest, AverageOverProfiledSubset) {
  QuerySpec spec;
  spec.profile_expression = "pilot AND age:40s";
  spec.attribute = "sick_leave_days";
  spec.aggregate = Aggregate::kAvg;
  auto result = app_->Execute(/*querier=*/2, spec, rng_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->contributors, 80u);  // 1200 / 15
  EXPECT_NEAR(result->value, ExpectedAverage(), 1e-9);
}

TEST_F(QueryTest, CountSumMinMax) {
  QuerySpec spec;
  spec.profile_expression = "pilot AND age:40s";
  spec.attribute = "sick_leave_days";

  spec.aggregate = Aggregate::kCount;
  auto count = app_->Execute(2, spec, rng_);
  ASSERT_TRUE(count.ok());
  EXPECT_DOUBLE_EQ(count->value, 80.0);

  spec.aggregate = Aggregate::kSum;
  auto sum = app_->Execute(2, spec, rng_);
  ASSERT_TRUE(sum.ok());
  EXPECT_NEAR(sum->value, ExpectedAverage() * 80, 1e-9);

  spec.aggregate = Aggregate::kMin;
  auto min = app_->Execute(2, spec, rng_);
  ASSERT_TRUE(min.ok());
  EXPECT_DOUBLE_EQ(min->value, 0.0);

  spec.aggregate = Aggregate::kMax;
  auto max = app_->Execute(2, spec, rng_);
  ASSERT_TRUE(max.ok());
  // Multiples of 15 mod 10 cycle {0,5}: max is 5.
  EXPECT_DOUBLE_EQ(max->value, 5.0);
}

TEST_F(QueryTest, EmptyTargetSetYieldsZero) {
  QuerySpec spec;
  spec.profile_expression = "astronaut";
  spec.attribute = "sick_leave_days";
  auto result = app_->Execute(2, spec, rng_);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->contributors, 0u);
  EXPECT_DOUBLE_EQ(result->value, 0.0);
}

TEST_F(QueryTest, MissingAttributeSkipsContributor) {
  // Re-create one known target (node 15) without the attribute.
  pdms_[15] = node::PdmsNode(15);
  pdms_[15].AddConcept("pilot");
  pdms_[15].AddConcept("age:40s");
  QuerySpec spec;
  spec.profile_expression = "pilot AND age:40s";
  spec.attribute = "sick_leave_days";
  auto result = app_->Execute(2, spec, rng_);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->contributors, 79u);
}

TEST_F(QueryTest, KnowledgeSeparationBetweenDasAndProxies) {
  QuerySpec spec;
  spec.profile_expression = "pilot AND age:40s";
  spec.attribute = "sick_leave_days";
  auto result = app_->Execute(2, spec, rng_);
  ASSERT_TRUE(result.ok());

  // DAs saw exactly the contributed values — but the trace carries no
  // sender identities; proxies saw the senders but no values.
  EXPECT_EQ(result->values_seen_by_da.size(), result->contributors);
  EXPECT_EQ(result->senders_seen_by_proxies.size(), result->contributors);
  std::vector<uint32_t> senders = result->senders_seen_by_proxies;
  std::sort(senders.begin(), senders.end());
  for (uint32_t sender : senders) {
    EXPECT_EQ(sender % 15, 0u);  // the actual targets
  }
}

TEST_F(QueryTest, FaultFreeQueryDeliversAnswerWithoutDegradation) {
  QuerySpec spec;
  spec.profile_expression = "pilot AND age:40s";
  spec.attribute = "sick_leave_days";
  auto result = app_->Execute(2, spec, rng_);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->answer_delivered);
  EXPECT_EQ(result->da_failovers, 0);
  EXPECT_EQ(result->lost_contributions, 0);
  EXPECT_EQ(result->selection_restarts, 0);
  EXPECT_EQ(result->target_finding_restarts, 0);
  EXPECT_GT(result->round_latency_us, 0u);
}

TEST_F(QueryTest, CrashedAggregatorIsReplacedByFailover) {
  QuerySpec spec;
  spec.profile_expression = "pilot AND age:40s";
  spec.attribute = "sick_leave_days";

  // Build an identical stack twice (same seeds everywhere); the second
  // run crashes one DA right after the selection completes, so the
  // selection trace is bit-identical and only the aggregation phase has
  // to route around the corpse.
  auto run = [&](std::optional<uint32_t> crash_node, uint64_t crash_at_us)
      -> Result<QueryApp::QueryResult> {
    net::SimNetwork simnet = test::MakeZeroFaultSimNet(1200);
    if (crash_node.has_value()) simnet.CrashAt(*crash_node, crash_at_us);
    node::AppRuntime runtime(&simnet);
    ConceptIndex index(network_.get(), &runtime);
    DiffusionApp publisher(network_.get(), &pdms_, &index, &runtime);
    util::Rng publish_rng(5);
    auto published = publisher.PublishAllProfiles(publish_rng);
    if (!published.ok()) return published.status();
    QueryApp app(network_.get(), &pdms_, &index, &runtime);
    util::Rng rng(23);
    return app.Execute(2, spec, rng);
  };

  auto baseline = run(std::nullopt, 0);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  ASSERT_GT(baseline->aggregators.size(), 1u);
  EXPECT_EQ(baseline->da_failovers, 0);

  // Kill a non-MDA aggregator the microsecond after it was selected.
  auto crashed = run(baseline->aggregators[1],
                     baseline->selection_done_us + 1);
  ASSERT_TRUE(crashed.ok()) << crashed.status().ToString();
  EXPECT_EQ(crashed->aggregators, baseline->aggregators);  // same trace
  EXPECT_GT(crashed->da_failovers, 0);
  EXPECT_EQ(crashed->lost_contributions, 0);  // spares absorbed it all
  EXPECT_EQ(crashed->contributors, baseline->contributors);
  EXPECT_NEAR(crashed->value, baseline->value, 1e-9);
}

TEST_F(QueryTest, RetriesNeverCountAContributionTwice) {
  // Lossy transport forcing retransmissions and proxy re-picks: the
  // round-global dedup on contribution ids must keep every contribution
  // counted at most once, and the knowledge-separation traces bounded by
  // the true target population (80 nodes match pilot AND age:40s).
  net::SimNetwork lossy = test::MakeSimNet(1200, /*drop=*/0.15,
                                           /*jitter_mean_us=*/0, /*seed=*/3);
  node::AppRuntime runtime(&lossy);
  ConceptIndex index(network_.get(), &runtime);
  DiffusionApp publisher(network_.get(), &pdms_, &index, &runtime);
  util::Rng publish_rng(5);
  ASSERT_TRUE(publisher.PublishAllProfiles(publish_rng).ok());
  QueryApp app(network_.get(), &pdms_, &index, &runtime);
  util::Rng rng(23);

  QuerySpec spec;
  spec.profile_expression = "pilot AND age:40s";
  spec.attribute = "sick_leave_days";
  auto result = app.Execute(2, spec, rng);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_GT(lossy.stats().retries, 0u);  // dedup actually exercised

  EXPECT_LE(result->contributors, 80u);
  EXPECT_LE(result->values_seen_by_da.size(), 80u);  // no double count
  EXPECT_GE(result->values_seen_by_da.size(), result->contributors);
  // Proxies saw only genuine targets, values never rode with them.
  for (uint32_t sender : result->senders_seen_by_proxies) {
    EXPECT_EQ(sender % 15, 0u);
  }
  if (result->contributors > 0) {
    // Whatever survived still averages inside the attribute's range.
    EXPECT_GE(result->value, 0.0);
    EXPECT_LE(result->value, 9.0);
  }
}

// A round's tags are served only at the nodes holding its roles: the
// DAs open sealed deliveries, the MDA and the querier take answers.
// Elsewhere, and before any round, an answer is refused and the call
// times out as against a deaf node; a sealed delivery to a node that is
// no DA is only acknowledged.
TEST_F(QueryTest, OnlyTheRoundsRolesAnswerItsTags) {
  const uint32_t querier = 2;
  msg::QueryAnswer answer;
  answer.da_slot = 0;
  auto refused = [&](uint32_t server, const std::vector<uint8_t>& request) {
    net::Transport::RpcResult rpc = runtime_->Call(querier, server, request);
    EXPECT_FALSE(rpc.ok) << "node " << server;
    EXPECT_EQ(rpc.attempts, simnet_->retry().max_attempts) << "node " << server;
  };
  auto acked = [&](uint32_t server, const std::vector<uint8_t>& request) {
    net::Transport::RpcResult rpc = runtime_->Call(querier, server, request);
    ASSERT_TRUE(rpc.ok) << "node " << server;
    EXPECT_TRUE(msg::Decode<msg::AppAck>(rpc.reply).ok()) << "node " << server;
  };
  auto sealed_to = [&](uint32_t node) {
    std::vector<uint8_t> payload(sizeof(double));
    const double value = 4.0;
    std::memcpy(payload.data(), &value, sizeof(double));
    msg::SealedDelivery delivery;
    delivery.contribution_id = uint64_t{1} << 40;  // no runtime id
    delivery.sealed = crypto::SealForRecipient(network_->directory().pub(node),
                                               payload, rng_);
    return msg::Encode(delivery);
  };

  refused(querier, msg::Encode(answer));  // no round yet
  refused(5, msg::Encode(answer));

  QuerySpec spec;
  spec.profile_expression = "pilot AND age:40s";
  spec.attribute = "sick_leave_days";
  auto result = app_->Execute(querier, spec, rng_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const std::vector<uint32_t>& das = result->aggregators;
  ASSERT_GT(das.size(), 1u);
  const uint32_t mda = das.front();
  uint32_t outsider = 0;
  while (outsider == querier ||
         std::find(das.begin(), das.end(), outsider) != das.end()) {
    ++outsider;
  }

  refused(outsider, msg::Encode(answer));
  if (das[1] != querier) refused(das[1], msg::Encode(answer));
  acked(mda, msg::Encode(answer));
  answer.da_slot = msg::kMergedSlot;
  acked(querier, msg::Encode(answer));

  acked(outsider, sealed_to(outsider));
  acked(das[1], sealed_to(das[1]));
}

// A delivery its DA cannot open (here a 3-byte value) is refused on
// every attempt, and again when sent anew under the same id: the DA
// records an id only once its value opened, so no retransmission
// acknowledges a contribution the DA never took.
TEST_F(QueryTest, UnopenedDeliveryIsNeverAcknowledged) {
  const uint32_t querier = 2;
  QuerySpec spec;
  spec.profile_expression = "astronaut";  // no contributor
  spec.attribute = "sick_leave_days";
  auto result = app_->Execute(querier, spec, rng_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_GT(result->aggregators.size(), 1u);
  const uint32_t slot = 1;
  const uint32_t da = result->aggregators[slot];

  msg::SealedDelivery delivery;
  delivery.contribution_id = uint64_t{1} << 40;  // no runtime id
  delivery.sealed = crypto::SealForRecipient(
      network_->directory().pub(da), std::vector<uint8_t>(3, 0x5a), rng_);
  for (int call = 0; call < 2; ++call) {
    net::Transport::RpcResult rpc =
        runtime_->Call(querier, da, msg::Encode(delivery));
    EXPECT_FALSE(rpc.ok) << "call " << call;
    EXPECT_EQ(rpc.attempts, simnet_->retry().max_attempts) << "call " << call;
  }

  const msg::QueryFlush flush{/*round_id=*/0, slot};  // a sim round's id
  net::Transport::RpcResult flushed =
      runtime_->Call(querier, da, msg::Encode(flush));
  ASSERT_TRUE(flushed.ok);
  Result<msg::QueryAnswer> partial =
      msg::Decode<msg::QueryAnswer>(flushed.reply);
  ASSERT_TRUE(partial.ok());
  EXPECT_EQ(partial->count, 0u);
}

TEST_F(QueryTest, AggregatorsChangePerQuery) {
  QuerySpec spec;
  spec.profile_expression = "pilot";
  spec.attribute = "sick_leave_days";
  auto a = app_->Execute(2, spec, rng_);
  auto b = app_->Execute(2, spec, rng_);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(a->aggregators, b->aggregators);
}

}  // namespace
}  // namespace sep2p::apps
