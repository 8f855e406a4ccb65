#include "apps/sensing.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "core/messages.h"
#include "crypto/sealed.h"
#include "tests/test_util.h"

namespace sep2p::apps {
namespace {

namespace msg = core::msg;

class SensingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    network_ = test::MakeNetwork(1500, 0.01, /*cache=*/192);
    ASSERT_NE(network_, nullptr);
    for (uint32_t i = 0; i < network_->directory().size(); ++i) {
      pdms_.emplace_back(i);
    }
    simnet_ = std::make_unique<net::SimNetwork>(
        test::MakeZeroFaultSimNet(1500));
    runtime_ = std::make_unique<node::AppRuntime>(simnet_.get());
  }

  std::unique_ptr<sim::Network> network_;
  std::vector<node::PdmsNode> pdms_;
  std::unique_ptr<net::SimNetwork> simnet_;
  std::unique_ptr<node::AppRuntime> runtime_;
  util::Rng rng_{17};
};

TEST_F(SensingTest, AggregateApproximatesGroundTruth) {
  ParticipatorySensingApp app(network_.get(), &pdms_, runtime_.get());
  app.GenerateWorkload(/*sources=*/300, /*readings_per_source=*/10, rng_);
  auto round = app.RunRound(/*trigger_index=*/3, rng_);
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  EXPECT_EQ(round->sources, 300);
  EXPECT_EQ(round->aggregate.total_count(), 3000u);
  for (int ix = 0; ix < round->aggregate.grid; ++ix) {
    for (int iy = 0; iy < round->aggregate.grid; ++iy) {
      const CellStat& cell = round->aggregate.at(ix, iy);
      if (cell.count < 20) continue;  // sparse cells are noisy
      EXPECT_NEAR(cell.average(), app.GroundTruth(ix, iy), 0.5)
          << "cell " << ix << "," << iy;
    }
  }
}

TEST_F(SensingTest, AggregatorsAreSelectedSecurely) {
  ParticipatorySensingApp::Config config;
  config.aggregator_count = 6;
  ParticipatorySensingApp app(network_.get(), &pdms_, runtime_.get(), config);
  app.GenerateWorkload(50, 4, rng_);
  auto round = app.RunRound(9, rng_);
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round->aggregators.size(), 6u);
  EXPECT_EQ(round->main_aggregator, round->aggregators[0]);
  EXPECT_EQ(round->verifier_rejections, 0);
}

TEST_F(SensingTest, EverySourcePaysTwoKVerification) {
  ParticipatorySensingApp app(network_.get(), &pdms_, runtime_.get());
  app.GenerateWorkload(40, 2, rng_);
  auto round = app.RunRound(5, rng_);
  ASSERT_TRUE(round.ok());
  // 2k with k >= 2, and even.
  EXPECT_GE(round->per_source_verification_ops, 4);
  EXPECT_EQ(static_cast<int>(round->per_source_verification_ops) % 2, 0);
}

TEST_F(SensingTest, DataSeenByDasIsAnonymizedButComplete) {
  ParticipatorySensingApp app(network_.get(), &pdms_, runtime_.get());
  app.GenerateWorkload(100, 5, rng_);
  auto round = app.RunRound(2, rng_);
  ASSERT_TRUE(round.ok());
  size_t total_seen = 0;
  for (const auto& values : round->values_seen_by_da) {
    total_seen += values.size();
  }
  // Task atomicity: all readings flow through the DAs (values only), and
  // no single DA sees everything.
  EXPECT_EQ(total_seen, 500u);
  for (const auto& values : round->values_seen_by_da) {
    EXPECT_LT(values.size(), total_seen);
  }
}

TEST_F(SensingTest, NoReadingsMeansEmptyAggregate) {
  ParticipatorySensingApp app(network_.get(), &pdms_, runtime_.get());
  auto round = app.RunRound(1, rng_);
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round->sources, 0);
  EXPECT_EQ(round->aggregate.total_count(), 0u);
}

TEST_F(SensingTest, RepeatedRoundsRotateAggregators) {
  // "Selected DA nodes will change at each iteration" (§5.3): different
  // rounds land in different DHT regions.
  ParticipatorySensingApp app(network_.get(), &pdms_, runtime_.get());
  app.GenerateWorkload(20, 1, rng_);
  auto r1 = app.RunRound(4, rng_);
  auto r2 = app.RunRound(4, rng_);
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_NE(r1->aggregators, r2->aggregators);
}

TEST_F(SensingTest, ContinuousRoundsRotateAggregatorsAndBoundLeakage) {
  ParticipatorySensingApp::Config config;
  config.aggregator_count = 8;
  ParticipatorySensingApp app(network_.get(), &pdms_, runtime_.get(), config);
  app.GenerateWorkload(/*sources=*/120, /*readings_per_source=*/3, rng_);

  auto result = app.RunContinuous(/*rounds=*/12, rng_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->total_values, 12u * 360u);

  // Rotation: far more distinct aggregators than one round's worth.
  EXPECT_GT(result->distinct_aggregators, 3 * config.aggregator_count);

  // Leakage bound: a single round's DA sees ~1/A of that round, i.e.
  // ~1/(A*rounds) of the stream; even with collisions nobody should
  // approach a full round's share of the total.
  EXPECT_LT(result->max_fraction_seen_by_one_node, 1.0 / 12);
}

TEST_F(SensingTest, FaultFreeRoundDeliversEverythingAndPublishes) {
  ParticipatorySensingApp app(network_.get(), &pdms_, runtime_.get());
  app.GenerateWorkload(80, 4, rng_);
  auto round = app.RunRound(6, rng_);
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round->selection_restarts, 0);
  EXPECT_EQ(round->readings_sent, 320);
  EXPECT_EQ(round->readings_delivered, 320);
  EXPECT_EQ(round->partials_merged,
            static_cast<int>(round->aggregators.size()));
  EXPECT_TRUE(round->published);
  EXPECT_GT(round->round_latency_us, 0u);
  EXPECT_EQ(simnet_->stats().retries, 0u);
}

// A round's tags are served only at the nodes holding its roles: the
// DAs take contributions, the MDA and the trigger take partials.
// Elsewhere, and before any round, the node refuses and the call times
// out as against a deaf node.
TEST_F(SensingTest, OnlyTheRoundsRolesAnswerItsTags) {
  ParticipatorySensingApp app(network_.get(), &pdms_, runtime_.get());
  const uint32_t trigger = 3;
  const int grid = ParticipatorySensingApp::Config().grid;
  msg::SensingPartial partial;
  partial.da_slot = 0;
  partial.grid = static_cast<uint16_t>(grid);
  partial.sums.assign(grid * grid, 0.0);
  partial.counts.assign(grid * grid, 0);
  auto refused = [&](uint32_t server, const std::vector<uint8_t>& request) {
    net::Transport::RpcResult rpc = runtime_->Call(trigger, server, request);
    EXPECT_FALSE(rpc.ok) << "node " << server;
    EXPECT_EQ(rpc.attempts, simnet_->retry().max_attempts) << "node " << server;
  };
  auto acked = [&](uint32_t server, const std::vector<uint8_t>& request) {
    net::Transport::RpcResult rpc = runtime_->Call(trigger, server, request);
    ASSERT_TRUE(rpc.ok) << "node " << server;
    EXPECT_TRUE(msg::Decode<msg::AppAck>(rpc.reply).ok()) << "node " << server;
  };
  auto contribution_to = [&](uint32_t node) {
    std::vector<uint8_t> payload(sizeof(double));
    const double value = 40.0;
    std::memcpy(payload.data(), &value, sizeof(double));
    msg::SensingContribution tuple;
    tuple.contribution_id = uint64_t{1} << 40;  // no runtime id
    tuple.cell = 0;
    tuple.sealed = crypto::SealForRecipient(network_->directory().pub(node),
                                            payload, rng_);
    return msg::Encode(tuple);
  };

  refused(5, contribution_to(5));  // no round yet
  refused(trigger, msg::Encode(partial));

  app.GenerateWorkload(50, 4, rng_);
  auto round = app.RunRound(trigger, rng_);
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  const std::vector<uint32_t>& das = round->aggregators;
  ASSERT_GT(das.size(), 1u);
  uint32_t outsider = 0;
  while (outsider == trigger ||
         std::find(das.begin(), das.end(), outsider) != das.end()) {
    ++outsider;
  }

  refused(outsider, contribution_to(outsider));
  refused(outsider, msg::Encode(partial));
  if (das[1] != trigger) refused(das[1], msg::Encode(partial));
  acked(das[1], contribution_to(das[1]));
  acked(round->main_aggregator, msg::Encode(partial));
  partial.da_slot = msg::kMergedSlot;
  acked(trigger, msg::Encode(partial));
}

// A partial whose count list is shorter than its sum list is refused,
// not read past its end.
TEST_F(SensingTest, PartialWithShortCountsIsRefused) {
  ParticipatorySensingApp app(network_.get(), &pdms_, runtime_.get());
  app.GenerateWorkload(20, 2, rng_);
  auto round = app.RunRound(/*trigger_index=*/3, rng_);
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  msg::SensingPartial partial;
  partial.da_slot = 0;
  partial.grid = static_cast<uint16_t>(round->aggregate.grid);
  partial.sums.assign(round->aggregate.cells.size(), 1.0);
  net::Transport::RpcResult rpc = runtime_->Call(
      round->aggregators[0], round->main_aggregator, msg::Encode(partial));
  EXPECT_FALSE(rpc.ok);
}

// A contribution its DA cannot take is refused on every attempt, and
// again when sent anew under the same id: a 3-byte value, a cell past
// the grid, and a cell whose top bit is set. The DA records an id only
// once its tuple opened and named a cell, so no retransmission
// acknowledges a contribution the DA never took; a valid tuple under
// the same id is then taken.
TEST_F(SensingTest, UnopenedContributionIsNeverAcknowledged) {
  ParticipatorySensingApp app(network_.get(), &pdms_, runtime_.get());
  const uint32_t trigger = 3;
  auto round = app.RunRound(trigger, rng_);  // no readings
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  EXPECT_EQ(round->aggregate.total_count(), 0u);
  ASSERT_FALSE(round->aggregators.empty());
  const uint32_t da = round->aggregators.back();
  const int grid = ParticipatorySensingApp::Config().grid;

  auto contribution = [&](uint32_t cell, size_t value_size) {
    msg::SensingContribution tuple;
    tuple.contribution_id = uint64_t{1} << 40;  // no runtime id
    tuple.cell = cell;
    tuple.sealed = crypto::SealForRecipient(
        network_->directory().pub(da), std::vector<uint8_t>(value_size, 0),
        rng_);
    return msg::Encode(tuple);
  };
  const std::vector<uint8_t> refused[] = {
      contribution(0, 3), contribution(grid * grid, sizeof(double)),
      contribution(uint32_t{1} << 31, sizeof(double))};
  for (const std::vector<uint8_t>& request : refused) {
    for (int call = 0; call < 2; ++call) {
      net::Transport::RpcResult rpc = runtime_->Call(trigger, da, request);
      EXPECT_FALSE(rpc.ok) << "call " << call;
      EXPECT_EQ(rpc.attempts, simnet_->retry().max_attempts)
          << "call " << call;
    }
  }
  net::Transport::RpcResult taken =
      runtime_->Call(trigger, da, contribution(0, sizeof(double)));
  ASSERT_TRUE(taken.ok);
  EXPECT_EQ(taken.attempts, 1);
}

TEST_F(SensingTest, LossyRoundDegradesButAveragesStayCorrect) {
  // Heavy loss: some contributions exhaust their retries. The round must
  // still complete, report the shrinkage honestly, and the merged
  // per-cell statistics must equal exactly what the DAs accepted —
  // no contribution double-counted, none invented.
  net::SimNetwork lossy = test::MakeSimNet(1500, /*drop=*/0.3,
                                           /*jitter_mean_us=*/0, /*seed=*/5);
  node::AppRuntime runtime(&lossy);
  ParticipatorySensingApp app(network_.get(), &pdms_, &runtime);
  app.GenerateWorkload(100, 5, rng_);
  auto round = app.RunRound(2, rng_);
  ASSERT_TRUE(round.ok()) << round.status().ToString();

  EXPECT_EQ(round->readings_sent, 500);
  EXPECT_GT(round->readings_delivered, 0);
  EXPECT_LT(round->readings_delivered, 500);  // with drop=0.3 some lose
  EXPECT_GT(lossy.stats().retries, 0u);

  // The merged aggregate counts exactly the values the DAs saw: dedup
  // under retransmission, and a lost partial only shrinks it further.
  // (seen can exceed delivered: a DA may accept a tuple whose ack is
  // then lost, making the client give up on an accepted contribution.)
  uint64_t seen_by_das = 0;
  for (const auto& values : round->values_seen_by_da) {
    seen_by_das += values.size();
  }
  EXPECT_GE(seen_by_das, static_cast<uint64_t>(round->readings_delivered));
  EXPECT_LE(seen_by_das, static_cast<uint64_t>(round->readings_sent));
  EXPECT_LE(round->aggregate.total_count(), seen_by_das);
  if (round->partials_merged ==
      static_cast<int>(round->aggregators.size())) {
    EXPECT_EQ(round->aggregate.total_count(), seen_by_das);
  }

  // Surviving dense cells still average to the ground truth: loss thins
  // the sample but never corrupts it.
  for (int ix = 0; ix < round->aggregate.grid; ++ix) {
    for (int iy = 0; iy < round->aggregate.grid; ++iy) {
      const CellStat& cell = round->aggregate.at(ix, iy);
      if (cell.count < 15) continue;
      EXPECT_NEAR(cell.average(), app.GroundTruth(ix, iy), 1.0)
          << "cell " << ix << "," << iy;
    }
  }
}

TEST_F(SensingTest, RetransmissionsNeverDoubleCount) {
  // Moderate loss so that many RPCs succeed on attempt >= 2 (the DA-side
  // handler runs, the ack is lost, the client retransmits): every
  // delivered reading must still be counted exactly once.
  net::SimNetwork lossy = test::MakeSimNet(1500, /*drop=*/0.2,
                                           /*jitter_mean_us=*/0, /*seed=*/9);
  node::AppRuntime runtime(&lossy);
  ParticipatorySensingApp app(network_.get(), &pdms_, &runtime);
  app.GenerateWorkload(60, 5, rng_);
  auto round = app.RunRound(4, rng_);
  ASSERT_TRUE(round.ok());
  ASSERT_GT(lossy.stats().retries, 0u);

  uint64_t seen_by_das = 0;
  for (const auto& values : round->values_seen_by_da) {
    seen_by_das += values.size();
  }
  // A reply lost after the handler accepted the tuple makes
  // seen >= delivered impossible to violate downward, and dedup makes
  // seen > delivered impossible upward... except for the accepted-but-
  // unacked case, where the DA saw it and the client gave up. So:
  // delivered <= seen <= sent, strictly bounded by dedup.
  EXPECT_GE(seen_by_das, static_cast<uint64_t>(round->readings_delivered));
  EXPECT_LE(seen_by_das, static_cast<uint64_t>(round->readings_sent));
}

}  // namespace
}  // namespace sep2p::apps
