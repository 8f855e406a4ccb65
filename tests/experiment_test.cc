// Scaled-down versions of the paper's experiments: the shapes the figures
// report must already hold at small N.

#include "sim/experiment.h"

#include <gtest/gtest.h>

namespace sep2p::sim {
namespace {

Parameters SmallNet() {
  Parameters p;
  p.n = 4000;
  p.colluding_fraction = 0.01;
  p.actor_count = 8;
  p.cache_size = 128;
  p.seed = 11;
  return p;
}

TEST(ExperimentTest, Figure3ShapeSep2pIdealOthersNot) {
  auto points = RunStrategyComparison(SmallNet(), {0.02},
                                      {"SEP2P", "ES.NAV", "ES.AV", "M.Hash"},
                                      /*trials=*/80);
  ASSERT_TRUE(points.ok()) << points.status().ToString();
  ASSERT_EQ(points->size(), 4u);

  const StrategyPoint& sep2p = (*points)[0];
  EXPECT_EQ(sep2p.strategy, "SEP2P");
  EXPECT_GT(sep2p.effectiveness, 0.5);

  for (size_t i = 1; i < points->size(); ++i) {
    EXPECT_LT((*points)[i].effectiveness, sep2p.effectiveness)
        << (*points)[i].strategy;
  }
  // Verification costs ordered as in the paper:
  // SEP2P ~= ES.NAV < M.Hash < ES.AV (both pay 2k; k varies slightly
  // with the local region density, so compare averages approximately).
  EXPECT_NEAR(sep2p.verification_cost, (*points)[1].verification_cost, 1.5);
  EXPECT_LT((*points)[1].verification_cost, (*points)[3].verification_cost);
  EXPECT_LT((*points)[3].verification_cost, (*points)[2].verification_cost);
}

TEST(ExperimentTest, Figure45ShapeSep2pPaysSetupMHashPaysMessages) {
  auto points = RunStrategyComparison(SmallNet(), {0.01},
                                      {"SEP2P", "ES.NAV", "M.Hash"},
                                      /*trials=*/60);
  ASSERT_TRUE(points.ok());
  const StrategyPoint& sep2p = (*points)[0];
  const StrategyPoint& nav = (*points)[1];
  const StrategyPoint& mhash = (*points)[2];

  EXPECT_GT(sep2p.setup_crypto_work, nav.setup_crypto_work);
  EXPECT_GT(mhash.setup_msg_work, nav.setup_msg_work);
  // Latency stays modest because work is parallel (paper: ~20 ops).
  EXPECT_LT(sep2p.setup_crypto_latency, sep2p.setup_crypto_work);
}

// A strategy is built where a shard starts, so the unknown name is
// reported from there, as the sweep's error.
TEST(ExperimentTest, UnknownStrategyIsInvalidArgument) {
  auto points = RunStrategyComparison(SmallNet(), {0.01},
                                      {"SEP2P", "no-such-strategy"},
                                      /*trials=*/1);
  ASSERT_FALSE(points.ok());
  EXPECT_EQ(points.status().code(), StatusCode::kInvalidArgument);
}

TEST(ExperimentTest, Figure6KGrowsWithColluderFractionNotN) {
  KCurvePoint small = ComputeAverageK(10000, 0.01, 1e-6, 3000, 1);
  KCurvePoint large = ComputeAverageK(10000000, 0.01, 1e-6, 3000, 1);
  EXPECT_NEAR(small.avg_k, large.avg_k, 0.6);

  KCurvePoint low_c = ComputeAverageK(100000, 0.0001, 1e-6, 2000, 2);
  KCurvePoint high_c = ComputeAverageK(100000, 0.1, 1e-6, 2000, 2);
  EXPECT_LT(low_c.avg_k, high_c.avg_k);

  // Paper headline: k <= 6 for C% <= 1% at alpha = 1e-6.
  KCurvePoint paper = ComputeAverageK(10000000, 0.01, 1e-6, 2000, 3);
  EXPECT_LE(paper.avg_k, 6.0);
}

TEST(ExperimentTest, Figure6KTableBeatsNoKTable) {
  KCurvePoint point = ComputeAverageK(1000000, 0.01, 1e-10, 3000, 4);
  EXPECT_LT(point.avg_k, point.k_max);  // the optimization helps
  EXPECT_LE(point.max_k_seen, point.k_max);
}

TEST(ExperimentTest, Figure6AlphaHasSmallInfluence) {
  KCurvePoint loose = ComputeAverageK(1000000, 0.01, 1e-6, 2000, 5);
  KCurvePoint tight = ComputeAverageK(1000000, 0.01, 1e-10, 2000, 5);
  EXPECT_GE(tight.avg_k, loose.avg_k - 0.01);
  EXPECT_LE(tight.avg_k - loose.avg_k, 3.0);  // a few units at most
}

TEST(ExperimentTest, Figure7SmallCachesRelocateLargeCachesDont) {
  Parameters params = SmallNet();
  auto points = RunCacheSweep(params, {12, 64, 256}, /*trials=*/50);
  ASSERT_TRUE(points.ok()) << points.status().ToString();
  ASSERT_EQ(points->size(), 3u);
  EXPECT_GT((*points)[0].relocated_fraction, 0.08);
  EXPECT_LT((*points)[2].relocated_fraction, 0.05);
  EXPECT_GT((*points)[0].setup_msg_work, (*points)[2].setup_msg_work * 0.9);
}

TEST(ExperimentTest, ActorSweepGrowsTotalMessageWork) {
  auto points = RunActorSweep(SmallNet(), {4, 16, 64}, /*trials=*/25);
  ASSERT_TRUE(points.ok()) << points.status().ToString();
  ASSERT_EQ(points->size(), 3u);
  EXPECT_GT((*points)[2].setup_msg_work, (*points)[0].setup_msg_work * 3);
  // 2k is independent of A (k floats with region density only).
  EXPECT_NEAR((*points)[0].verification_cost,
              (*points)[2].verification_cost, 1.5);
}

TEST(ExperimentTest, ExhaustiveSettersProduceConcentratedStats) {
  auto stats = RunExhaustiveSetters(SmallNet(), /*sample=*/300);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(stats->setters, 250);
  // Verification cost is 2k with k in the k-table band.
  EXPECT_GE(stats->verif_avg, 4.0);
  EXPECT_LE(stats->verif_max, 2.0 * 12);
  // Costs concentrate: stddev well below the mean.
  EXPECT_LT(stats->crypto_work_stddev, stats->crypto_work_avg);
  EXPECT_LT(stats->msg_work_stddev, stats->msg_work_avg);
  EXPECT_GE(stats->crypto_work_max, stats->crypto_work_avg);
}

TEST(ExperimentTest, AlphaProbeSeesNoBreaches) {
  Parameters params = SmallNet();
  auto probe = ProbeAlpha(params, 1e-6, /*network_count=*/20);
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();
  EXPECT_EQ(probe->breaches, 0);
  EXPECT_LE(probe->max_colluders_seen, probe->k);
}

}  // namespace
}  // namespace sep2p::sim
