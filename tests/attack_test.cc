// Active-adversary subsystem: the adversary sweep is bit-identical for
// any thread count; colluder placement is the SAME rule for the live
// network and the closed-form model; installing no-op attack hooks
// perturbs nothing; and each scenario honours its detection contract
// (sybils never admitted, equivocation always caught, grinding strikes
// always attributable).

#include "attack/scenario.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "attack/oracle.h"
#include "attack/sweep.h"
#include "core/attack_hooks.h"
#include "core/selection.h"
#include "sim/network.h"
#include "strategies/adversary.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace sep2p {
namespace {

sim::Parameters SweepParams() {
  sim::Parameters params;
  params.n = 1000;
  params.colluding_fraction = 0.10;
  params.cache_size = 128;
  params.actor_count = 8;
  params.seed = 42;
  return params;
}

// ------------------------------------------- determinism

TEST(AdversarySweepTest, AdversarySweepIsThreadInvariant) {
  const std::vector<std::string> names = {"none", "csar-grind", "sl-forge"};
  auto digests = [&](int threads) {
    sim::Parameters params = SweepParams();
    params.threads = threads;
    auto points = attack::RunAdversarySweep(params, names, /*trials=*/18);
    EXPECT_TRUE(points.ok()) << points.status().ToString();
    std::vector<uint64_t> out;
    if (points.ok()) {
      for (const attack::AdversaryPoint& p : *points) out.push_back(p.digest);
    }
    return out;
  };
  std::vector<uint64_t> single = digests(1);
  ASSERT_EQ(single.size(), names.size());
  EXPECT_EQ(single, digests(4));
}

// A scenario is built where a shard starts, so the unknown name is
// reported from there, as the sweep's error.
TEST(AdversarySweepTest, UnknownScenarioIsInvalidArgument) {
  auto points = attack::RunAdversarySweep(
      SweepParams(), {"none", "no-such-scenario"}, /*trials=*/1);
  ASSERT_FALSE(points.ok());
  EXPECT_EQ(points.status().code(), StatusCode::kInvalidArgument);
}

// ------------------------------------------- colluder-sampling parity

// The live network's placement and the closed-form adversary model must
// draw the IDENTICAL coalition for the same seed — the attack sweep's
// bias figures are only comparable to the analytic effectiveness curves
// under this parity. With every node alive both are Rng::SampleIndices
// over [0, n): C ascending handles, and a bitset that holds exactly them.
TEST(AdversarySweepTest, ColluderSamplingParity) {
  auto network = test::MakeNetwork(/*n=*/1500, /*c_fraction=*/0.05);
  ASSERT_NE(network, nullptr);
  const dht::Directory& dir = network->directory();
  const uint64_t c = network->params().c();
  ASSERT_GT(c, 0u);

  for (uint64_t seed : {123, 900, 901}) {
    util::Rng net_rng(seed);
    network->ReassignColluders(net_rng);

    util::Rng model_rng(seed);
    const core::ColluderSet expected =
        strategies::SampleColluders(dir, c, model_rng);
    EXPECT_EQ(network->ColluderIndices(), expected.handles());

    util::Rng raw_rng(seed);
    std::vector<uint32_t> raw;
    for (size_t idx : raw_rng.SampleIndices(network->params().n, c)) {
      raw.push_back(static_cast<uint32_t>(idx));
    }
    std::sort(raw.begin(), raw.end());
    EXPECT_EQ(expected.handles(), raw);
    EXPECT_EQ(expected.size(), c);

    size_t members = 0;
    for (uint32_t i = 0; i < dir.size(); ++i) {
      if (network->colluders().contains(i)) ++members;
    }
    EXPECT_EQ(members, c);
    for (uint32_t idx : expected.handles()) {
      EXPECT_TRUE(network->colluders().contains(idx));
    }
  }
}

// ------------------------------------------- hooks are pure seams

// A default-constructed AttackHooks answers "behave honestly" at every
// seam; installing it must leave the selection byte-identical to the
// hook-free path (same outcome, same RNG consumption).
TEST(AdversarySweepTest, NoOpAttackHooksDoNotPerturbSelection) {
  auto network = test::MakeNetwork(/*n=*/1200, /*c_fraction=*/0.05);
  ASSERT_NE(network, nullptr);
  core::ProtocolContext ctx = network->context();
  core::SelectionProtocol protocol(ctx);

  core::AttackHooks noop;
  auto run = [&](core::AttackHooks* hooks) {
    util::Rng rng(99);
    core::SelectionOptions options;
    options.attack = hooks;
    auto outcome = protocol.Run(/*trigger_index=*/7, rng, options);
    EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
    return std::make_tuple(
        outcome.ok() ? outcome->actor_indices : std::vector<uint32_t>{},
        outcome.ok() ? outcome->setter_index : 0u,
        outcome.ok() ? outcome->sl_indices : std::vector<uint32_t>{},
        outcome.ok() ? outcome->cost.crypto_work : -1.0,
        outcome.ok() ? outcome->cost.msg_work : -1.0,
        rng.NextUint64(1u << 30));  // stream position unchanged too
  };
  EXPECT_EQ(run(nullptr), run(&noop));
}

// ------------------------------------------- scenario contracts

class ScenarioContractTest : public ::testing::Test {
 protected:
  void SetUp() override {
    network_ = test::MakeNetwork(/*n=*/1200, /*c_fraction=*/0.10,
                                 /*cache=*/192);
    ASSERT_NE(network_, nullptr);
    ctx_ = network_->context();
    util::Rng rng(7);
    network_->ReassignColluders(rng);
  }

  // Runs `name` for `trials` triggers and returns every outcome,
  // each judged through the oracle against its own trace.
  std::vector<attack::AttackOutcome> RunTrials(const std::string& name,
                                               int trials) {
    std::vector<attack::AttackOutcome> outcomes;
    util::Rng rng(31);
    for (int t = 0; t < trials; ++t) {
      auto scenario = attack::MakeScenario(name, ctx_);
      EXPECT_NE(scenario, nullptr) << name;
      obs::TraceRecorder rec;
      rec.meta().node_count =
          static_cast<uint32_t>(network_->directory().size());
      uint32_t trigger = static_cast<uint32_t>(
          rng.NextUint64(network_->directory().size()));
      auto run = scenario->Run(trigger, rng, &rec, nullptr);
      EXPECT_TRUE(run.ok()) << name << ": " << run.status().ToString();
      if (!run.ok()) continue;
      attack::Verdict verdict = attack::Judge(*run, &rec.trace());
      attack::AttackOutcome outcome = *run;
      outcome.detected = verdict.detected;
      outcomes.push_back(outcome);
    }
    return outcomes;
  }

  std::unique_ptr<sim::Network> network_;
  core::ProtocolContext ctx_;
};

TEST_F(ScenarioContractTest, RegistryCoversEveryNameOnce) {
  const std::vector<std::string>& names = attack::ScenarioNames();
  ASSERT_GE(names.size(), 6u);  // "none" + at least five attacks
  EXPECT_EQ(names.front(), "none");
  for (const std::string& name : names) {
    auto scenario = attack::MakeScenario(name, ctx_);
    ASSERT_NE(scenario, nullptr) << name;
    EXPECT_EQ(scenario->name(), name);
  }
  EXPECT_EQ(attack::MakeScenario("no-such-attack", ctx_), nullptr);
}

TEST_F(ScenarioContractTest, HonestBaselineIsCleanAndAccepted) {
  for (const attack::AttackOutcome& o : RunTrials("none", 6)) {
    EXPECT_FALSE(o.attempted);
    EXPECT_FALSE(o.detected);
    EXPECT_FALSE(o.succeeded);
    EXPECT_TRUE(o.accepted);
    EXPECT_EQ(o.strikes, 0);
  }
}

TEST_F(ScenarioContractTest, SybilsAreAlwaysDetectedAndNeverAdmitted) {
  bool any_attempted = false;
  for (const attack::AttackOutcome& o : RunTrials("sybil-join", 6)) {
    any_attempted |= o.attempted;
    EXPECT_TRUE(o.detected);
    EXPECT_FALSE(o.accepted);
    EXPECT_FALSE(o.succeeded);
    EXPECT_FALSE(o.detection_signal.empty());
  }
  EXPECT_TRUE(any_attempted);
}

TEST_F(ScenarioContractTest, EquivocationIsAlwaysCaughtWhenAttempted) {
  for (const attack::AttackOutcome& o : RunTrials("equivocate", 8)) {
    if (!o.attempted) continue;  // no colluder in the distribution path
    EXPECT_TRUE(o.detected);
    EXPECT_FALSE(o.succeeded);
  }
}

TEST_F(ScenarioContractTest, GrindStrikesAreAttributable) {
  for (const attack::AttackOutcome& o : RunTrials("csar-grind", 8)) {
    if (o.strikes == 0) continue;
    // Every withheld reveal is an attributable abort: it is detected
    // and forced exactly one fresh-RND_T restart.
    EXPECT_TRUE(o.detected);
    EXPECT_EQ(o.restarts, o.strikes);
  }
}

TEST_F(ScenarioContractTest, FailedForgeryIsDetected) {
  for (const attack::AttackOutcome& o : RunTrials("sl-forge", 8)) {
    if (o.attempted && !o.succeeded) {
      EXPECT_TRUE(o.detected);
    }
    // A successful forgery requires the full quorum: it verifies clean.
    if (o.succeeded) {
      EXPECT_TRUE(o.accepted);
    }
  }
}

}  // namespace
}  // namespace sep2p
