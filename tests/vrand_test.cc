#include "core/vrand.h"

#include <gtest/gtest.h>

#include <set>

#include "dht/region.h"
#include "tests/test_util.h"

namespace sep2p::core {
namespace {

class VrandTest : public ::testing::Test {
 protected:
  void SetUp() override {
    network_ = test::MakeNetwork(/*n=*/2000, /*c_fraction=*/0.01);
    ASSERT_NE(network_, nullptr);
    ctx_ = network_->context();
  }

  std::unique_ptr<sim::Network> network_;
  ProtocolContext ctx_;
  util::Rng rng_{7};
};

TEST_F(VrandTest, GeneratesVerifiableRandom) {
  VrandProtocol protocol(ctx_);
  auto outcome = protocol.Generate(/*trigger_index=*/10, rng_);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_GE(outcome->vrnd.k(), 2);
  EXPECT_EQ(outcome->tl_indices.size(),
            static_cast<size_t>(outcome->vrnd.k()));
  auto verified = VerifyVrand(ctx_, outcome->vrnd);
  EXPECT_TRUE(verified.ok()) << verified.status().ToString();
}

TEST_F(VrandTest, VerificationCostIsTwoKPlusOne) {
  VrandProtocol protocol(ctx_);
  auto outcome = protocol.Generate(10, rng_);
  ASSERT_TRUE(outcome.ok());
  auto cost = VerifyVrand(ctx_, outcome->vrnd);
  ASSERT_TRUE(cost.ok());
  EXPECT_DOUBLE_EQ(cost->crypto_work, 2.0 * outcome->vrnd.k() + 1);
}

TEST_F(VrandTest, ActualCryptoOpsMatchCostModel) {
  VrandProtocol protocol(ctx_);
  auto outcome = protocol.Generate(10, rng_);
  ASSERT_TRUE(outcome.ok());
  network_->provider().meter().Reset();
  auto cost = VerifyVrand(ctx_, outcome->vrnd);
  ASSERT_TRUE(cost.ok());
  EXPECT_EQ(network_->provider().meter().asym_ops(),
            static_cast<uint64_t>(cost->crypto_work));
}

TEST_F(VrandTest, TlsAreLegitimateForR1) {
  VrandProtocol protocol(ctx_);
  auto outcome = protocol.Generate(25, rng_);
  ASSERT_TRUE(outcome.ok());
  dht::Region r1 = dht::Region::Centered(
      network_->directory().pos(25), outcome->vrnd.rs1);
  for (uint32_t tl : outcome->tl_indices) {
    EXPECT_TRUE(r1.Contains(network_->directory().pos(tl)));
    EXPECT_NE(tl, 25u);  // T is not its own guarantor
  }
}

TEST_F(VrandTest, ValueIsXorOfContributions) {
  VrandProtocol protocol(ctx_);
  auto outcome = protocol.Generate(3, rng_);
  ASSERT_TRUE(outcome.ok());
  crypto::Hash256 expected;
  for (const VrandParticipant& p : outcome->vrnd.participants) {
    expected = expected.Xor(p.rnd);
  }
  EXPECT_EQ(outcome->vrnd.Value(), expected);
}

TEST_F(VrandTest, DistinctRunsProduceDistinctValues) {
  VrandProtocol protocol(ctx_);
  auto a = protocol.Generate(3, rng_);
  auto b = protocol.Generate(3, rng_);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(a->vrnd.Value(), b->vrnd.Value());
}

TEST_F(VrandTest, SingleHonestParticipantRandomizesOutput) {
  // Commit-reveal property: fix all but one contribution; the XOR still
  // takes >= many distinct values across honest re-draws — i.e. k-1
  // colluders cannot pin the value. We emulate by re-running and checking
  // the low 16 bits of the value distribute over many buckets.
  VrandProtocol protocol(ctx_);
  std::set<uint8_t> last_bytes;
  for (int i = 0; i < 64; ++i) {
    auto outcome = protocol.Generate(3, rng_);
    ASSERT_TRUE(outcome.ok());
    last_bytes.insert(outcome->vrnd.Value().bytes()[31]);
  }
  EXPECT_GT(last_bytes.size(), 40u);
}

TEST_F(VrandTest, TamperedRndDetected) {
  VrandProtocol protocol(ctx_);
  auto outcome = protocol.Generate(10, rng_);
  ASSERT_TRUE(outcome.ok());
  VerifiableRandom forged = outcome->vrnd;
  forged.participants[0].rnd = crypto::Hash256::Of("attacker value");
  auto verified = VerifyVrand(ctx_, forged);
  EXPECT_FALSE(verified.ok());
  EXPECT_EQ(verified.status().code(), StatusCode::kSecurityViolation);
}

TEST_F(VrandTest, TamperedCertificateDetected) {
  VrandProtocol protocol(ctx_);
  auto outcome = protocol.Generate(10, rng_);
  ASSERT_TRUE(outcome.ok());
  VerifiableRandom forged = outcome->vrnd;
  forged.participants[0].cert.serial ^= 1;
  EXPECT_FALSE(VerifyVrand(ctx_, forged).ok());
}

TEST_F(VrandTest, NonLegitimateParticipantDetected) {
  VrandProtocol protocol(ctx_);
  auto outcome = protocol.Generate(10, rng_);
  ASSERT_TRUE(outcome.ok());
  VerifiableRandom forged = outcome->vrnd;
  // Replace participant 0 with a far-away (non-R1) node, fully signed.
  const dht::Directory& dir = network_->directory();
  dht::Region r1 =
      dht::Region::Centered(dir.pos(10), outcome->vrnd.rs1);
  uint32_t outsider = 0;
  for (uint32_t i = 0; i < dir.size(); ++i) {
    if (!r1.Contains(dir.pos(i))) {
      outsider = i;
      break;
    }
  }
  forged.participants[0].cert = dir.cert(outsider);
  auto sig = ctx_.SignAs(outsider, forged.SignedBytes());
  ASSERT_TRUE(sig.ok());
  forged.participants[0].sig = *sig;
  auto verified = VerifyVrand(ctx_, forged);
  EXPECT_FALSE(verified.ok());
}

TEST_F(VrandTest, RepeatedTlRejected) {
  VrandProtocol protocol(ctx_);
  auto outcome = protocol.Generate(10, rng_);
  ASSERT_TRUE(outcome.ok());
  ASSERT_GE(outcome->vrnd.k(), 2);
  // One legitimate TL fills every slot and signs the repeated list: each
  // participant checks out on its own, but k copies of one signer are
  // not k signers.
  const dht::Directory& dir = network_->directory();
  VerifiableRandom forged = outcome->vrnd;
  for (VrandParticipant& p : forged.participants) {
    p = outcome->vrnd.participants[0];
  }
  const uint32_t tl =
      *dir.IndexOf(forged.participants[0].cert.NodeIdFromSubject());
  auto sig = ctx_.SignAs(tl, forged.SignedBytes());
  ASSERT_TRUE(sig.ok());
  for (VrandParticipant& p : forged.participants) p.sig = *sig;
  auto verified = VerifyVrand(ctx_, forged);
  ASSERT_FALSE(verified.ok());
  EXPECT_EQ(verified.status().code(), StatusCode::kSecurityViolation);
}

TEST_F(VrandTest, RegionSizeOutsideAlphaBoundRejected) {
  VrandProtocol protocol(ctx_);
  auto outcome = protocol.Generate(10, rng_);
  ASSERT_TRUE(outcome.ok());
  for (double rs :
       test::RegionSizesOutsideAlphaBound(*ctx_.ktable, outcome->vrnd.k())) {
    SCOPED_TRACE(rs);
    VerifiableRandom forged = outcome->vrnd;
    forged.rs1 = rs;
    auto verified = VerifyVrand(ctx_, forged);
    ASSERT_FALSE(verified.ok());
    EXPECT_EQ(verified.status().code(), StatusCode::kSecurityViolation);
    EXPECT_NE(verified.status().message().find("alpha bound"),
              std::string::npos)
        << verified.status().ToString();
  }
}

TEST_F(VrandTest, StaleTimestampRejected) {
  VrandProtocol protocol(ctx_);
  auto outcome = protocol.Generate(10, rng_);
  ASSERT_TRUE(outcome.ok());
  ProtocolContext later = ctx_;
  later.now = ctx_.now + ctx_.max_timestamp_age + 1;
  EXPECT_FALSE(VerifyVrand(later, outcome->vrnd).ok());
}

TEST_F(VrandTest, FailureInjectionAborts) {
  VrandProtocol protocol(ctx_);
  // Every TL crashes on its first request, so the R1 candidates run dry.
  net::SimNetwork crashing = test::MakeSimNet(
      static_cast<uint32_t>(network_->directory().size()));
  crashing.set_step_crash_probability(1.0);
  auto outcome = protocol.Generate(10, rng_, &crashing);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kUnavailable);
}

TEST_F(VrandTest, RestartAfterFailureSucceeds) {
  VrandProtocol protocol(ctx_);
  // Lossy links and crashing TLs: a TL lost after committing aborts the
  // run, and the paper's remedy is simply restarting with a fresh RND_T.
  for (uint64_t attempt = 0; attempt < 100; ++attempt) {
    net::SimNetwork flaky = test::MakeSimNet(
        static_cast<uint32_t>(network_->directory().size()), /*drop=*/0.2,
        /*jitter_mean_us=*/0, /*seed=*/3 + attempt);
    flaky.set_step_crash_probability(0.2);
    auto outcome = protocol.Generate(10, rng_, &flaky);
    if (outcome.ok()) {
      EXPECT_TRUE(VerifyVrand(ctx_, outcome->vrnd).ok());
      return;
    }
    EXPECT_EQ(outcome.status().code(), StatusCode::kUnavailable);
  }
  FAIL() << "no successful run in 100 attempts";
}

TEST_F(VrandTest, SetupCostHasFourMessageRounds) {
  VrandProtocol protocol(ctx_);
  auto outcome = protocol.Generate(10, rng_);
  ASSERT_TRUE(outcome.ok());
  const int k = outcome->vrnd.k();
  EXPECT_DOUBLE_EQ(outcome->cost.msg_latency, 4.0);
  EXPECT_DOUBLE_EQ(outcome->cost.msg_work, 4.0 * k);
  // Crypto: 1 parallel TL signature + T's own verification (2k+1).
  EXPECT_DOUBLE_EQ(outcome->cost.crypto_latency, 1.0 + 2.0 * k + 1);
  EXPECT_DOUBLE_EQ(outcome->cost.crypto_work, k + 2.0 * k + 1);
}

}  // namespace
}  // namespace sep2p::core
