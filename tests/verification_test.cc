// The verifier-side gate: every forgery class must be caught before a
// data source discloses anything.

#include "core/verification.h"

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <vector>

#include "core/wire.h"
#include "tests/test_util.h"

namespace sep2p::core {
namespace {

class VerificationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    network_ = test::MakeNetwork(/*n=*/3000, /*c_fraction=*/0.01,
                                 /*cache=*/256);
    ASSERT_NE(network_, nullptr);
    ctx_ = network_->context();
    SelectionProtocol protocol(ctx_);
    util::Rng rng(21);
    auto outcome = protocol.Run(/*trigger_index=*/4, rng);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    val_ = outcome->val;
  }

  std::unique_ptr<sim::Network> network_;
  ProtocolContext ctx_;
  VerifiableActorList val_;
};

TEST_F(VerificationTest, GenuineListAccepted) {
  VerifierDecision decision =
      VerifyBeforeDisclosure(ctx_, val_, nullptr, nullptr);
  EXPECT_TRUE(decision.accepted) << decision.reason.ToString();
  EXPECT_DOUBLE_EQ(decision.cost.crypto_work, 2.0 * val_.k());
}

TEST_F(VerificationTest, ActorSubstitutionRejected) {
  crypto::PublicKey forged{};
  forged[0] = 0x66;
  VerifierDecision decision = VerifyBeforeDisclosure(
      ctx_, tamper::ReplaceActor(val_, forged), nullptr, nullptr);
  EXPECT_FALSE(decision.accepted);
  EXPECT_EQ(decision.reason.code(), StatusCode::kSecurityViolation);
}

TEST_F(VerificationTest, RandomSubstitutionRejected) {
  VerifierDecision decision = VerifyBeforeDisclosure(
      ctx_, tamper::ReplaceRandom(val_, crypto::Hash256::Of("evil")),
      nullptr, nullptr);
  EXPECT_FALSE(decision.accepted);
}

TEST_F(VerificationTest, StaleListRejected) {
  VerifierDecision decision = VerifyBeforeDisclosure(
      ctx_, tamper::MakeStale(val_), nullptr, nullptr);
  EXPECT_FALSE(decision.accepted);
}

TEST_F(VerificationTest, AttestationsSignTheListDigest) {
  const std::vector<uint8_t> bytes = val_.SignedBytes();
  const crypto::Hash256 digest =
      crypto::Hash256::Of(bytes.data(), bytes.size());
  for (const VerifiableActorList::Attestation& att : val_.attestations) {
    EXPECT_TRUE(ctx_.provider->Verify(att.cert.subject, digest.bytes().data(),
                                      digest.bytes().size(), att.sig));
    EXPECT_FALSE(ctx_.provider->Verify(att.cert.subject, bytes, att.sig));
  }
  // The same SLs' valid signatures over the full preimage are not
  // attestations.
  const dht::Directory& dir = network_->directory();
  VerifiableActorList preimage_signed = val_;
  for (VerifiableActorList::Attestation& att : preimage_signed.attestations) {
    std::optional<uint32_t> sl = dir.IndexOf(att.cert.NodeIdFromSubject());
    ASSERT_TRUE(sl.has_value());
    auto sig = ctx_.SignAs(*sl, bytes);
    ASSERT_TRUE(sig.ok());
    att.sig = *sig;
  }
  Result<net::Cost> verified = VerifyActorList(ctx_, preimage_signed);
  ASSERT_FALSE(verified.ok());
  EXPECT_EQ(verified.status().code(), StatusCode::kSecurityViolation);
  EXPECT_EQ(verified.status().message(), "val: bad SL signature");
}

TEST_F(VerificationTest, ForeignAttestationRejected) {
  // An attacker swaps in a signature from a node outside R2 (signing the
  // same digest, so the signature itself is valid).
  const dht::Directory& dir = network_->directory();
  dht::Region r2 =
      dht::Region::Centered(val_.SetterPoint().ring_pos(), val_.rs2);
  uint32_t outsider = 0;
  for (uint32_t i = 0; i < dir.size(); ++i) {
    if (!r2.Contains(dir.pos(i))) {
      outsider = i;
      break;
    }
  }
  const std::vector<uint8_t> bytes = val_.SignedBytes();
  const crypto::Hash256 digest =
      crypto::Hash256::Of(bytes.data(), bytes.size());
  auto sig = ctx_.SignAs(outsider, digest);
  ASSERT_TRUE(sig.ok());
  ASSERT_TRUE(ctx_.CheckSignature(dir.pub(outsider), digest, *sig));
  VerifierDecision decision = VerifyBeforeDisclosure(
      ctx_, tamper::ReplaceAttestation(val_, dir.cert(outsider), *sig),
      nullptr, nullptr);
  EXPECT_FALSE(decision.accepted);
  EXPECT_EQ(decision.reason.message(), "val: SL not legitimate w.r.t. R2");
}

TEST_F(VerificationTest, BrokenSignatureRejected) {
  VerifiableActorList broken = val_;
  broken.attestations[0].sig[0] ^= 0xff;
  VerifierDecision decision =
      VerifyBeforeDisclosure(ctx_, broken, nullptr, nullptr);
  EXPECT_FALSE(decision.accepted);
}

TEST_F(VerificationTest, RepeatedSlRejected) {
  // One legitimate SL's valid attestation, presented k times.
  ASSERT_GE(val_.k(), 2);
  VerifiableActorList repeated = val_;
  for (VerifiableActorList::Attestation& att : repeated.attestations) {
    att = val_.attestations[0];
  }
  VerifierDecision decision =
      VerifyBeforeDisclosure(ctx_, repeated, nullptr, nullptr);
  EXPECT_FALSE(decision.accepted);
  EXPECT_EQ(decision.reason.code(), StatusCode::kSecurityViolation);
}

TEST_F(VerificationTest, RegionSizeOutsideAlphaBoundRejected) {
  auto expect_rejected = [&](const VerifiableActorList& val) {
    Result<net::Cost> verified = VerifyActorList(ctx_, val);
    ASSERT_FALSE(verified.ok());
    EXPECT_EQ(verified.status().code(), StatusCode::kSecurityViolation);
    EXPECT_NE(verified.status().message().find("alpha bound"),
              std::string::npos)
        << verified.status().ToString();
  };
  for (double rs : test::RegionSizesOutsideAlphaBound(*ctx_.ktable,
                                                      val_.k())) {
    SCOPED_TRACE(rs);
    VerifiableActorList forged = val_;
    forged.rs2 = rs;
    expect_rejected(forged);
  }
  // A relayed VAL carries its NaN through the codec unchanged.
  VerifiableActorList nan_val = val_;
  nan_val.rs2 = std::nan("");
  Result<VerifiableActorList> relayed =
      wire::DecodeActorList(wire::EncodeActorList(nan_val));
  ASSERT_TRUE(relayed.ok()) << relayed.status().ToString();
  EXPECT_TRUE(std::isnan(relayed->rs2));
  expect_rejected(*relayed);
}

TEST_F(VerificationTest, EmptyAttestationsRejected) {
  VerifiableActorList empty = val_;
  empty.attestations.clear();
  VerifierDecision decision =
      VerifyBeforeDisclosure(ctx_, empty, nullptr, nullptr);
  EXPECT_FALSE(decision.accepted);
}

TEST_F(VerificationTest, RateLimiterBlocksReplays) {
  TriggerRateLimiter limiter(/*max_triggers=*/2, /*window=*/1000000);
  dht::NodeId trigger = network_->directory().id(4);
  for (int i = 0; i < 2; ++i) {
    VerifierDecision d =
        VerifyBeforeDisclosure(ctx_, val_, &limiter, &trigger);
    EXPECT_TRUE(d.accepted) << i;
  }
  VerifierDecision blocked =
      VerifyBeforeDisclosure(ctx_, val_, &limiter, &trigger);
  EXPECT_FALSE(blocked.accepted);
  EXPECT_EQ(blocked.reason.code(), StatusCode::kPermissionDenied);
}

TEST_F(VerificationTest, RelocationCountIsAuthenticated) {
  // Lying about the relocation count moves the expected R2 and must fail.
  VerifiableActorList lied = val_;
  lied.relocations += 1;
  VerifierDecision decision =
      VerifyBeforeDisclosure(ctx_, lied, nullptr, nullptr);
  EXPECT_FALSE(decision.accepted);
}

}  // namespace
}  // namespace sep2p::core
