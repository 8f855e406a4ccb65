// Parameterized over both signature providers: the protocol layer must be
// oblivious to which one is underneath.

#include <gtest/gtest.h>

#include <memory>

#include "crypto/ed25519_provider.h"
#include "crypto/sim_provider.h"
#include "util/hex.h"
#include "util/rng.h"

namespace sep2p::crypto {
namespace {

class SignatureProviderTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    if (std::string(GetParam()) == "ed25519") {
      provider_ = std::make_unique<Ed25519Provider>();
    } else {
      provider_ = std::make_unique<SimProvider>();
    }
  }

  std::unique_ptr<SignatureProvider> provider_;
  util::Rng rng_{2024};
};

TEST_P(SignatureProviderTest, SignVerifyRoundTrip) {
  auto pair = provider_->GenerateKeyPair(rng_);
  ASSERT_TRUE(pair.ok());
  std::vector<uint8_t> msg{1, 2, 3, 4, 5};
  auto sig = provider_->Sign(pair->priv, msg);
  ASSERT_TRUE(sig.ok());
  EXPECT_TRUE(provider_->Verify(pair->pub, msg, *sig));
}

TEST_P(SignatureProviderTest, TamperedMessageRejected) {
  auto pair = provider_->GenerateKeyPair(rng_);
  ASSERT_TRUE(pair.ok());
  std::vector<uint8_t> msg{1, 2, 3, 4, 5};
  auto sig = provider_->Sign(pair->priv, msg);
  ASSERT_TRUE(sig.ok());
  msg[2] ^= 1;
  EXPECT_FALSE(provider_->Verify(pair->pub, msg, *sig));
}

TEST_P(SignatureProviderTest, TamperedSignatureRejected) {
  auto pair = provider_->GenerateKeyPair(rng_);
  ASSERT_TRUE(pair.ok());
  std::vector<uint8_t> msg{9, 8, 7};
  auto sig = provider_->Sign(pair->priv, msg);
  ASSERT_TRUE(sig.ok());
  Signature bad = *sig;
  bad[0] ^= 0xff;
  EXPECT_FALSE(provider_->Verify(pair->pub, msg, bad));
}

TEST_P(SignatureProviderTest, WrongKeyRejected) {
  auto pair1 = provider_->GenerateKeyPair(rng_);
  auto pair2 = provider_->GenerateKeyPair(rng_);
  ASSERT_TRUE(pair1.ok() && pair2.ok());
  std::vector<uint8_t> msg{42};
  auto sig = provider_->Sign(pair1->priv, msg);
  ASSERT_TRUE(sig.ok());
  EXPECT_FALSE(provider_->Verify(pair2->pub, msg, *sig));
}

TEST_P(SignatureProviderTest, EmptyMessageSupported) {
  auto pair = provider_->GenerateKeyPair(rng_);
  ASSERT_TRUE(pair.ok());
  std::vector<uint8_t> empty;
  auto sig = provider_->Sign(pair->priv, empty);
  ASSERT_TRUE(sig.ok());
  EXPECT_TRUE(provider_->Verify(pair->pub, empty, *sig));
}

TEST_P(SignatureProviderTest, KeyGenerationIsDeterministicFromRng) {
  util::Rng a(55), b(55);
  auto p1 = provider_->GenerateKeyPair(a);
  auto p2 = provider_->GenerateKeyPair(b);
  ASSERT_TRUE(p1.ok() && p2.ok());
  EXPECT_EQ(p1->pub, p2->pub);
}

TEST_P(SignatureProviderTest, DistinctSeedsDistinctKeys) {
  auto p1 = provider_->GenerateKeyPair(rng_);
  auto p2 = provider_->GenerateKeyPair(rng_);
  ASSERT_TRUE(p1.ok() && p2.ok());
  EXPECT_NE(p1->pub, p2->pub);
}

TEST_P(SignatureProviderTest, DerivePublicKeyMatchesKeyPair) {
  auto pair = provider_->GenerateKeyPair(rng_);
  ASSERT_TRUE(pair.ok());
  auto derived = provider_->DerivePublicKey(pair->priv);
  ASSERT_TRUE(derived.ok());
  EXPECT_EQ(*derived, pair->pub);
}

TEST_P(SignatureProviderTest, MeterCountsOperations) {
  provider_->meter().Reset();
  auto pair = provider_->GenerateKeyPair(rng_);
  ASSERT_TRUE(pair.ok());
  std::vector<uint8_t> msg{1};
  auto sig = provider_->Sign(pair->priv, msg);
  ASSERT_TRUE(sig.ok());
  provider_->Verify(pair->pub, msg, *sig);
  provider_->Verify(pair->pub, msg, *sig);
  EXPECT_EQ(provider_->meter().key_gens(), 1u);
  EXPECT_EQ(provider_->meter().signs(), 1u);
  EXPECT_EQ(provider_->meter().verifies(), 2u);
  EXPECT_EQ(provider_->meter().asym_ops(), 3u);
}

INSTANTIATE_TEST_SUITE_P(AllProviders, SignatureProviderTest,
                         ::testing::Values("ed25519", "sim"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

TEST(SimProviderTest, BadPrivateKeyRejected) {
  SimProvider provider;
  PrivateKey bad;
  bad.data = {1, 2, 3};  // wrong length
  std::vector<uint8_t> msg{1};
  EXPECT_FALSE(provider.Sign(bad, msg).ok());
  EXPECT_FALSE(provider.DerivePublicKey(bad).ok());
}

TEST(SimProviderTest, WrongLengthSignatureRejected) {
  SimProvider provider;
  util::Rng rng(1);
  auto pair = provider.GenerateKeyPair(rng);
  ASSERT_TRUE(pair.ok());
  std::vector<uint8_t> msg{1};
  EXPECT_FALSE(provider.Verify(pair->pub, msg, Signature{1, 2, 3}));
}

// Pins SimProvider's signature bytes, so that a slip in the hash backend
// fails here rather than as a moved digest far downstream. The expected
// value is HMAC-SHA256(key = SHA-256("sep2p-sim-tag" || SHA-256(priv)),
// msg), computed with Python's hashlib/hmac:
//   python3 -c "import hashlib, hmac; priv = bytes(range(32));
//     msg = bytes(i % 251 for i in range(16384));
//     key = hashlib.sha256(b'sep2p-sim-tag'
//                          + hashlib.sha256(priv).digest()).digest();
//     print(hmac.new(key, msg, hashlib.sha256).hexdigest())"
TEST(SimProviderTest, SignatureBytesArePinned) {
  SimProvider provider;
  PrivateKey priv;
  for (int i = 0; i < 32; ++i) priv.data.push_back(static_cast<uint8_t>(i));
  std::vector<uint8_t> msg(16384);
  for (size_t i = 0; i < msg.size(); ++i) {
    msg[i] = static_cast<uint8_t>(i % 251);
  }
  auto pub = provider.DerivePublicKey(priv);
  ASSERT_TRUE(pub.ok());

  auto sig = provider.Sign(priv, msg);
  ASSERT_TRUE(sig.ok());
  EXPECT_EQ(util::ToHex(*sig),
            "ef65c8e14c129ce3ab93bc436fe37973cf426b10fb47769ec13e642e403e51d9");
  EXPECT_TRUE(provider.Verify(*pub, msg, *sig));

  Signature tampered = *sig;
  tampered[31] ^= 0x01;
  const VerifyItem items[] = {
      {*pub, msg, *sig}, {*pub, msg, tampered}, {*pub, msg, *sig}};
  uint8_t ok[3] = {9, 9, 9};
  provider.VerifyBatch(items, 3, ok);
  EXPECT_EQ(ok[0], 1);
  EXPECT_EQ(ok[1], 0);
  EXPECT_EQ(ok[2], 1);
}

}  // namespace
}  // namespace sep2p::crypto
