// Parameterized over both signature providers: the protocol layer must be
// oblivious to which one is underneath.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "crypto/ed25519_provider.h"
#include "crypto/hmac.h"
#include "crypto/sealed.h"
#include "crypto/sha256.h"
#include "crypto/sim_provider.h"
#include "util/hex.h"
#include "util/rng.h"
#include "util/thread_pool.h"

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

// Every key and signature has the declared size: the directory sizes
// its credential blobs from these before provisioning a network.
TEST_P(SignatureProviderTest, DeclaredSizesMatchKeysAndSignatures) {
  for (size_t len : {0, 1, 40, 300}) {
    auto pair = provider_->GenerateKeyPair(rng_);
    ASSERT_TRUE(pair.ok());
    EXPECT_EQ(pair->priv.data.size(), provider_->private_key_size());
    std::vector<uint8_t> msg(len, 0x11);
    auto sig = provider_->Sign(pair->priv, msg);
    ASSERT_TRUE(sig.ok());
    EXPECT_EQ(sig->size(), provider_->signature_size()) << len;
  }
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

TEST_P(SignatureProviderTest, BadPrivateKeyRejected) {
  std::vector<uint8_t> msg{1};
  for (size_t size : {3, 33}) {
    PrivateKey bad;
    bad.data.assign(size, 0x5a);
    auto sig = provider_->Sign(bad, msg);
    ASSERT_FALSE(sig.ok()) << size;
    EXPECT_EQ(sig.status().code(), StatusCode::kInvalidArgument);
    auto pub = provider_->DerivePublicKey(bad);
    ASSERT_FALSE(pub.ok()) << size;
    EXPECT_EQ(pub.status().code(), StatusCode::kInvalidArgument);
  }
  // A rejected key leaves the provider usable.
  auto pair = provider_->GenerateKeyPair(rng_);
  ASSERT_TRUE(pair.ok());
  auto sig = provider_->Sign(pair->priv, msg);
  ASSERT_TRUE(sig.ok());
  EXPECT_TRUE(provider_->Verify(pair->pub, msg, *sig));
}

INSTANTIATE_TEST_SUITE_P(AllProviders, SignatureProviderTest,
                         ::testing::Values("ed25519", "sim"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

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

// Each thread keeps the derived signing state of the last key it signed
// with. Interleaved signers and a second provider instance must not move
// a byte or a count: key A keeps the pinned signature above, and key B
// signs under its own MAC key, SHA-256("sep2p-sim-tag" || SHA-256(B)).
TEST(SimProviderTest, SignaturesDoNotDependOnThePreviousSigner) {
  PrivateKey a, b;
  for (int i = 0; i < 32; ++i) {
    a.data.push_back(static_cast<uint8_t>(i));
    b.data.push_back(static_cast<uint8_t>(255 - i));
  }
  std::vector<uint8_t> msg(16384);
  for (size_t i = 0; i < msg.size(); ++i) {
    msg[i] = static_cast<uint8_t>(i % 251);
  }
  const std::string a_hex =
      "ef65c8e14c129ce3ab93bc436fe37973cf426b10fb47769ec13e642e403e51d9";
  Sha256 b_key;
  b_key.Update(std::string("sep2p-sim-tag"));
  b_key.Update(Sha256Hash(b.data));
  const Digest b_mac_key = b_key.Finish();
  const Digest b_expected = HmacSha256(b_mac_key.data(), b_mac_key.size(),
                                       msg.data(), msg.size());

  SimProvider first, second;
  EXPECT_EQ(util::ToHex(*first.Sign(a, msg)), a_hex);
  EXPECT_EQ(*first.Sign(b, msg),
            Signature(b_expected.begin(), b_expected.end()));
  EXPECT_EQ(util::ToHex(*second.Sign(a, msg)), a_hex);
  EXPECT_EQ(util::ToHex(*first.Sign(a, msg)), a_hex);
  EXPECT_EQ(first.meter().signs(), 3u);
  EXPECT_EQ(second.meter().signs(), 1u);
}

PrivateKey KeyFromHex(const std::string& hex) {
  PrivateKey key;
  key.data = *util::FromHex(hex);
  return key;
}

std::string Hex(const PublicKey& pub) {
  return util::ToHex(pub.data(), pub.size());
}

// RFC 8032 §7.1 TEST 1 and TEST 2. The same public keys and TEST 2's
// signature come out of `openssl pkey -pubout` and
// `openssl pkeyutl -sign -rawin` on the DER-wrapped seeds. The signing
// key cache must not change a byte: the cold import, the cached key and
// a fresh provider all give the RFC's signature.
TEST(Ed25519ProviderTest, Rfc8032KnownAnswers) {
  const PrivateKey key1 = KeyFromHex(
      "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60");
  const PrivateKey key2 = KeyFromHex(
      "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb");
  const std::string pub1_hex =
      "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a";
  const std::string pub2_hex =
      "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c";
  const std::vector<uint8_t> msg2{0x72};
  const std::string sig2_hex =
      "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da"
      "085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00";

  Ed25519Provider provider;
  auto pub1 = provider.DerivePublicKey(key1);
  ASSERT_TRUE(pub1.ok());
  EXPECT_EQ(Hex(*pub1), pub1_hex);

  auto cold = provider.Sign(key2, msg2);
  auto cached = provider.Sign(key2, msg2);
  auto pub2_after = provider.DerivePublicKey(key2);
  ASSERT_TRUE(cold.ok() && cached.ok() && pub2_after.ok());
  EXPECT_EQ(util::ToHex(*cold), sig2_hex);
  EXPECT_EQ(*cached, *cold);
  EXPECT_EQ(Hex(*pub2_after), pub2_hex);

  // A fresh provider derives before it signs.
  Ed25519Provider fresh;
  auto pub2_before = fresh.DerivePublicKey(key2);
  auto fresh_sig = fresh.Sign(key2, msg2);
  ASSERT_TRUE(pub2_before.ok() && fresh_sig.ok());
  EXPECT_EQ(Hex(*pub2_before), pub2_hex);
  EXPECT_EQ(*fresh_sig, *cold);
  EXPECT_TRUE(fresh.Verify(*pub2_before, msg2, *cold));
  EXPECT_EQ(provider.meter().signs(), 2u);
}

// OpenSealed compares the recipient with the public key derived from
// the supplied private key; a cached derivation must still turn an
// intruder away.
TEST(Ed25519ProviderTest, CachedKeyStillDeniesIntruder) {
  Ed25519Provider provider;
  util::Rng rng(8032);
  auto recipient = provider.GenerateKeyPair(rng);
  auto intruder = provider.GenerateKeyPair(rng);
  ASSERT_TRUE(recipient.ok() && intruder.ok());
  const std::vector<uint8_t> payload{4, 5, 6};
  SealedMessage sealed = SealForRecipient(recipient->pub, payload, rng);
  for (int round = 0; round < 2; ++round) {
    auto opened = OpenSealed(provider, sealed, recipient->priv);
    ASSERT_TRUE(opened.ok());
    EXPECT_EQ(*opened, payload);
    auto denied = OpenSealed(provider, sealed, intruder->priv);
    ASSERT_FALSE(denied.ok());
    EXPECT_EQ(denied.status().code(), StatusCode::kPermissionDenied);
  }
}

// Eight pool workers sign and derive on one provider, alternating
// between keys every worker shares (whose first imports race) and a key
// of their own. Every signature must equal the single-threaded bytes.
// The TSan CI job selects this suite by name.
TEST(Ed25519KeyCacheRaceTest, ConcurrentSignAndDeriveMatchSerialBytes) {
  constexpr size_t kWorkers = 8;
  constexpr size_t kShared = 3;
  constexpr size_t kRounds = 24;
  Ed25519Provider serial;
  util::Rng rng(31);
  std::vector<KeyPair> keys;
  for (size_t i = 0; i < kShared + kWorkers; ++i) {
    auto pair = serial.GenerateKeyPair(rng);
    ASSERT_TRUE(pair.ok());
    keys.push_back(std::move(*pair));
  }
  auto key_for = [&](size_t worker, size_t round) -> const KeyPair& {
    return round % 2 == 0 ? keys[(round / 2) % kShared]
                          : keys[kShared + worker];
  };
  auto message = [](size_t worker, size_t round) {
    return std::vector<uint8_t>{static_cast<uint8_t>(worker),
                                static_cast<uint8_t>(round), 0x2a};
  };

  Ed25519Provider shared;
  std::vector<std::vector<Signature>> sigs(kWorkers,
                                           std::vector<Signature>(kRounds));
  std::vector<std::vector<PublicKey>> pubs(kWorkers,
                                           std::vector<PublicKey>(kRounds));
  util::ThreadPool pool(static_cast<int>(kWorkers));
  pool.ParallelFor(kWorkers, [&](size_t worker) {
    for (size_t round = 0; round < kRounds; ++round) {
      const KeyPair& pair = key_for(worker, round);
      auto sig = shared.Sign(pair.priv, message(worker, round));
      if (sig.ok()) sigs[worker][round] = std::move(*sig);
      auto pub = shared.DerivePublicKey(pair.priv);
      if (pub.ok()) pubs[worker][round] = *pub;
    }
  });

  for (size_t worker = 0; worker < kWorkers; ++worker) {
    for (size_t round = 0; round < kRounds; ++round) {
      const KeyPair& pair = key_for(worker, round);
      const std::vector<uint8_t> msg = message(worker, round);
      auto want = serial.Sign(pair.priv, msg);
      ASSERT_TRUE(want.ok());
      EXPECT_EQ(sigs[worker][round], *want) << worker << "/" << round;
      EXPECT_EQ(pubs[worker][round], pair.pub) << worker << "/" << round;
      EXPECT_TRUE(shared.Verify(pair.pub, msg, sigs[worker][round]));
    }
  }
  EXPECT_EQ(shared.meter().signs(), kWorkers * kRounds);
}

}  // namespace
}  // namespace sep2p::crypto
