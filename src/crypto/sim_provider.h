// SimProvider: fast deterministic pseudo-signatures for simulation.
//
// *** NOT CRYPTOGRAPHICALLY SECURE — simulation only. ***
//
// A signature here is HMAC-SHA256(SHA256("sep2p-sim-tag" || pubkey), msg):
// anyone holding the public key can forge it. That is acceptable inside
// the closed simulator, where the only "signers" are protocol code paths
// and the quantities of interest are operation *counts* (Definition 3 in
// the paper), which the CryptoMeter records identically for this provider
// and for Ed25519Provider. Large-scale experiments (10^5..10^6 nodes)
// use SimProvider so that key generation does not dominate runtime;
// everything security-relevant in the test suite runs Ed25519Provider.
//
// Signing state: signing under a private key first derives pub =
// SHA256(priv), the MAC key and its HMAC schedule (crypto/hmac.h), four
// SHA-256 compressions. Each thread keeps that state for the last key
// it signed with, so the CA issuing a network's certificates derives it
// once per worker; a signer whose key changes every call (TL, SL and
// attestor signatures) derives it each time. One ~260-byte entry per
// thread, not a map like Ed25519Provider's key cache: up to 10^6 node
// keys sign in a simulation, and only the CA signs many times in a row.
// The entry depends on the key bytes alone: no lock, and every
// SimProvider shares it.

#ifndef SEP2P_CRYPTO_SIM_PROVIDER_H_
#define SEP2P_CRYPTO_SIM_PROVIDER_H_

#include "crypto/signature_provider.h"

namespace sep2p::crypto {

class SimProvider : public SignatureProvider {
 public:
  const char* name() const override { return "sim"; }
  size_t private_key_size() const override { return 32; }
  size_t signature_size() const override { return 32; }  // HMAC-SHA256

  Result<PublicKey> DerivePublicKey(const PrivateKey& key) override;

 protected:
  Result<KeyPair> DoGenerateKeyPair(util::Rng& rng) override;
  Result<Signature> DoSign(const PrivateKey& key, const uint8_t* msg,
                           size_t len) override;
  bool DoVerify(const PublicKey& key, const uint8_t* msg, size_t len,
                const Signature& sig) override;
  // Batched verification hoists the MAC-key derivation (one SHA-256 per
  // distinct public key) out of the item loop: items are visited in
  // key-sorted order so every run of equal keys derives its MAC key
  // once. The certificate checks in a batch (every one under the CA
  // key) share a single derivation.
  void DoVerifyBatch(const VerifyItem* items, size_t count,
                     uint8_t* ok_out) override;
};

}  // namespace sep2p::crypto

#endif  // SEP2P_CRYPTO_SIM_PROVIDER_H_
