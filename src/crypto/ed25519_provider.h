// Real Ed25519 signatures via OpenSSL's EVP interface.
//
// Private keys are derived deterministically from the caller's Rng (an
// Ed25519 private key is 32 uniform bytes), so experiments remain
// reproducible even with real cryptography.
//
// Signing-key cache. Importing a private key into OpenSSL derives its
// public point, which costs about as much as the signature itself. The
// provider therefore imports each distinct 32-byte key once, the first
// time it signs or its public key is derived, and keeps the EVP_PKEY and
// the derived public key until the provider is destroyed. Sign and
// DerivePublicKey are lookups after that; outputs are byte-identical
// (Ed25519 is deterministic) and the meter counts exactly as before.
//  * Thread safety: a std::mutex guards the map; imports run outside it
//    and the first insert of a key wins. Signing shares one EVP_PKEY
//    across threads, which OpenSSL 3 allows for read-only use.
//  * Memory: about 0.6 KB per key that has signed or been derived.
//    GenerateKeyPair does not insert, so keys that never sign cost
//    nothing.
//  * No eviction: a provider serves one world, which holds at most one
//    key per node plus the CA key.
// Verification keeps no state: public keys arrive from the network.

#ifndef SEP2P_CRYPTO_ED25519_PROVIDER_H_
#define SEP2P_CRYPTO_ED25519_PROVIDER_H_

#include <openssl/types.h>

#include <array>
#include <cstddef>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "crypto/signature_provider.h"

namespace sep2p::crypto {

// Lets std::unique_ptr own an OpenSSL key.
struct EvpPkeyFree {
  void operator()(EVP_PKEY* pkey) const;
};

class Ed25519Provider : public SignatureProvider {
 public:
  const char* name() const override { return "ed25519"; }
  size_t private_key_size() const override { return 32; }  // the seed
  size_t signature_size() const override { return 64; }

  Result<PublicKey> DerivePublicKey(const PrivateKey& key) override;

 protected:
  Result<KeyPair> DoGenerateKeyPair(util::Rng& rng) override;
  Result<Signature> DoSign(const PrivateKey& key, const uint8_t* msg,
                           size_t len) override;
  bool DoVerify(const PublicKey& key, const uint8_t* msg, size_t len,
                const Signature& sig) override;
  // Batched verification amortizes the EVP_PKEY import (the dominant
  // fixed cost besides the curve math) across runs of equal keys and
  // reuses one EVP_MD_CTX for the whole batch.
  void DoVerifyBatch(const VerifyItem* items, size_t count,
                     uint8_t* ok_out) override;

 private:
  using Seed = std::array<uint8_t, 32>;
  struct SeedHash {
    size_t operator()(const Seed& seed) const;
  };
  // One imported private key and the public key derived from it.
  struct SigningKey {
    std::unique_ptr<EVP_PKEY, EvpPkeyFree> pkey;
    PublicKey pub{};
  };

  // The cached import of `key`, created on first use; nullptr when the
  // key is malformed (not 32 bytes, or OpenSSL rejects it). Entries are
  // never erased, so the pointer stays valid for the provider's life.
  const SigningKey* FindOrImport(const PrivateKey& key);

  std::mutex mu_;
  std::unordered_map<Seed, SigningKey, SeedHash> keys_;  // guarded by mu_
};

}  // namespace sep2p::crypto

#endif  // SEP2P_CRYPTO_ED25519_PROVIDER_H_
