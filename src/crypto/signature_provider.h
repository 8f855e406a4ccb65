// Asymmetric signature abstraction + crypto-operation metering.
//
// SEP2P's protocols are agnostic to the concrete signature scheme: they
// need key pairs, Sign, and Verify. Two implementations exist:
//
//  * Ed25519Provider (crypto/ed25519_provider.h) — real Ed25519 via
//    OpenSSL; used by unit tests, the examples, and anywhere actual
//    security matters.
//  * SimProvider (crypto/sim_provider.h) — deterministic HMAC-based
//    pseudo-signatures; used by the large-scale simulator where
//    generating hundreds of thousands of real key pairs would dominate
//    runtime. NOT cryptographically secure (see its header).
//
// Every Sign/Verify call is counted by the provider's CryptoMeter. The
// paper's evaluation metric is the *number of asymmetric crypto
// operations* (Definition 3), so the meter is what the benchmark
// harnesses ultimately report, making the two providers interchangeable
// for experiments.

#ifndef SEP2P_CRYPTO_SIGNATURE_PROVIDER_H_
#define SEP2P_CRYPTO_SIGNATURE_PROVIDER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

#include "util/rng.h"
#include "util/status.h"

namespace sep2p::crypto {

// Both providers use 32-byte public keys, which also keeps the actor-list
// sort key (kpub xor RND_S, §3.5 step 8.e) uniform across schemes.
using PublicKey = std::array<uint8_t, 32>;

struct PrivateKey {
  std::vector<uint8_t> data;
};

struct KeyPair {
  PublicKey pub;
  PrivateKey priv;
};

using Signature = std::vector<uint8_t>;

// Counts asymmetric crypto operations (the security-cost unit of the
// paper, Definition 3). Counters are atomic because one provider is
// shared by every protocol run, and the trial runner executes runs
// concurrently; relaxed ordering suffices — totals are sums, which are
// scheduling-independent.
class CryptoMeter {
 public:
  void Reset() {
    key_gens_.store(0, std::memory_order_relaxed);
    signs_.store(0, std::memory_order_relaxed);
    verifies_.store(0, std::memory_order_relaxed);
  }

  uint64_t key_gens() const {
    return key_gens_.load(std::memory_order_relaxed);
  }
  uint64_t signs() const { return signs_.load(std::memory_order_relaxed); }
  uint64_t verifies() const {
    return verifies_.load(std::memory_order_relaxed);
  }
  // Total asymmetric operations (signature creations + verifications;
  // certificate checks are signature verifications).
  uint64_t asym_ops() const { return signs() + verifies(); }

  void CountKeyGen() { key_gens_.fetch_add(1, std::memory_order_relaxed); }
  void CountSign() { signs_.fetch_add(1, std::memory_order_relaxed); }
  void CountVerify(uint64_t n = 1) {
    verifies_.fetch_add(n, std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> key_gens_{0};
  std::atomic<uint64_t> signs_{0};
  std::atomic<uint64_t> verifies_{0};
};

// One verification in a batch: the key, message bytes and signature are
// owned by the caller (a BatchVerifier batch) and must stay alive until
// VerifyBatch returns.
struct VerifyItem {
  PublicKey key{};
  std::vector<uint8_t> msg;
  Signature sig;
};

// Deferred-verification sink. Protocol code that would synchronously
// Verify() can instead hand the triple to a sink (when one is attached
// to the ProtocolContext) and optimistically continue; the sink's owner
// resolves the verdicts later, in batches (crypto/batch_verifier.h).
// This is the optimistic-execution shape of batched transaction
// signature checking: the hot path never blocks on a verify, and a
// forged signature fails the whole task at resolution instead of at the
// call site.
class VerifySink {
 public:
  virtual ~VerifySink() = default;
  virtual void Defer(const PublicKey& key, const std::vector<uint8_t>& msg,
                     const Signature& sig) = 0;
};

class SignatureProvider {
 public:
  virtual ~SignatureProvider() = default;

  // Deterministically derives a key pair from `rng`.
  Result<KeyPair> GenerateKeyPair(util::Rng& rng);

  // Signs `len` bytes at `msg`.
  Result<Signature> Sign(const PrivateKey& key, const uint8_t* msg,
                         size_t len);
  Result<Signature> Sign(const PrivateKey& key,
                         const std::vector<uint8_t>& msg) {
    return Sign(key, msg.data(), msg.size());
  }

  // Returns true iff `sig` is a valid signature of the message under `key`.
  bool Verify(const PublicKey& key, const uint8_t* msg, size_t len,
              const Signature& sig);
  bool Verify(const PublicKey& key, const std::vector<uint8_t>& msg,
              const Signature& sig) {
    return Verify(key, msg.data(), msg.size(), sig);
  }

  // Verifies `count` items, writing 1/0 into ok_out[i]. Each item is
  // metered exactly like a single Verify, so batch and loop are
  // interchangeable for the paper's operation counts. Providers may
  // amortize per-key setup across the batch (DoVerifyBatch); the default
  // implementation is a plain loop. Thread-safe: worker pools call this
  // concurrently on disjoint batches (the meter is atomic and
  // verification keeps no state; the only signing state is
  // Ed25519Provider's key cache, which a mutex guards, and
  // SimProvider's per-thread entry, which no two threads share).
  void VerifyBatch(const VerifyItem* items, size_t count, uint8_t* ok_out);

  // Recomputes the public key matching `key`. Used by the sealed-message
  // layer to enforce that only the intended recipient opens a message.
  // Ed25519Provider answers from its signing-key cache after the key's
  // first use.
  virtual Result<PublicKey> DerivePublicKey(const PrivateKey& key) = 0;

  virtual const char* name() const = 0;

  // Byte lengths of this scheme's private keys and signatures, the same
  // for every key and message, so a store of many (the directory's
  // credential blobs) can size fixed strides before it sees one.
  virtual size_t private_key_size() const = 0;
  virtual size_t signature_size() const = 0;

  CryptoMeter& meter() { return meter_; }
  const CryptoMeter& meter() const { return meter_; }

 protected:
  virtual Result<KeyPair> DoGenerateKeyPair(util::Rng& rng) = 0;
  virtual Result<Signature> DoSign(const PrivateKey& key, const uint8_t* msg,
                                   size_t len) = 0;
  virtual bool DoVerify(const PublicKey& key, const uint8_t* msg, size_t len,
                        const Signature& sig) = 0;
  // Batch hook: the default loops DoVerify; providers override to hoist
  // per-key work (key import, MAC-key derivation) out of the item loop.
  virtual void DoVerifyBatch(const VerifyItem* items, size_t count,
                             uint8_t* ok_out);

 private:
  CryptoMeter meter_;
};

}  // namespace sep2p::crypto

#endif  // SEP2P_CRYPTO_SIGNATURE_PROVIDER_H_
