// SHA-256 (FIPS 180-4), computed by OpenSSL's libcrypto.
//
// This is the cryptographic hash the whole system builds on: node ids are
// hash(public key) (imposed node location, SEP2P §3.2), verifiable randoms
// commit via hash(RND_i) (§3.4), and the execution Setter location is
// hash(RND_T) (§3.5). Every SHA-256 in the tree, HMAC-SHA256 and the
// simulation signature provider included, goes through this class. The
// context is a plain SHA256_CTX held by value, so instances live on the
// stack and share no state between threads, and a copy is an
// independent context at the same point of its stream (HmacSha256Key
// resumes from copies). tests/sha256_test.cc checks the NIST vectors
// and digests computed without libcrypto.

#ifndef SEP2P_CRYPTO_SHA256_H_
#define SEP2P_CRYPTO_SHA256_H_

#include <openssl/sha.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace sep2p::crypto {

using Digest = std::array<uint8_t, 32>;

// Incremental SHA-256 context.
class Sha256 {
 public:
  Sha256();

  // Absorbs `len` bytes.
  void Update(const uint8_t* data, size_t len);
  void Update(const std::vector<uint8_t>& data);
  void Update(const std::string& data);
  void Update(const Digest& digest);

  // Finalizes and returns the digest. The context must not be reused
  // afterwards without Reset().
  Digest Finish();

  void Reset();

 private:
  SHA256_CTX ctx_;
};

// One-shot helpers.
Digest Sha256Hash(const uint8_t* data, size_t len);
Digest Sha256Hash(const std::vector<uint8_t>& data);
Digest Sha256Hash(const std::string& data);

}  // namespace sep2p::crypto

#endif  // SEP2P_CRYPTO_SHA256_H_
