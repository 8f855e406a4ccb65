// HMAC-SHA256 (RFC 2104) built on crypto::Sha256.
//
// Used by the simulation signature provider (crypto/sim_provider.h) to
// produce deterministic, verifiable-inside-the-simulator pseudo-signatures.
// The construction stays in-repo rather than calling OpenSSL's HMAC(),
// which sets up EVP state per call and is ~8x slower on a 40-byte message.
//
// HmacSha256Key runs the key schedule (pad the key to a block, absorb
// key ^ ipad and key ^ opad) once; Mac() resumes from copies of the two
// absorbed states, so each MAC under a kept key costs two compressions
// fewer. HmacSha256() is one schedule plus one Mac().

#ifndef SEP2P_CRYPTO_HMAC_H_
#define SEP2P_CRYPTO_HMAC_H_

#include <cstdint>
#include <vector>

#include "crypto/sha256.h"

namespace sep2p::crypto {

// HMAC-SHA256 under one key, with the key schedule already done.
class HmacSha256Key {
 public:
  HmacSha256Key(const uint8_t* key, size_t key_len);

  // HMAC-SHA256(key, message).
  Digest Mac(const uint8_t* msg, size_t msg_len) const;

 private:
  Sha256 inner_;  // has absorbed key ^ ipad
  Sha256 outer_;  // has absorbed key ^ opad
};

// Computes HMAC-SHA256(key, message).
Digest HmacSha256(const uint8_t* key, size_t key_len, const uint8_t* msg,
                  size_t msg_len);
Digest HmacSha256(const std::vector<uint8_t>& key,
                  const std::vector<uint8_t>& msg);

}  // namespace sep2p::crypto

#endif  // SEP2P_CRYPTO_HMAC_H_
