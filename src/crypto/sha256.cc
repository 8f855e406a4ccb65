#include "crypto/sha256.h"

// SHA256_Init/Update/Final are deprecated since OpenSSL 3.0 in favour of
// EVP, but every 3.x release still ships them, and they are the fast path
// for the 32-64 byte hashes the protocols are made of: EVP allocates a
// context per hash, and the one-shot SHA256() fetches the algorithm on
// every call. The deprecation warning is silenced in this file only.
#pragma GCC diagnostic ignored "-Wdeprecated-declarations"

namespace sep2p::crypto {

Sha256::Sha256() { Reset(); }

void Sha256::Reset() { SHA256_Init(&ctx_); }

void Sha256::Update(const uint8_t* data, size_t len) {
  SHA256_Update(&ctx_, data, len);
}

void Sha256::Update(const std::vector<uint8_t>& data) {
  Update(data.data(), data.size());
}

void Sha256::Update(const std::string& data) {
  Update(reinterpret_cast<const uint8_t*>(data.data()), data.size());
}

void Sha256::Update(const Digest& digest) {
  Update(digest.data(), digest.size());
}

Digest Sha256::Finish() {
  Digest out;
  SHA256_Final(out.data(), &ctx_);
  return out;
}

Digest Sha256Hash(const uint8_t* data, size_t len) {
  Sha256 ctx;
  ctx.Update(data, len);
  return ctx.Finish();
}

Digest Sha256Hash(const std::vector<uint8_t>& data) {
  return Sha256Hash(data.data(), data.size());
}

Digest Sha256Hash(const std::string& data) {
  return Sha256Hash(reinterpret_cast<const uint8_t*>(data.data()),
                    data.size());
}

}  // namespace sep2p::crypto
