#include "crypto/hmac.h"

#include <cstring>

namespace sep2p::crypto {

HmacSha256Key::HmacSha256Key(const uint8_t* key, size_t key_len) {
  constexpr size_t kBlockSize = 64;
  uint8_t key_block[kBlockSize];
  std::memset(key_block, 0, kBlockSize);

  if (key_len > kBlockSize) {
    Digest hashed = Sha256Hash(key, key_len);
    std::memcpy(key_block, hashed.data(), hashed.size());
  } else {
    std::memcpy(key_block, key, key_len);
  }

  uint8_t ipad[kBlockSize], opad[kBlockSize];
  for (size_t i = 0; i < kBlockSize; ++i) {
    ipad[i] = key_block[i] ^ 0x36;
    opad[i] = key_block[i] ^ 0x5c;
  }
  inner_.Update(ipad, kBlockSize);
  outer_.Update(opad, kBlockSize);
}

Digest HmacSha256Key::Mac(const uint8_t* msg, size_t msg_len) const {
  Sha256 inner = inner_;
  inner.Update(msg, msg_len);
  Digest inner_digest = inner.Finish();

  Sha256 outer = outer_;
  outer.Update(inner_digest.data(), inner_digest.size());
  return outer.Finish();
}

Digest HmacSha256(const uint8_t* key, size_t key_len, const uint8_t* msg,
                  size_t msg_len) {
  return HmacSha256Key(key, key_len).Mac(msg, msg_len);
}

Digest HmacSha256(const std::vector<uint8_t>& key,
                  const std::vector<uint8_t>& msg) {
  return HmacSha256(key.data(), key.size(), msg.data(), msg.size());
}

}  // namespace sep2p::crypto
