#include "crypto/hash256.h"

#include "util/hex.h"

namespace sep2p::crypto {

Hash256 Hash256::Xor(const Hash256& other) const {
  Hash256 out;
  for (size_t i = 0; i < bytes_.size(); ++i) {
    out.bytes_[i] = bytes_[i] ^ other.bytes_[i];
  }
  return out;
}

Hash256 Hash256::FromRingPos(RingPos pos) {
  Hash256 out;
  for (int i = 15; i >= 0; --i) {
    out.bytes_[i] = static_cast<uint8_t>(pos & 0xff);
    pos >>= 8;
  }
  return out;
}

std::string Hash256::ToHex() const {
  return util::ToHex(bytes_.data(), bytes_.size());
}

std::string Hash256::ShortHex() const { return ToHex().substr(0, 8); }

RingPos ClockwiseDistance(RingPos from, RingPos to) {
  return to - from;  // wraps modulo 2^128 by construction
}

RingPos RingDistance(RingPos a, RingPos b) {
  RingPos d1 = b - a;
  RingPos d2 = a - b;
  return d1 < d2 ? d1 : d2;
}

}  // namespace sep2p::crypto
