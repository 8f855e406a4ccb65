// Hash256: a 256-bit value with the operations SEP2P needs.
//
// Node identifiers, verifiable randoms and DHT keys are all 256-bit hashes.
// Identity-level operations (equality, ordering, XOR, hex) work on the full
// 256 bits. Geometry on the DHT ring — distances, region membership —
// uses the top 128 bits interpreted as an unsigned integer position on a
// ring of size 2^128 (RingPos). 128 bits of geometric precision is far
// beyond what networks of up to 10^7 nodes can resolve, while letting the
// hot simulation paths use native __int128 arithmetic.

#ifndef SEP2P_CRYPTO_HASH256_H_
#define SEP2P_CRYPTO_HASH256_H_

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <string>

#include "crypto/sha256.h"

namespace sep2p::crypto {

// Position on the DHT ring: unsigned integer modulo 2^128.
using RingPos = unsigned __int128;

class Hash256 {
 public:
  Hash256() : bytes_{} {}
  explicit Hash256(const Digest& digest) : bytes_(digest) {}

  static Hash256 Zero() { return Hash256(); }

  // Hashes arbitrary bytes into a Hash256.
  static Hash256 Of(const uint8_t* data, size_t len) {
    return Hash256(Sha256Hash(data, len));
  }
  static Hash256 Of(const std::string& data) {
    return Hash256(Sha256Hash(data));
  }

  const Digest& bytes() const { return bytes_; }
  Digest& bytes() { return bytes_; }

  // Re-hash: hash(this). Used by M.Hash (repeated hashing to derive A
  // destinations) and by SEP2P's relocation mechanism.
  Hash256 Rehash() const { return Hash256::Of(bytes_.data(), bytes_.size()); }

  // XOR combination, e.g. RND_T = RND_1 xor ... xor RND_k (§3.4) and the
  // actor-list sort key kpub_n xor RND_S (§3.5 step 8.e).
  Hash256 Xor(const Hash256& other) const;

  // The top 128 bits as a ring position: two big-endian 64-bit loads.
  RingPos ring_pos() const {
    return (static_cast<RingPos>(LoadBigEndian64(bytes_.data())) << 64) |
           LoadBigEndian64(bytes_.data() + 8);
  }

  // Builds a Hash256 whose ring position is `pos` (lower 128 bits zero).
  static Hash256 FromRingPos(RingPos pos);

  // Lower-case hex string of all 32 bytes.
  std::string ToHex() const;
  // First 8 hex chars — convenient for logging.
  std::string ShortHex() const;

  friend bool operator==(const Hash256& a, const Hash256& b) {
    return a.bytes_ == b.bytes_;
  }
  friend bool operator!=(const Hash256& a, const Hash256& b) {
    return !(a == b);
  }
  friend bool operator<(const Hash256& a, const Hash256& b) {
    return a.bytes_ < b.bytes_;
  }

 private:
  static uint64_t LoadBigEndian64(const uint8_t* p) {
    uint64_t v = 0;
    std::memcpy(&v, p, sizeof(v));
    if constexpr (std::endian::native == std::endian::little) {
      v = __builtin_bswap64(v);
    }
    return v;
  }

  Digest bytes_;
};

// Clockwise distance from `from` to `to` on the 2^128 ring.
RingPos ClockwiseDistance(RingPos from, RingPos to);

// Minimal (bidirectional) ring distance between two positions.
RingPos RingDistance(RingPos a, RingPos b);

}  // namespace sep2p::crypto

#endif  // SEP2P_CRYPTO_HASH256_H_
