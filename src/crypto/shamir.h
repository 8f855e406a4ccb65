// Shamir secret sharing over GF(2^8) (paper §5.3, metadata index
// protection).
//
// A secret byte string is split into `s` shares such that any `p` of them
// reconstruct it and any p-1 reveal nothing. SEP2P uses this to split each
// concept of the distributed concept index so that disclosing a concept
// requires `p` colluding metadata indexers instead of one.

#ifndef SEP2P_CRYPTO_SHAMIR_H_
#define SEP2P_CRYPTO_SHAMIR_H_

#include <cstdint>
#include <tuple>
#include <vector>

#include "util/rng.h"
#include "util/status.h"

namespace sep2p::crypto {

struct SecretShare {
  uint8_t x = 0;                // evaluation point (share index, 1..255)
  std::vector<uint8_t> data;    // one byte of polynomial value per secret byte

  // Wire order (core/wire_format.h).
  static constexpr auto kFields =
      std::tuple(&SecretShare::x, &SecretShare::data);
};

// GF(2^8) arithmetic with the AES polynomial x^8+x^4+x^3+x+1.
namespace gf256 {
uint8_t Add(uint8_t a, uint8_t b);
uint8_t Mul(uint8_t a, uint8_t b);
uint8_t Inv(uint8_t a);  // a != 0
}  // namespace gf256

// Splits `secret` into `share_count` shares with reconstruction threshold
// `threshold` (threshold <= share_count, both in [1, 255]).
Result<std::vector<SecretShare>> ShamirSplit(
    const std::vector<uint8_t>& secret, int threshold, int share_count,
    util::Rng& rng);

// Reconstructs the secret from >= threshold distinct shares. Fails if the
// shares are inconsistent in length or duplicate an evaluation point.
Result<std::vector<uint8_t>> ShamirCombine(
    const std::vector<SecretShare>& shares);

}  // namespace sep2p::crypto

#endif  // SEP2P_CRYPTO_SHAMIR_H_
