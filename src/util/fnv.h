// FNV-1a, the fold behind the run digests that certify a sweep
// (attack/sweep.cc) or a merged cluster trace (obs/cluster.cc): any
// divergence in what was folded shows in the digest.

#ifndef SEP2P_UTIL_FNV_H_
#define SEP2P_UTIL_FNV_H_

#include <cstdint>

namespace sep2p::util {

inline constexpr uint64_t kFnvOffsetBasis = 14695981039346656037ull;
inline constexpr uint64_t kFnvPrime = 1099511628211ull;

inline uint64_t FnvFoldByte(uint64_t h, uint8_t byte) {
  return (h ^ byte) * kFnvPrime;
}

// Folds the eight bytes of `v`, least significant first.
inline uint64_t FnvFold(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i, v >>= 8) {
    h = FnvFoldByte(h, static_cast<uint8_t>(v));
  }
  return h;
}

}  // namespace sep2p::util

#endif  // SEP2P_UTIL_FNV_H_
