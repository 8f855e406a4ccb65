#include "dht/node_id.h"

#include <cmath>

namespace sep2p::dht {

NodeId NodeIdForKey(const crypto::PublicKey& pub) {
  return NodeId::Of(pub.data(), pub.size());
}

RingPos WidthFromFraction(double rs) {
  if (!(rs > 0)) return 0;  // also NaN, which no integer cast may see
  if (rs >= 1.0) return ~static_cast<RingPos>(0);  // saturate: full ring
  // Split rs * 2^128 into (high, low) 64-bit halves to stay within double
  // precision: high = floor(rs * 2^64), low = frac(rs * 2^64) * 2^64.
  const double two64 = 18446744073709551616.0;  // 2^64
  double scaled = rs * two64;
  double high = std::floor(scaled);
  double frac = scaled - high;
  uint64_t high64 = high >= two64 ? ~0ULL : static_cast<uint64_t>(high);
  uint64_t low64 = static_cast<uint64_t>(frac * two64);
  return (static_cast<RingPos>(high64) << 64) | low64;
}

double FractionFromWidth(RingPos width) {
  const double two64 = 18446744073709551616.0;  // 2^64
  uint64_t high = static_cast<uint64_t>(width >> 64);
  uint64_t low = static_cast<uint64_t>(width);
  return (static_cast<double>(high) + static_cast<double>(low) / two64) /
         two64;
}

}  // namespace sep2p::dht
