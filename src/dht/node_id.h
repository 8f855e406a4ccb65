// Node identifiers and ring-geometry helpers.
//
// A node's DHT id is imposed (paper §3.2): id = hash(public key). The id
// is a full 256-bit hash; geometric reasoning (regions, distances) runs on
// the 2^128 ring via Hash256::ring_pos().

#ifndef SEP2P_DHT_NODE_ID_H_
#define SEP2P_DHT_NODE_ID_H_

#include <cstdint>

#include "crypto/hash256.h"
#include "crypto/signature_provider.h"

namespace sep2p::dht {

using NodeId = crypto::Hash256;
using crypto::RingPos;
using crypto::ClockwiseDistance;
using crypto::RingDistance;

// Imposed node location: hash of the certified public key. Uniformly
// distributed by construction, and checkable with a single certificate
// verification.
NodeId NodeIdForKey(const crypto::PublicKey& pub);

// Converts a normalized region size rs in (0, 1] to a ring width
// (rs * 2^128), saturating at full ring; a size that is not positive,
// NaN included, gives 0. Precise to ~2^-53 relative error.
RingPos WidthFromFraction(double rs);

// Inverse of WidthFromFraction.
double FractionFromWidth(RingPos width);

// Index of the most significant set bit of a ring distance (0..127);
// `value` must be non-zero.
inline int MsbIndex(RingPos value) {
  const uint64_t high = static_cast<uint64_t>(value >> 64);
  if (high != 0) return 127 - __builtin_clzll(high);
  return 63 - __builtin_clzll(static_cast<uint64_t>(value));
}

}  // namespace sep2p::dht

#endif  // SEP2P_DHT_NODE_ID_H_
