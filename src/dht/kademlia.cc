#include "dht/kademlia.h"

namespace sep2p::dht {

KademliaOverlay::KademliaOverlay(const Directory* directory)
    : directory_(directory) {}

std::optional<uint32_t> KademliaOverlay::XorNearestInInterval(
    RingPos target, RingPos lo, RingPos hi) const {
  if (!directory_->FirstAliveInRange(lo, hi).has_value()) {
    return std::nullopt;
  }
  // Trie descent: at each level prefer the half whose leading bit
  // matches the target's (smaller XOR distance); fall back to the other
  // half when the preferred one is empty. Dyadic intervals stay dyadic
  // under halving. `hi - lo` is the width; the full space (lo = hi = 0)
  // has width 2^128, which wraps to 0 — handled as the first case.
  RingPos width = hi - lo;
  while (width != 1) {
    const RingPos half =
        width == 0 ? (static_cast<RingPos>(1) << 127) : (width >> 1);
    const RingPos mid = lo + half;
    // The target's bit at the split position decides the XOR-closer
    // child; this holds whether or not the target itself lies inside
    // the interval (bits above the split contribute equally to both
    // children).
    const bool prefer_low = (target & half) == 0;
    const RingPos pref_lo = prefer_low ? lo : mid;
    const RingPos pref_hi = prefer_low ? mid : lo + width;  // wraps to 0 OK

    if (directory_->FirstAliveInRange(pref_lo, pref_hi).has_value()) {
      lo = pref_lo;
    } else {
      lo = prefer_low ? mid : lo;
    }
    width = half;
  }
  return directory_->FirstAliveInRange(lo, lo + 1);
}

std::optional<uint32_t> KademliaOverlay::XorNearest(RingPos target) const {
  return XorNearestInInterval(target, 0, 0);
}

Result<RouteResult> KademliaOverlay::RouteKey(uint32_t from_index,
                                              const NodeId& key) const {
  const RingPos target = key.ring_pos();
  std::optional<uint32_t> owner_opt = XorNearest(target);
  if (!owner_opt.has_value()) {
    return Status::Unavailable("kademlia: no alive node");
  }
  const uint32_t owner = *owner_opt;

  RouteResult result;
  result.dest_index = owner;

  uint32_t current = from_index;
  int guard = 0;
  while (current != owner) {
    if (++guard > 160) {
      return Status::Internal("kademlia: routing failed to converge");
    }
    const RingPos pos = directory_->pos(current);
    const RingPos distance = XorDistance(pos, target);
    if (distance == 0) break;  // same position as the target key

    // Bucket b: nodes sharing current's prefix above bit b but differing
    // at bit b — the dyadic interval that contains the target.
    const int b = MsbIndex(distance);
    const RingPos bit = static_cast<RingPos>(1) << b;
    const RingPos bucket_lo = (pos ^ bit) & ~(bit - 1);
    const RingPos bucket_hi = bucket_lo + bit;  // wraps to 0 at b = 127

    // Kademlia nodes keep only ~K contacts per bucket, preferring those
    // XOR-closest to themselves: model the known slice of the bucket as
    // the smallest dyadic interval around current's mirror image
    // (pos with bit b flipped) holding >= kBucketSize alive nodes, then
    // forward to the contact in that slice closest to the target.
    const RingPos mirror = pos ^ bit;
    RingPos slice_lo = bucket_lo;
    RingPos slice_hi = bucket_hi;
    for (RingPos width = 1; width != 0 && width <= bit; width <<= 1) {
      const RingPos candidate_lo = mirror & ~(width - 1);
      const RingPos candidate_hi =
          candidate_lo + width;  // wraps to 0 only at full width
      if (directory_->CountAliveInRange(candidate_lo, candidate_hi) >=
          kBucketSize) {
        slice_lo = candidate_lo;
        slice_hi = candidate_hi;
        break;
      }
      if (width == bit) break;  // whole (sparse) bucket is the slice
    }

    std::optional<uint32_t> next =
        XorNearestInInterval(target, slice_lo, slice_hi);
    ++result.hops;
    if (!next.has_value() || *next == current) {
      // Empty bucket: no node is closer on this prefix, so the owner is
      // reachable directly (it is in a nearer bucket current also
      // knows).
      current = owner;
      break;
    }
    current = *next;
  }
  return result;
}

}  // namespace sep2p::dht
