#include "dht/chord.h"

namespace sep2p::dht {

ChordOverlay::ChordOverlay(const Directory* directory, int max_hops)
    : directory_(directory), max_hops_(max_hops) {}

Result<RouteResult> ChordOverlay::Route(uint32_t from_index,
                                        RingPos target) const {
  std::optional<uint32_t> owner_opt = directory_->SuccessorIndex(target);
  if (!owner_opt.has_value()) {
    return Status::Unavailable("chord: no alive node");
  }
  const uint32_t owner = *owner_opt;
  const RingPos owner_pos = directory_->pos(owner);
  // The last alive node before the target (one exists whenever the
  // owner does). A finger successor(cur + 2^j) with 2^j < dist(cur,
  // target) lands strictly inside (cur, target) exactly when its start
  // does not pass this node.
  const RingPos last_pos =
      directory_->pos(*directory_->PredecessorIndex(target));

  RouteResult result;
  result.dest_index = owner;

  uint32_t current = from_index;
  while (current != owner && result.hops < max_hops_) {
    const RingPos cur_pos = directory_->pos(current);
    const RingPos dist_to_target = ClockwiseDistance(cur_pos, target);

    // Closest preceding finger: the largest 2^j <= span, where span is
    // the distance to the last node still strictly inside (cur, target).
    RingPos span = ClockwiseDistance(cur_pos, last_pos);
    if (span >= dist_to_target) span = 0;
    // A walk that starts at a dead node in [target, owner) sees the
    // owner itself inside (cur, target); every finger's successor then
    // stays inside, so the largest jump below the target wins.
    const RingPos to_owner = ClockwiseDistance(cur_pos, owner_pos);
    if (to_owner > 0 && to_owner < dist_to_target) span = dist_to_target - 1;

    uint32_t next = owner;  // fallback: target owner is our successor
    if (span > 0) {
      next = *directory_->SuccessorIndex(
          cur_pos + (static_cast<RingPos>(1) << MsbIndex(span)));
    }
    ++result.hops;
    if (next == current) break;  // no progress possible; owner adjacent
    current = next;
  }

  if (current != owner) {
    // Greedy routing always terminates on a static ring; reaching the hop
    // bound indicates an internal inconsistency.
    return Status::Internal("chord: routing failed to converge");
  }
  return result;
}

}  // namespace sep2p::dht
