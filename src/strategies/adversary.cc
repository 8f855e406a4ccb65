#include "strategies/adversary.h"

#include <algorithm>
#include <utility>

#include "dht/region.h"

namespace sep2p::strategies {

std::optional<uint32_t> FindClaimingColluder(const core::ProtocolContext& ctx,
                                             dht::RingPos p) {
  dht::Region tolerance = dht::Region::Centered(p, ctx.tolerance_rs);
  std::optional<uint32_t> best;
  dht::RingPos best_distance = 0;
  for (uint32_t idx : ctx.directory->NodesInRegion(tolerance)) {
    if (!ctx.Colludes(idx)) continue;
    dht::RingPos d = dht::RingDistance(ctx.directory->pos(idx), p);
    if (!best.has_value() || d < best_distance) {
      best = idx;
      best_distance = d;
    }
  }
  return best;
}

core::ColluderSet SampleColluders(const dht::Directory& directory,
                                  uint64_t count, util::Rng& rng) {
  // Sample over the alive population (pool/departed nodes never collude;
  // their handles are interleaved with alive ones because the directory
  // sorts by ring position). With no pool and no churn the k-th alive
  // node IS handle k, so the RNG stream and the chosen set are
  // bit-identical to the historical sample-over-[0, n) path.
  const size_t alive = directory.alive_count();
  std::vector<size_t> chosen =
      rng.SampleIndices(alive, std::min<uint64_t>(count, alive));
  std::vector<uint32_t> colluders;
  colluders.reserve(chosen.size());
  for (size_t k : chosen) {
    colluders.push_back(*directory.NthAlive(k));
  }
  std::sort(colluders.begin(), colluders.end());
  return core::ColluderSet(std::move(colluders), directory.size());
}

}  // namespace sep2p::strategies
