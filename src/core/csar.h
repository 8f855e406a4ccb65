// CSAR-style verifiable random with C+1 arbitrary participants
// (paper §3.1, "baseline security-optimal protocol", after
// Backes et al., NDSS'09).
//
// Without the k-table/legitimacy machinery, the only way to guarantee an
// honest participant among covert adversaries is to enroll C+1 nodes:
// any coalition has at most C members, so at least one participant is
// honest and the commit-reveal XOR is uniform. The actors are then
// derived by repeatedly hashing the random and mapping each value to a
// rank in the public-key-sorted node list.
//
// This is the upper bound SEP2P beats: verification costs one signature
// check per participant — C+1 operations on a full mesh, 2(C+1) + A on
// a DHT (participant and actor genuineness must also be checked) —
// which cannot scale with wide collusions. bench/ablation_baselines
// regenerates that comparison.

#ifndef SEP2P_CORE_CSAR_H_
#define SEP2P_CORE_CSAR_H_

#include <cstdint>
#include <vector>

#include "core/context.h"
#include "core/vrand.h"
#include "net/cost.h"
#include "util/rng.h"

namespace sep2p::core {

// The CSAR random is SEP2P's artifact without a legitimacy region: the
// same commitment list, signatures and XOR over C+1 participants, with
// rs1 = 0.
using CsarRandom = VerifiableRandom;

class CsarProtocol {
 public:
  explicit CsarProtocol(const ProtocolContext& ctx) : ctx_(ctx) {}

  struct Outcome {
    CsarRandom random;
    std::vector<uint32_t> participant_indices;
    net::Cost cost;
  };

  // Runs commit-reveal with `participant_count` nodes drawn uniformly
  // from the whole network (full-mesh assumption of the baseline). For
  // the paper's guarantee, pass C+1.
  Result<Outcome> Generate(uint32_t trigger_index, int participant_count,
                           util::Rng& rng) const;

 private:
  const ProtocolContext& ctx_;
};

// Verifies a CSAR random: certificate + signature per participant plus
// the trigger certificate — 2m+1 asymmetric operations for m
// participants (no legitimacy regions to check).
Result<net::Cost> VerifyCsar(const ProtocolContext& ctx,
                             const CsarRandom& random);

// Maps a verified random to `actor_count` actors: rank hash^i(RND) into
// the public-key-sorted alive node list (the paper's rank mapping).
std::vector<uint32_t> CsarActorsFromRandom(const dht::Directory& directory,
                                           const crypto::Hash256& rnd,
                                           int actor_count);

}  // namespace sep2p::core

#endif  // SEP2P_CORE_CSAR_H_
