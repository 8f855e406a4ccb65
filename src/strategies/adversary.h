// Covert-adversary model (paper §2.3-§2.4, Assumption 3).
//
// Colluding nodes deviate from a protocol only when the deviation cannot
// be detected. Against the baseline strategies the profitable covert
// deviations are:
//
//  * Execution-Setter claiming: verifiers can only check that the party
//    presenting the actor list is "sufficiently near" hash(RND_T) — the
//    tolerance must admit a region that always holds at least one node,
//    or honest executions would stall. Any colluder inside the tolerance
//    region can therefore claim to be S undetected (ES.NAV/ES.AV; per
//    hashed destination for M.Hash).
//  * Actor-list stuffing: a corrupted list builder fills the list with
//    colluders (and, without actor verification, with fabricated ids).
//
// Against SEP2P neither deviation gets past the k SL attestations over
// the list, so Sep2pStrategy ignores this config and runs every
// selection honestly. SEP2P's own covert deviation, a corrupted SL
// hiding honest entries of its candidate list, is the attack
// subsystem's sl-bias scenario (src/attack/); the union of the k
// candidate lists defeats it.

#ifndef SEP2P_STRATEGIES_ADVERSARY_H_
#define SEP2P_STRATEGIES_ADVERSARY_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "dht/directory.h"
#include "dht/region.h"
#include "util/rng.h"

namespace sep2p::strategies {

struct AdversaryConfig {
  bool claim_execution_setter = true;
  bool stuff_actor_list = true;

  static AdversaryConfig Passive() { return {false, false}; }
};

// Returns a colluding node inside the tolerance region around `p` able to
// impersonate the node responsible for `p`, if any.
std::optional<uint32_t> FindClaimingColluder(const dht::Directory& directory,
                                             dht::RingPos p,
                                             double tolerance_rs);

// The ONE colluder-placement rule, shared by the live simulator
// (sim::Network::ReassignColluders) and the closed-form adversary
// model: sample min(count, alive) distinct nodes uniformly from the
// alive population (standby/departed nodes never collude) and return
// their directory indices in ascending order. The draw sequence is
// exactly Rng::SampleIndices over the alive ranks, so both consumers
// given the same seed mark the identical coalition — the parity the
// attack sweep and the analytic effectiveness figures rely on.
std::vector<uint32_t> SampleColluders(const dht::Directory& directory,
                                      uint64_t count, util::Rng& rng);

}  // namespace sep2p::strategies

#endif  // SEP2P_STRATEGIES_ADVERSARY_H_
