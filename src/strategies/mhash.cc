#include "strategies/mhash.h"

#include <algorithm>

#include "crypto/sha256.h"

namespace sep2p::strategies {

Result<StrategyOutcome> MHashStrategy::Run(uint32_t trigger_index,
                                           util::Rng& rng) {
  const dht::Directory& dir = *ctx_.directory;

  Result<core::VrandProtocol::Outcome> vr =
      vrand_.Generate(trigger_index, rng);
  if (!vr.ok()) return vr.status();

  StrategyOutcome outcome;
  outcome.setup_cost = vr->cost;
  const int k = vr->vrnd.k();
  outcome.verification_cost = 2.0 * k + ctx_.actor_count;

  // A destinations by repeated hashing; all A routings proceed in
  // parallel from T.
  crypto::Hash256 destination = vr->vrnd.Value();
  std::vector<net::Cost> routing_costs;
  for (int i = 0; i < ctx_.actor_count; ++i) {
    destination = destination.Rehash();
    const dht::RingPos target = destination.ring_pos();

    Result<dht::RouteResult> route =
        ctx_.overlay->RouteKey(trigger_index, destination);
    if (!route.ok()) return route.status();
    routing_costs.push_back(net::Cost::Step(0, route->hops));

    // Per-destination claim: a colluder inside the tolerance region
    // beats the rightful nearest node; verifiers cannot tell.
    std::optional<uint32_t> actor;
    if (adversary_.claim_execution_setter) {
      actor = FindClaimingColluder(ctx_, target);
    }
    if (!actor.has_value()) actor = dir.NearestIndex(target);
    if (!actor.has_value()) {
      return Status::Unavailable("mhash: empty network");
    }
    outcome.actors.push_back(*actor);
  }
  outcome.setup_cost.Then(net::Cost::Par(routing_costs));
  // Each selected actor replies with its certificate (one message each;
  // verification of those certificates is the verifier's 2k+A).
  outcome.setup_cost.Then(
      net::Cost::ParIdentical(net::Cost::Step(0, 1), ctx_.actor_count));

  outcome.corrupted_actors = CountCorrupted(outcome.actors);
  return outcome;
}

}  // namespace sep2p::strategies
