// M.Hash reference strategy (paper §4.1).
//
// Derived from the security-optimal baseline but on a DHT: the verifiable
// random RND_T is hashed repeatedly to derive A destinations, and the
// node nearest each destination becomes an actor. Verifiers must check
// that each actor is a genuine PDMS near its destination: 2k + A
// asymmetric operations. The flaw Figure 3 exposes: "near" necessarily
// has a tolerance (some node must always qualify), so each destination
// with a colluder inside its tolerance region yields a corrupted actor.

#ifndef SEP2P_STRATEGIES_MHASH_H_
#define SEP2P_STRATEGIES_MHASH_H_

#include "core/vrand.h"
#include "strategies/strategy.h"

namespace sep2p::strategies {

class MHashStrategy : public Strategy {
 public:
  using Strategy::Strategy;
  const char* name() const override { return "M.Hash"; }
  Result<StrategyOutcome> Run(uint32_t trigger_index,
                              util::Rng& rng) override;

 private:
  core::VrandProtocol vrand_{ctx_};
};

}  // namespace sep2p::strategies

#endif  // SEP2P_STRATEGIES_MHASH_H_
