// ES.NAV and ES.AV reference strategies (paper §4.1).
//
// Both run the verifiable random protocol, then let the execution Setter
// designated by hash(RND_T) *freely* choose the A actors (the
// cost-optimal baseline's weakness). They differ only in verification:
//
//  * ES.NAV ("No Actor Verification"): verifiers check the random and
//    the Setter's legitimacy — 2k asymmetric ops — but never the actors,
//    so a corrupted Setter can hand out fabricated identities.
//  * ES.AV ("Actor Verification"): verifiers additionally check the
//    Setter's and every actor's certificate — 2k + A + 1 ops — limiting
//    a corrupted Setter to stuffing genuine colluders.
//
// The shared weakness Figure 3 exposes: any colluder within the verifier
// tolerance around hash(RND_T) can claim to be the Setter.

#ifndef SEP2P_STRATEGIES_ES_STRATEGIES_H_
#define SEP2P_STRATEGIES_ES_STRATEGIES_H_

#include "core/vrand.h"
#include "strategies/strategy.h"

namespace sep2p::strategies {

class EsStrategyBase : public Strategy {
 public:
  using Strategy::Strategy;
  Result<StrategyOutcome> Run(uint32_t trigger_index,
                              util::Rng& rng) override;

 protected:
  // True for ES.AV: actors must be genuine PDMSs.
  virtual bool verifies_actors() const = 0;

 private:
  core::VrandProtocol vrand_{ctx_};
};

class EsNavStrategy : public EsStrategyBase {
 public:
  using EsStrategyBase::EsStrategyBase;
  const char* name() const override { return "ES.NAV"; }

 protected:
  bool verifies_actors() const override { return false; }
};

class EsAvStrategy : public EsStrategyBase {
 public:
  using EsStrategyBase::EsStrategyBase;
  const char* name() const override { return "ES.AV"; }

 protected:
  bool verifies_actors() const override { return true; }
};

}  // namespace sep2p::strategies

#endif  // SEP2P_STRATEGIES_ES_STRATEGIES_H_
