// Actor-selection strategy interface (paper §4.1, Table 3).
//
// Four strategies are evaluated head-to-head: SEP2P itself and three
// references derived from the baseline protocols of §3.1 but upgraded
// with the k-participant verifiable random (so the comparison isolates
// the *actor selection* design): ES.NAV, ES.AV and M.Hash.

#ifndef SEP2P_STRATEGIES_STRATEGY_H_
#define SEP2P_STRATEGIES_STRATEGY_H_

#include <memory>
#include <vector>

#include "core/context.h"
#include "core/selection.h"
#include "net/cost.h"
#include "strategies/adversary.h"
#include "util/rng.h"

namespace sep2p::strategies {

struct StrategyOutcome {
  // Directory indices of the selected actors. Empty (with
  // attacker_controlled = true and corrupted_actors = A) when the
  // attacker substitutes fabricated identities, which only ES.NAV
  // permits.
  std::vector<uint32_t> actors;
  int corrupted_actors = 0;
  bool attacker_controlled = false;
  int relocations = 0;
  net::Cost setup_cost;
  // Per-verifier cost in asymmetric crypto operations (Definition 3):
  // SEP2P/ES.NAV: 2k; ES.AV: 2k+A+1; M.Hash: 2k+A.
  double verification_cost = 0;
};

class Strategy {
 public:
  Strategy(const core::ProtocolContext& ctx, const AdversaryConfig& adversary)
      : ctx_(ctx), adversary_(adversary) {}
  virtual ~Strategy() = default;

  virtual const char* name() const = 0;
  virtual Result<StrategyOutcome> Run(uint32_t trigger_index,
                                      util::Rng& rng) = 0;

  // Attaches passive observability sinks for subsequent Run calls.
  // Sep2pStrategy attaches them to its selection protocol's transport;
  // baselines have no protocol phases worth attributing and ignore them.
  virtual void set_observers(obs::TraceRecorder* /*trace*/,
                             obs::MetricsRegistry* /*metrics*/) {}

 protected:
  // Counts colluders among `actors`.
  int CountCorrupted(const std::vector<uint32_t>& actors) const;

  const core::ProtocolContext& ctx_;
  AdversaryConfig adversary_;
};

// SEP2P itself (wraps core::SelectionProtocol). Owns one protocol
// object, so a strategy instance must stay on one thread at a time.
class Sep2pStrategy : public Strategy {
 public:
  Sep2pStrategy(const core::ProtocolContext& ctx,
                const AdversaryConfig& adversary);
  const char* name() const override { return "SEP2P"; }
  Result<StrategyOutcome> Run(uint32_t trigger_index,
                              util::Rng& rng) override;
  void set_observers(obs::TraceRecorder* trace,
                     obs::MetricsRegistry* metrics) override;

 private:
  core::SelectionProtocol protocol_;
};

std::unique_ptr<Strategy> MakeStrategy(const std::string& name,
                                       const core::ProtocolContext& ctx,
                                       const AdversaryConfig& adversary);

}  // namespace sep2p::strategies

#endif  // SEP2P_STRATEGIES_STRATEGY_H_
