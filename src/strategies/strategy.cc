#include "strategies/strategy.h"

#include "strategies/baselines.h"
#include "strategies/es_strategies.h"
#include "strategies/mhash.h"

namespace sep2p::strategies {

int Strategy::CountCorrupted(const std::vector<uint32_t>& actors) const {
  int corrupted = 0;
  for (uint32_t idx : actors) {
    if (ctx_.directory->colluding(idx)) ++corrupted;
  }
  return corrupted;
}

Sep2pStrategy::Sep2pStrategy(const core::ProtocolContext& ctx,
                             const AdversaryConfig& adversary)
    : Strategy(ctx, adversary), protocol_(ctx) {}

void Sep2pStrategy::set_observers(obs::TraceRecorder* trace,
                                  obs::MetricsRegistry* metrics) {
  protocol_.ideal_transport().set_trace(trace);
  protocol_.ideal_transport().set_metrics(metrics);
}

Result<StrategyOutcome> Sep2pStrategy::Run(uint32_t trigger_index,
                                           util::Rng& rng) {
  Result<core::SelectionProtocol::Outcome> run =
      protocol_.Run(trigger_index, rng);
  if (!run.ok()) return run.status();

  StrategyOutcome outcome;
  outcome.actors = run->actor_indices;
  outcome.corrupted_actors = CountCorrupted(outcome.actors);
  outcome.relocations = run->relocations;
  outcome.setup_cost = run->cost;
  outcome.verification_cost = 2.0 * run->val.k();
  return outcome;
}

std::unique_ptr<Strategy> MakeStrategy(const std::string& name,
                                       const core::ProtocolContext& ctx,
                                       const AdversaryConfig& adversary) {
  if (name == "SEP2P") return std::make_unique<Sep2pStrategy>(ctx, adversary);
  if (name == "ES.NAV") return std::make_unique<EsNavStrategy>(ctx, adversary);
  if (name == "ES.AV") return std::make_unique<EsAvStrategy>(ctx, adversary);
  if (name == "M.Hash") return std::make_unique<MHashStrategy>(ctx, adversary);
  if (name == "Ideal") return std::make_unique<IdealStrategy>(ctx, adversary);
  if (name == "CSAR") return std::make_unique<CsarStrategy>(ctx, adversary);
  return nullptr;
}

}  // namespace sep2p::strategies
