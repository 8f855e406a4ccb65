// Adversary sweep harness: the fourth ablation table (ROADMAP item 4).
//
// Runs every attack scenario (attack/scenario.h) for `trials` attacked
// executions against one provisioned network and aggregates what the
// detection oracle (attack/oracle.h) saw: detection rate, accepted-list
// selection bias reconciled against the paper's security-effectiveness
// bound (§4.2: effectiveness = A_C^ideal / A_C, capped at 1), and the
// attack's cost overhead relative to the honest "none" baseline row.
//
// Determinism mirrors sim::RunStrategyComparison exactly: the trials run
// through sim::RunSweepPoint with per-trial SplitMix64 streams from a
// sweep-private salt family, a colluder placement per kShardSize-trial
// shard drawn by the SAME strategies::SampleColluders rule the
// closed-form model uses, a scenario per worker built anew at each
// shard, slot-per-trial results folded in trial order, and a per-point
// FNV-1a digest over every trial's outcome fields — bit-identical for
// any --threads value, which bench/ablation_adversary audits.

#ifndef SEP2P_ATTACK_SWEEP_H_
#define SEP2P_ATTACK_SWEEP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "sim/experiment.h"
#include "sim/parameters.h"
#include "util/status.h"

namespace sep2p::attack {

// One row of the adversary ablation table.
struct AdversaryPoint {
  std::string scenario;
  double c_fraction = 0;
  int trials = 0;

  int attempted = 0;  // trials where the coalition had a shot and deviated
  int detected = 0;   // trials with >=1 honest-observable signal
  int accepted = 0;   // trials whose final list/cache verified clean
  int succeeded = 0;  // trials reaching the scenario's attack goal
  double detection_rate = 0;  // detected / attempted (0 if never attempted)

  // Selection bias over ACCEPTED trials only (rejected lists corrupt
  // nobody): average colluders among accepted entries vs the unbiased
  // expectation A*C/N, and the paper's effectiveness ratio capped at 1.
  double avg_corrupted = 0;
  double ideal_corrupted = 0;
  double effectiveness = 0;

  double avg_strikes = 0;   // attributable aborts per trial
  double avg_attempts = 0;  // grind iterations per trial
  double avg_restarts = 0;
  double avg_relocations = 0;
  double verification_cost = 0;     // asymmetric ops per verifier
  double setup_crypto_work = 0;     // completed-run totals per trial
  double setup_msg_work = 0;
  // (setup crypto+msg work) relative to the "none" row; 1.0 when the
  // attack adds nothing. Grinding scenarios exceed 1 via restarts.
  double cost_overhead = 1.0;

  uint64_t checker_violations = 0;  // oracle trace-level signals, summed
  uint64_t digest = 0;  // FNV-1a over per-trial outcomes, in trial order
};

// Runs `scenario_names` (attack::ScenarioNames() for the full table)
// over one network built from `base`. `observers` follows the
// sim::SweepObservers contract: the first trace_trials trials of the
// FIRST scenario record into its recorder slots; metrics aggregate over
// every trial. Independent of observers, EVERY trial is traced into a
// trial-local recorder so the oracle can replay the checker invariants.
Result<std::vector<AdversaryPoint>> RunAdversarySweep(
    const sim::Parameters& base,
    const std::vector<std::string>& scenario_names, int trials,
    const sim::SweepObservers* observers = nullptr);

}  // namespace sep2p::attack

#endif  // SEP2P_ATTACK_SWEEP_H_
