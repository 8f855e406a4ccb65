#include "attack/sweep.h"

#include <algorithm>
#include <memory>

#include "attack/oracle.h"
#include "attack/scenario.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/network.h"
#include "sim/trial_runner.h"
#include "strategies/adversary.h"
#include "util/fnv.h"
#include "util/rng.h"

namespace sep2p::attack {

namespace {

// Sweep-private stream-family salts (sim/experiment.cc convention):
// adversary sweeps never share per-trial streams with any other harness
// even when Parameters::seed coincides.
constexpr uint64_t kAdversaryTrialSalt = 0xadd5a17;
constexpr uint64_t kAdversaryColluderSalt = 0xaddc011;

}  // namespace

Result<std::vector<AdversaryPoint>> RunAdversarySweep(
    const sim::Parameters& base,
    const std::vector<std::string>& scenario_names, int trials,
    const sim::SweepObservers* observers) {
  std::vector<AdversaryPoint> points;
  sim::TrialRunner runner(base.threads);

  sim::Parameters params = base;
  Result<std::unique_ptr<sim::Network>> network = sim::Network::Build(params);
  if (!network.ok()) return network.status();
  sim::Network& net = *network.value();
  const double c_fraction = static_cast<double>(params.c()) /
                            static_cast<double>(params.n);

  for (size_t si = 0; si < scenario_names.size(); ++si) {
    const std::string& name = scenario_names[si];
    // Per worker: the colluder placement of the shard it runs, and a
    // context and scenario that read it.
    struct Worker {
      core::ColluderSet colluders;
      core::ProtocolContext ctx;
      std::unique_ptr<Scenario> scenario;
    };
    std::vector<Worker> workers(runner.threads());
    for (Worker& w : workers) {
      w.ctx = net.context();
      w.ctx.colluders = &w.colluders;
    }

    // One slot per trial: each trial writes only its own slot and the
    // slots fold in trial order afterwards — bit-identical for any
    // thread count (sim/experiment.cc discipline).
    struct TrialResult {
      uint8_t attempted = 0;
      uint8_t detected = 0;
      uint8_t accepted = 0;
      uint8_t succeeded = 0;
      int corrupted = 0;
      int actor_count = 0;
      int strikes = 0;
      int attempts = 0;
      int restarts = 0;
      int relocations = 0;
      double verification = 0;
      double crypto_work = 0;
      double msg_work = 0;
      uint64_t checker_violations = 0;
    };
    std::vector<TrialResult> slots(static_cast<size_t>(trials));
    const uint64_t colluder_seed =
        sim::MixSeed(params.seed, kAdversaryColluderSalt, 0, si);

    // Colluder placement refreshes every kShardSize trials: each shard
    // draws its own on its first trial and builds a scenario there.
    Status status = sim::RunSweepPoint(
        runner, observers, si, trials,
        sim::MixSeed(params.seed, kAdversaryTrialSalt, 0, si),
        [&](const sim::SweepTrial& trial) {
          Worker& w = workers[trial.worker];
          if (trial.first_in_shard()) {
            util::Rng colluder_rng(sim::StreamSeed(
                colluder_seed, static_cast<uint64_t>(trial.shard)));
            w.colluders = strategies::SampleColluders(
                net.directory(), params.c(), colluder_rng);
            w.scenario = MakeScenario(name, w.ctx);
            if (w.scenario == nullptr) {
              return Status::InvalidArgument("unknown attack scenario: " +
                                             name);
            }
          }
          // Every trial records into a trace so the oracle can replay the
          // checker invariants; the observers' slot (when this trial owns
          // one) doubles as that recorder.
          obs::TraceRecorder local;
          obs::TraceRecorder& rec =
              trial.trace != nullptr ? *trial.trace : local;
          rec.meta().node_count =
              static_cast<uint32_t>(net.directory().size());

          const uint32_t trigger = static_cast<uint32_t>(
              trial.rng.NextUint64(net.directory().size()));
          Result<AttackOutcome> run =
              w.scenario->Run(trigger, trial.rng, &rec, trial.metrics);
          if (!run.ok()) return run.status();

          const Verdict verdict = Judge(*run, &rec.trace());
          TrialResult& slot = slots[static_cast<size_t>(trial.index)];
          slot.attempted = run->attempted ? 1 : 0;
          slot.detected = verdict.detected ? 1 : 0;
          slot.accepted = run->accepted ? 1 : 0;
          slot.succeeded = run->succeeded ? 1 : 0;
          slot.corrupted = run->corrupted_actors;
          slot.actor_count = run->actor_count;
          slot.strikes = run->strikes;
          slot.attempts = run->attempts;
          slot.restarts = run->restarts;
          slot.relocations = run->relocations;
          slot.verification = run->verification_cost;
          slot.crypto_work = run->cost.crypto_work;
          slot.msg_work = run->cost.msg_work;
          slot.checker_violations = verdict.checker_violations;
          return Status::Ok();
        });
    if (!status.ok()) return status;

    AdversaryPoint point;
    point.scenario = name;
    point.c_fraction = c_fraction;
    point.trials = trials;
    // The thread-invariance digest folds per-trial outcome fields in
    // trial order.
    uint64_t digest = util::kFnvOffsetBasis;
    double corrupted_sum = 0, actor_sum = 0, strikes_sum = 0;
    double attempts_sum = 0, restarts_sum = 0, relocations_sum = 0;
    double verification_sum = 0, crypto_sum = 0, msg_sum = 0;
    for (const TrialResult& slot : slots) {
      point.attempted += slot.attempted;
      point.detected += slot.detected;
      point.accepted += slot.accepted;
      point.succeeded += slot.succeeded;
      point.checker_violations += slot.checker_violations;
      if (slot.accepted != 0) {
        corrupted_sum += slot.corrupted;
        actor_sum += slot.actor_count;
      }
      strikes_sum += slot.strikes;
      attempts_sum += slot.attempts;
      restarts_sum += slot.restarts;
      relocations_sum += slot.relocations;
      verification_sum += slot.verification;
      crypto_sum += slot.crypto_work;
      msg_sum += slot.msg_work;
      digest = util::FnvFold(digest, slot.attempted);
      digest = util::FnvFold(digest, slot.detected);
      digest = util::FnvFold(digest, slot.accepted);
      digest = util::FnvFold(digest, slot.succeeded);
      digest = util::FnvFold(digest, static_cast<uint64_t>(slot.corrupted));
      digest = util::FnvFold(digest, static_cast<uint64_t>(slot.actor_count));
      digest = util::FnvFold(digest, static_cast<uint64_t>(slot.strikes));
      digest = util::FnvFold(digest, static_cast<uint64_t>(slot.attempts));
      digest = util::FnvFold(digest, static_cast<uint64_t>(slot.restarts));
      digest = util::FnvFold(digest, static_cast<uint64_t>(slot.relocations));
      digest = util::FnvFold(digest,
                             static_cast<uint64_t>(slot.crypto_work * 16.0));
      digest = util::FnvFold(digest,
                             static_cast<uint64_t>(slot.msg_work * 16.0));
      digest = util::FnvFold(digest, slot.checker_violations);
    }
    point.digest = digest;
    const double n_trials = static_cast<double>(trials);
    point.detection_rate =
        point.attempted > 0
            ? static_cast<double>(point.detected) /
                  static_cast<double>(point.attempted)
            : 0.0;
    point.avg_corrupted =
        point.accepted > 0
            ? corrupted_sum / static_cast<double>(point.accepted)
            : 0.0;
    // Unbiased expectation scales with what was actually accepted (A
    // actors for selections, cache slots for joins): avg size * C/N.
    point.ideal_corrupted =
        point.accepted > 0
            ? (actor_sum / static_cast<double>(point.accepted)) * c_fraction
            : 0.0;
    point.effectiveness =
        point.avg_corrupted <= point.ideal_corrupted ||
                point.avg_corrupted == 0.0
            ? 1.0
            : point.ideal_corrupted / point.avg_corrupted;
    point.avg_strikes = strikes_sum / n_trials;
    point.avg_attempts = attempts_sum / n_trials;
    point.avg_restarts = restarts_sum / n_trials;
    point.avg_relocations = relocations_sum / n_trials;
    point.verification_cost = verification_sum / n_trials;
    point.setup_crypto_work = crypto_sum / n_trials;
    point.setup_msg_work = msg_sum / n_trials;
    points.push_back(point);
  }

  // Cost overhead relative to the honest baseline row, when present.
  const AdversaryPoint* baseline = nullptr;
  for (const AdversaryPoint& p : points) {
    if (p.scenario == "none") {
      baseline = &p;
      break;
    }
  }
  if (baseline != nullptr) {
    const double base_work =
        baseline->setup_crypto_work + baseline->setup_msg_work;
    if (base_work > 0) {
      for (AdversaryPoint& p : points) {
        p.cost_overhead =
            (p.setup_crypto_work + p.setup_msg_work) / base_work;
      }
    }
  }
  return points;
}

}  // namespace sep2p::attack
