// Experiment harnesses: one entry point per paper figure.
//
// The benchmark binaries under bench/ are thin mains over these
// functions, and the integration tests run scaled-down versions of the
// same code paths, so what is printed is what is tested.

#ifndef SEP2P_SIM_EXPERIMENT_H_
#define SEP2P_SIM_EXPERIMENT_H_

#include <functional>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/network.h"
#include "sim/parameters.h"
#include "sim/trial_runner.h"
#include "util/rng.h"
#include "util/status.h"

namespace sep2p::sim {

// ------------------------------------------------------- observability
// Optional per-sweep observers, threaded through every harness below.
// Both hooks are strictly passive (obs/trace.h, obs/metrics.h): an
// observed sweep produces bit-identical tables to an unobserved one,
// for any Parameters::threads value.
struct SweepObservers {
  // Record the first min(trace_trials, trials) trials of the FIRST
  // sweep point, one recorder per trial: RunSweepPoint resizes
  // `recorders` and trial t writes only slot t, so parallel sweeps stay
  // race-free and the slot order is the trial order. nullptr = off.
  int trace_trials = 1;
  std::vector<obs::TraceRecorder>* recorders = nullptr;
  // Merged metrics snapshot over EVERY trial of EVERY point. Trials
  // accumulate into shard-local registries which merge in shard order
  // after each sweep point (MetricsRegistry::Merge is commutative
  // anyway, with fixed histogram buckets), so the snapshot is
  // bit-identical for any thread count. nullptr = off.
  obs::MetricsRegistry* metrics = nullptr;
};

// ------------------------------------------------------- the trial loop
// What RunSweepPoint hands the body for trial `index` of a sweep point.
struct SweepTrial {
  int index;  // in [0, trials)
  // index / TrialRunner::kShardSize. A shard's trials run in index order
  // on one thread, so per-shard state indexed by it needs no lock.
  int shard;
  // In [0, runner.threads()): the worker slot the shard holds while it
  // runs, so per-worker state indexed by it needs no lock either.
  int worker;
  util::Rng& rng;  // Rng(StreamSeed(seed, index)), this trial's alone
  // Slot `index` of observers->recorders on the first sweep point (its
  // first trace_trials trials); nullptr otherwise or when tracing is off.
  obs::TraceRecorder* trace;
  // The shard's metrics registry, with this trial's kTrials already
  // counted; nullptr when metering is off.
  obs::MetricsRegistry* metrics;

  bool first_in_shard() const {
    return index == shard * TrialRunner::kShardSize;
  }
};

// The one trial loop of every sweep harness (here and attack/sweep.h):
// runs body(trial) for each of `trials` trials of sweep point `point`
// (0 = the first point, which sizes observers->recorders) and, once all
// succeeded, folds the shard registries into observers->metrics in
// shard order. `observers` may be null. The shards go to the runner's
// pool; the error of the lowest failing trial wins.
//
// Protocol objects (strategies, scenarios, core::SelectionProtocol)
// are not thread-safe, so the harnesses keep them per worker. A worker
// runs many shards, and each shard's first trial builds the worker's
// protocol object anew (and with it a new ideal transport) and draws
// the shard's colluder placement where the harness varies it. A trial
// then replays what it would on any worker, whatever ran there before.
// The object lives for the shard, not the trial: a shard's later trials
// continue its ideal transport's RPC numbering and Rng.
Status RunSweepPoint(TrialRunner& runner, const SweepObservers* observers,
                     size_t point, int trials, uint64_t seed,
                     const std::function<Status(const SweepTrial&)>& body);

// ---------------------------------------------------------------- Fig 3-5
// One point per (strategy, C%): security effectiveness, verification cost
// and setup costs, averaged over `trials` protocol executions with random
// triggering nodes. Each kShardSize-trial shard draws its own colluder
// placement from the point's colluder stream.
struct StrategyPoint {
  std::string strategy;
  double c_fraction = 0;
  int trials = 0;
  double verification_cost = 0;  // asymmetric ops per verifier (avg)
  double ideal_corrupted = 0;    // A_C^ideal = A * C / N
  double avg_corrupted = 0;      // measured A_C
  double effectiveness = 0;      // A_C^ideal / A_C, capped at 1
  double setup_crypto_latency = 0;
  double setup_crypto_work = 0;
  double setup_msg_latency = 0;
  double setup_msg_work = 0;
  double relocation_rate = 0;    // avg relocations per execution
};

Result<std::vector<StrategyPoint>> RunStrategyComparison(
    const Parameters& base, const std::vector<double>& c_fractions,
    const std::vector<std::string>& strategy_names, int trials,
    const SweepObservers* observers = nullptr);

// ------------------------------------------------------------------ Fig 6
// Average security degree k for a network configuration, where each node
// picks the cheapest usable k-table entry. Evaluated by sampling node
// neighborhoods from the exact order-statistics model (no directory
// materialization, so N = 10^7 is cheap); `k_max` is the value every node
// would pay without the k-table optimization.
struct KCurvePoint {
  uint64_t n = 0;
  double c_fraction = 0;
  double alpha = 0;
  double avg_k = 0;
  double max_k_seen = 0;
  int k_max = 0;  // the "no k-table" cost
};

// `threads` as in Parameters::threads (sampling parallelizes; the result
// is identical for every thread count).
KCurvePoint ComputeAverageK(uint64_t n, double c_fraction, double alpha,
                            int samples, uint64_t seed, int threads = 0);

// ------------------------------------------------------------------ Fig 7
// Node-cache size sweep on the reference network: relocation rate and
// setup costs of the SEP2P selection as rs3 = cache/N varies.
struct CachePoint {
  size_t cache_size = 0;
  int trials = 0;
  double relocation_rate = 0;  // avg relocations per execution
  double relocated_fraction = 0;  // fraction of executions relocating
  // Executions that never found A candidates (cache too small vs A) and
  // gave up after the relocation budget.
  double failed_fraction = 0;
  double setup_crypto_latency = 0;
  double setup_crypto_work = 0;
  double setup_msg_latency = 0;
  double setup_msg_work = 0;
};

Result<std::vector<CachePoint>> RunCacheSweep(
    const Parameters& base, const std::vector<size_t>& cache_sizes,
    int trials, const SweepObservers* observers = nullptr);

// ---------------------------------------------------------- §4.3 ablation
// Total-work growth with the number of actors A (results the paper
// mentions but omits "for the sake of brevity").
struct ActorsPoint {
  int actor_count = 0;
  double setup_crypto_work = 0;
  double setup_msg_work = 0;
  double verification_cost = 0;
};

Result<std::vector<ActorsPoint>> RunActorSweep(
    const Parameters& base, const std::vector<int>& actor_counts,
    int trials, const SweepObservers* observers = nullptr);

// ------------------------------------------------------- §4.1 methodology
// The paper's simulator forces each node to act as Execution Setter to
// obtain "the exhaustive set of cases ... and then capture the average,
// maximum and standard deviation" of the metrics. Same here, over all
// nodes or a sample.
struct ExhaustiveStats {
  int setters = 0;
  // Per metric: average / maximum / standard deviation.
  double verif_avg = 0, verif_max = 0, verif_stddev = 0;
  double crypto_work_avg = 0, crypto_work_max = 0, crypto_work_stddev = 0;
  double msg_work_avg = 0, msg_work_max = 0, msg_work_stddev = 0;
  double crypto_lat_avg = 0, crypto_lat_max = 0, crypto_lat_stddev = 0;
  double msg_lat_avg = 0, msg_lat_max = 0, msg_lat_stddev = 0;
};

// Runs the SEP2P selection once per (sampled) node forced as setter.
// `sample` = 0 means every node.
Result<ExhaustiveStats> RunExhaustiveSetters(
    const Parameters& base, size_t sample,
    const SweepObservers* observers = nullptr);

// ----------------------------------------------------- §3.6 robustness
// Robustness to participant failures: the paper's remedy for a TL/SL/S
// failing mid-protocol is restarting with a fresh RND_T. Every
// selection executes over a faulty net::SimNetwork (typed messages,
// seeded latency, link drops, node crashes) with per-RPC
// timeout/retry/backoff; crashed TLs/SLs are replaced from the spare
// candidates, and only an unreachable quorum forces a restart. Each
// trial owns its own SimNetwork seeded from the trial's SplitMix64
// stream, so every point is bit-identical for any Parameters::threads
// value.
struct MessageFailureSetting {
  double drop_probability = 0;       // per-transmission loss
  uint64_t jitter_mean_us = 10'000;  // exponential latency jitter mean
  double step_crash_probability = 0; // node crashes on receiving a request
};

struct MessageFailurePoint {
  MessageFailureSetting setting;
  int trials = 0;
  // Selections that succeeded on their first attempt (no fresh-RND_T
  // restart; transport-level retries within the attempt are allowed).
  double first_try_success_rate = 0;
  double avg_retries = 0;       // transport retransmissions per trial
  double avg_replacements = 0;  // TLs/SLs declared failed and replaced
  double restart_rate = 0;      // fresh-RND_T restarts per successful trial
  double give_up_rate = 0;      // trials exhausting the restart budget
  // Virtual-clock time from trigger to a verified selection, restarts
  // included; over successful trials only.
  double p50_latency_ms = 0;
  double p99_latency_ms = 0;
};

// `observers` records the first trace_trials trials of the first
// setting and meters every trial; see SweepObservers.
Result<std::vector<MessageFailurePoint>> RunMessageFailureSweep(
    const Parameters& base,
    const std::vector<MessageFailureSetting>& settings, int trials,
    int max_attempts = 25, const SweepObservers* observers = nullptr);

// -------------------------------------------------------- §5 app rounds
// Application-level robustness: one full participatory-sensing round per
// trial (selection + sealed contribution wave + partial merge + publish)
// over a faulty net::SimNetwork, through the node::AppRuntime message
// dispatch. Reuses MessageFailureSetting; each trial owns its SimNetwork
// and PDMS set, so every point is bit-identical for any
// Parameters::threads value.
struct AppFailurePoint {
  MessageFailureSetting setting;
  int trials = 0;
  // Rounds that needed no fresh-RND_T restart AND delivered every
  // contribution AND published the merged aggregate.
  double first_try_success_rate = 0;
  double avg_retries = 0;   // transport retransmissions per round
  double avg_restarts = 0;  // fresh-RND_T selection restarts per round
  // Fraction of issued contributions acknowledged by a DA (the
  // degraded-but-correct knob: loss shrinks the round, never breaks it).
  double avg_delivered_fraction = 0;
  double give_up_rate = 0;  // rounds whose selection exhausted its budget
  // Virtual-clock time for the whole round, selection included; over
  // completed rounds only.
  double p50_latency_ms = 0;
  double p99_latency_ms = 0;
};

// `observers` as in RunMessageFailureSweep.
Result<std::vector<AppFailurePoint>> RunAppFailureSweep(
    const Parameters& base,
    const std::vector<MessageFailureSetting>& settings, int trials,
    int max_attempts = 25, const SweepObservers* observers = nullptr);

// ---------------------------------------------------------- §4.1 ablation
// Empirical check behind the alpha choice: across `network_count`
// colluder assignments, the maximum number of colluders found in ANY
// region of size rs_k, versus the security degree k it would need to
// defeat.
struct AlphaPoint {
  double alpha = 0;
  int k = 0;        // k-table entry under test (k_max)
  double rs = 0;    // its region size
  int networks_tested = 0;
  int max_colluders_seen = 0;  // in any region centered on a colluder
  // Assignments where a corrupted trigger could find k colluding TLs
  // around itself (k+1 colluders in a colluder-centered region) — full
  // protocol capture.
  int breaches = 0;
};

Result<AlphaPoint> ProbeAlpha(const Parameters& base, double alpha,
                              int network_count);

}  // namespace sep2p::sim

#endif  // SEP2P_SIM_EXPERIMENT_H_
