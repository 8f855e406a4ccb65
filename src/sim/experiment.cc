#include "sim/experiment.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "apps/sensing.h"
#include "core/ktable.h"
#include "net/sim_network.h"
#include "node/app_runtime.h"
#include "node/pdms_node.h"
#include "sim/metrics.h"
#include "sim/trial_runner.h"
#include "strategies/strategy.h"
#include "util/logging.h"

namespace sep2p::sim {

namespace {

// Stream-family salts: every harness draws its per-trial seeds from a
// distinct family even when sweeps share Parameters::seed. The values
// keep the historical per-harness XOR constants recognizable.
constexpr uint64_t kStrategyTrialSalt = 0x5e9f2d1c;
constexpr uint64_t kStrategyColluderSalt = 0xc011de05;
constexpr uint64_t kCacheTrialSalt = 0xcac4e51ce;
constexpr uint64_t kActorTrialSalt = 0xac1052;
constexpr uint64_t kExhaustiveTrialSalt = 0xe4a;
constexpr uint64_t kMessageTrialSalt = 0x4e7411a1;
constexpr uint64_t kMessageNetSalt = 0x4e7411e7;
constexpr uint64_t kAppTrialSalt = 0xa9905a17;
constexpr uint64_t kAppNetSalt = 0xa9905e7a;

// One SEP2P selection from a random trigger, as the cache and actor
// sweeps run it. `strategy` is the trial's worker's, made anew by each
// shard's first trial.
Result<strategies::StrategyOutcome> RunSep2p(
    const core::ProtocolContext& ctx, const SweepTrial& trial,
    std::unique_ptr<strategies::Sep2pStrategy>& strategy) {
  if (trial.first_in_shard()) {
    strategy = std::make_unique<strategies::Sep2pStrategy>(
        ctx, strategies::AdversaryConfig::Passive());
  }
  strategy->set_observers(trial.trace, trial.metrics);
  uint32_t trigger =
      static_cast<uint32_t>(trial.rng.NextUint64(ctx.directory->size()));
  return strategy->Run(trigger, trial.rng);
}

// The trial's own network in the failure sweeps, so every latency, drop
// and crash draw stays inside the trial: `setting`'s link and crash
// model with the default retry policy, seeded from the trial's stream of
// `net_seed`, and observed by the trial's observers (passively, so an
// observed trial's results are unchanged).
std::unique_ptr<net::SimNetwork> FaultyNetwork(
    const MessageFailureSetting& setting, uint32_t node_count,
    uint64_t net_seed, const SweepTrial& trial) {
  net::LinkModel link;
  link.drop_probability = setting.drop_probability;
  link.jitter_mean_us = setting.jitter_mean_us;
  auto simnet = std::make_unique<net::SimNetwork>(
      node_count, link, net::RetryPolicy{},
      StreamSeed(net_seed, static_cast<uint64_t>(trial.index)));
  simnet->set_step_crash_probability(setting.step_crash_probability);
  simnet->set_trace(trial.trace);
  simnet->set_metrics(trial.metrics);
  return simnet;
}

}  // namespace

Status RunSweepPoint(TrialRunner& runner, const SweepObservers* observers,
                     size_t point, int trials, uint64_t seed,
                     const std::function<Status(const SweepTrial&)>& body) {
  std::vector<obs::TraceRecorder>* recorders =
      observers != nullptr && point == 0 ? observers->recorders : nullptr;
  if (recorders != nullptr) {
    // The only step that touches more than one slot, so it runs before
    // any trial does.
    recorders->clear();
    recorders->resize(std::clamp(observers->trace_trials, 0, trials));
  }
  obs::MetricsRegistry* metrics =
      observers != nullptr ? observers->metrics : nullptr;
  std::vector<obs::MetricsRegistry> shard_metrics(
      metrics != nullptr ? TrialRunner::ShardCount(trials) : 0);

  Status status = runner.RunShards(
      trials, [&](int shard, int begin, int end, int worker) {
        obs::MetricsRegistry* met =
            shard_metrics.empty() ? nullptr : &shard_metrics[shard];
        for (int t = begin; t < end; ++t) {
          util::Rng rng(StreamSeed(seed, static_cast<uint64_t>(t)));
          if (met != nullptr) met->Inc(obs::Counter::kTrials);
          obs::TraceRecorder* trace =
              recorders != nullptr &&
                      static_cast<size_t>(t) < recorders->size()
                  ? &(*recorders)[t]
                  : nullptr;
          Status trial = body(SweepTrial{t, shard, worker, rng, trace, met});
          if (!trial.ok()) return trial;
        }
        return Status::Ok();
      });
  if (!status.ok()) return status;
  for (const obs::MetricsRegistry& shard : shard_metrics) {
    metrics->Merge(shard);
  }
  return Status::Ok();
}

Result<std::vector<StrategyPoint>> RunStrategyComparison(
    const Parameters& base, const std::vector<double>& c_fractions,
    const std::vector<std::string>& strategy_names, int trials,
    const SweepObservers* observers) {
  std::vector<StrategyPoint> points;
  TrialRunner runner(base.threads);

  for (size_t ci = 0; ci < c_fractions.size(); ++ci) {
    Parameters params = base;
    params.colluding_fraction = c_fractions[ci];
    Result<std::unique_ptr<Network>> network = Network::Build(params);
    if (!network.ok()) return network.status();
    Network& net = *network.value();

    for (size_t si = 0; si < strategy_names.size(); ++si) {
      const std::string& name = strategy_names[si];
      // The baselines' covert adversary: colluders claim the execution
      // setter and stuff the actor list. SEP2P has no deviation here,
      // so its SLs run honestly (strategies/adversary.h).
      strategies::AdversaryConfig adversary;
      // Per worker: the colluder placement of the shard it runs, and a
      // context and strategy that read it.
      struct Worker {
        core::ColluderSet colluders;
        core::ProtocolContext ctx;
        std::unique_ptr<strategies::Strategy> strategy;
      };
      std::vector<Worker> workers(runner.threads());
      for (Worker& w : workers) {
        w.ctx = net.context();
        w.ctx.colluders = &w.colluders;
      }

      // One slot per trial: each trial writes only its own slot, and the
      // slots are folded in trial order afterwards.
      struct TrialResult {
        double corrupted = 0;
        double verification = 0;
        double crypto_lat = 0;
        double crypto_work = 0;
        double msg_lat = 0;
        double msg_work = 0;
        double relocations = 0;
      };
      std::vector<TrialResult> slots(trials);
      const uint64_t colluder_seed =
          MixSeed(params.seed, kStrategyColluderSalt, ci, si);

      // A fresh colluder placement every kShardSize trials decorrelates
      // the "is a colluder near hash(RND_T)" events.
      Status status = RunSweepPoint(
          runner, observers, ci * strategy_names.size() + si, trials,
          MixSeed(params.seed, kStrategyTrialSalt, ci, si),
          [&](const SweepTrial& trial) {
            Worker& w = workers[trial.worker];
            if (trial.first_in_shard()) {
              util::Rng colluder_rng(StreamSeed(
                  colluder_seed, static_cast<uint64_t>(trial.shard)));
              w.colluders = strategies::SampleColluders(
                  net.directory(), params.c(), colluder_rng);
              w.strategy = strategies::MakeStrategy(name, w.ctx, adversary);
              if (w.strategy == nullptr) {
                return Status::InvalidArgument("unknown strategy: " + name);
              }
            }
            w.strategy->set_observers(trial.trace, trial.metrics);
            uint32_t trigger = static_cast<uint32_t>(
                trial.rng.NextUint64(net.directory().size()));
            Result<strategies::StrategyOutcome> run =
                w.strategy->Run(trigger, trial.rng);
            if (!run.ok()) return run.status();
            TrialResult& slot = slots[trial.index];
            slot.corrupted = run->corrupted_actors;
            slot.verification = run->verification_cost;
            slot.crypto_lat = run->setup_cost.crypto_latency;
            slot.crypto_work = run->setup_cost.crypto_work;
            slot.msg_lat = run->setup_cost.msg_latency;
            slot.msg_work = run->setup_cost.msg_work;
            slot.relocations = run->relocations;
            return Status::Ok();
          });
      if (!status.ok()) return status;

      OnlineStats corrupted, verification, crypto_lat, crypto_work, msg_lat,
          msg_work, relocations;
      for (const TrialResult& slot : slots) {
        corrupted.Add(slot.corrupted);
        verification.Add(slot.verification);
        crypto_lat.Add(slot.crypto_lat);
        crypto_work.Add(slot.crypto_work);
        msg_lat.Add(slot.msg_lat);
        msg_work.Add(slot.msg_work);
        relocations.Add(slot.relocations);
      }

      StrategyPoint point;
      point.strategy = name;
      point.c_fraction = c_fractions[ci];
      point.trials = trials;
      point.verification_cost = verification.mean();
      point.ideal_corrupted = static_cast<double>(params.actor_count) *
                              static_cast<double>(params.c()) /
                              static_cast<double>(params.n);
      point.avg_corrupted = corrupted.mean();
      point.effectiveness =
          point.avg_corrupted <= point.ideal_corrupted
              ? 1.0
              : point.ideal_corrupted / point.avg_corrupted;
      point.setup_crypto_latency = crypto_lat.mean();
      point.setup_crypto_work = crypto_work.mean();
      point.setup_msg_latency = msg_lat.mean();
      point.setup_msg_work = msg_work.mean();
      point.relocation_rate = relocations.mean();
      points.push_back(point);
    }
  }
  return points;
}

KCurvePoint ComputeAverageK(uint64_t n, double c_fraction, double alpha,
                            int samples, uint64_t seed, int threads) {
  const uint64_t c = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::llround(
             static_cast<double>(n) * c_fraction)));
  core::KTable table = core::KTable::Build(n, c, alpha);

  KCurvePoint point;
  point.n = n;
  point.c_fraction = c_fraction;
  point.alpha = alpha;
  point.k_max = table.k_max();

  // Per sampled node, the region size at which its i-th nearest neighbor
  // appears is the i-th order statistic of N-1 uniforms on [0,1] (see
  // DESIGN.md): generated as normalized partial sums of Exp(1) gaps,
  // exact up to O(k_max/N). Each sample draws from its own stream and
  // accumulates into its shard's stats; shards merge in shard order.
  TrialRunner runner(threads);
  std::vector<OnlineStats> shard_ks(TrialRunner::ShardCount(samples));
  RunSweepPoint(
      runner, nullptr, 0, samples, seed, [&](const SweepTrial& trial) {
        std::vector<double> thresholds;
        thresholds.reserve(table.k_max());
        double sum = 0;
        for (int i = 0; i < table.k_max(); ++i) {
          sum += -std::log(1.0 - trial.rng.NextDouble());
          thresholds.push_back(sum / static_cast<double>(n - 1));
        }
        int chosen = table.k_max();
        for (const core::KTable::Entry& entry : table.entries()) {
          // Number of neighbors within region size entry.rs.
          size_t count = static_cast<size_t>(
              std::upper_bound(thresholds.begin(), thresholds.end(),
                               entry.rs) -
              thresholds.begin());
          if (count >= static_cast<size_t>(entry.k)) {
            chosen = entry.k;
            break;
          }
        }
        shard_ks[trial.shard].Add(chosen);
        return Status::Ok();
      });

  OnlineStats ks;
  for (const OnlineStats& shard : shard_ks) ks.Merge(shard);
  point.avg_k = ks.mean();
  point.max_k_seen = ks.max();
  return point;
}

Result<std::vector<CachePoint>> RunCacheSweep(
    const Parameters& base, const std::vector<size_t>& cache_sizes,
    int trials, const SweepObservers* observers) {
  Result<std::unique_ptr<Network>> network = Network::Build(base);
  if (!network.ok()) return network.status();
  Network& net = *network.value();
  TrialRunner runner(base.threads);

  std::vector<CachePoint> points;
  for (size_t pi = 0; pi < cache_sizes.size(); ++pi) {
    const size_t cache_size = cache_sizes[pi];
    core::ProtocolContext ctx = net.context();
    ctx.rs3 = std::min(1.0, static_cast<double>(cache_size) /
                                static_cast<double>(base.n));
    // With tiny caches the selection may relocate many times before
    // accumulating A candidates.
    ctx.max_relocations = 64;

    struct Shard {
      OnlineStats reloc, crypto_lat, crypto_work, msg_lat, msg_work;
      int relocated_runs = 0;
      int failed_runs = 0;
    };
    std::vector<Shard> shards(TrialRunner::ShardCount(trials));
    std::vector<std::unique_ptr<strategies::Sep2pStrategy>> strategies(
        runner.threads());
    Status status = RunSweepPoint(
        runner, observers, pi, trials, MixSeed(base.seed, kCacheTrialSalt, pi),
        [&](const SweepTrial& trial) {
          Shard& sh = shards[trial.shard];
          Result<strategies::StrategyOutcome> run =
              RunSep2p(ctx, trial, strategies[trial.worker]);
          if (!run.ok()) {
            // A cache smaller than A can make the selection impossible;
            // that is a data point (the paper's "sparse regions cannot
            // fully take part"), not a harness error.
            if (run.status().code() == StatusCode::kResourceExhausted) {
              ++sh.failed_runs;
              return Status::Ok();
            }
            return run.status();
          }
          sh.reloc.Add(run->relocations);
          if (run->relocations > 0) ++sh.relocated_runs;
          sh.crypto_lat.Add(run->setup_cost.crypto_latency);
          sh.crypto_work.Add(run->setup_cost.crypto_work);
          sh.msg_lat.Add(run->setup_cost.msg_latency);
          sh.msg_work.Add(run->setup_cost.msg_work);
          return Status::Ok();
        });
    if (!status.ok()) return status;

    OnlineStats reloc, crypto_lat, crypto_work, msg_lat, msg_work;
    int relocated_runs = 0;
    int failed_runs = 0;
    for (const Shard& sh : shards) {
      reloc.Merge(sh.reloc);
      crypto_lat.Merge(sh.crypto_lat);
      crypto_work.Merge(sh.crypto_work);
      msg_lat.Merge(sh.msg_lat);
      msg_work.Merge(sh.msg_work);
      relocated_runs += sh.relocated_runs;
      failed_runs += sh.failed_runs;
    }

    CachePoint point;
    point.cache_size = cache_size;
    point.trials = trials;
    point.relocation_rate = reloc.mean();
    point.relocated_fraction =
        static_cast<double>(relocated_runs) / std::max(1, trials);
    point.failed_fraction =
        static_cast<double>(failed_runs) / std::max(1, trials);
    point.setup_crypto_latency = crypto_lat.mean();
    point.setup_crypto_work = crypto_work.mean();
    point.setup_msg_latency = msg_lat.mean();
    point.setup_msg_work = msg_work.mean();
    points.push_back(point);
  }
  return points;
}

Result<std::vector<ActorsPoint>> RunActorSweep(
    const Parameters& base, const std::vector<int>& actor_counts,
    int trials, const SweepObservers* observers) {
  Result<std::unique_ptr<Network>> network = Network::Build(base);
  if (!network.ok()) return network.status();
  Network& net = *network.value();
  TrialRunner runner(base.threads);

  std::vector<ActorsPoint> points;
  for (size_t pi = 0; pi < actor_counts.size(); ++pi) {
    const int actor_count = actor_counts[pi];
    core::ProtocolContext ctx = net.context();
    ctx.actor_count = actor_count;
    // Keep R3 populated for the largest sweeps.
    ctx.rs3 = std::max(ctx.rs3, 4.0 * actor_count / static_cast<double>(
                                                        base.n));

    struct Shard {
      OnlineStats crypto_work, msg_work, verification;
    };
    std::vector<Shard> shards(TrialRunner::ShardCount(trials));
    std::vector<std::unique_ptr<strategies::Sep2pStrategy>> strategies(
        runner.threads());
    Status status = RunSweepPoint(
        runner, observers, pi, trials, MixSeed(base.seed, kActorTrialSalt, pi),
        [&](const SweepTrial& trial) {
          Shard& sh = shards[trial.shard];
          Result<strategies::StrategyOutcome> run =
              RunSep2p(ctx, trial, strategies[trial.worker]);
          if (!run.ok()) return run.status();
          sh.crypto_work.Add(run->setup_cost.crypto_work);
          sh.msg_work.Add(run->setup_cost.msg_work);
          sh.verification.Add(run->verification_cost);
          return Status::Ok();
        });
    if (!status.ok()) return status;

    OnlineStats crypto_work, msg_work, verification;
    for (const Shard& sh : shards) {
      crypto_work.Merge(sh.crypto_work);
      msg_work.Merge(sh.msg_work);
      verification.Merge(sh.verification);
    }

    ActorsPoint point;
    point.actor_count = actor_count;
    point.setup_crypto_work = crypto_work.mean();
    point.setup_msg_work = msg_work.mean();
    point.verification_cost = verification.mean();
    points.push_back(point);
  }
  return points;
}

Result<ExhaustiveStats> RunExhaustiveSetters(
    const Parameters& base, size_t sample,
    const SweepObservers* observers) {
  Result<std::unique_ptr<Network>> network = Network::Build(base);
  if (!network.ok()) return network.status();
  Network& net = *network.value();

  // The setter sample is drawn serially up front; the trials over it are
  // embarrassingly parallel.
  util::Rng sample_rng(base.seed ^ kExhaustiveTrialSalt);
  std::vector<uint32_t> setters;
  if (sample == 0 || sample >= net.directory().size()) {
    for (uint32_t i = 0; i < net.directory().size(); ++i) {
      setters.push_back(i);
    }
  } else {
    for (size_t idx : sample_rng.SampleIndices(net.directory().size(),
                                               sample)) {
      setters.push_back(static_cast<uint32_t>(idx));
    }
  }

  core::ProtocolContext ctx = net.context();
  const int trials = static_cast<int>(setters.size());

  struct Shard {
    OnlineStats verif, cw, mw, cl, ml;
  };
  TrialRunner runner(base.threads);
  std::vector<Shard> shards(TrialRunner::ShardCount(trials));
  // One protocol object (and ideal transport) per worker, made anew by
  // each shard's first trial.
  std::vector<std::unique_ptr<core::SelectionProtocol>> protocols(
      runner.threads());
  Status status = RunSweepPoint(
      runner, observers, 0, trials, MixSeed(base.seed, kExhaustiveTrialSalt),
      [&](const SweepTrial& trial) {
        Shard& sh = shards[trial.shard];
        std::unique_ptr<core::SelectionProtocol>& protocol =
            protocols[trial.worker];
        if (trial.first_in_shard()) {
          protocol = std::make_unique<core::SelectionProtocol>(ctx);
        }
        net::Transport& transport = protocol->ideal_transport();
        transport.set_trace(trial.trace);
        transport.set_metrics(trial.metrics);
        // Force the setter point onto this node's exact position.
        crypto::Hash256 point = crypto::Hash256::FromRingPos(
            net.directory().pos(setters[trial.index]));
        core::SelectionOptions options;
        options.forced_point = &point;
        uint32_t trigger = static_cast<uint32_t>(
            trial.rng.NextUint64(net.directory().size()));
        Result<core::SelectionProtocol::Outcome> run =
            protocol->Run(trigger, trial.rng, options);
        if (!run.ok()) {
          return run.status().code() == StatusCode::kResourceExhausted
                     ? Status::Ok()
                     : run.status();
        }
        sh.verif.Add(2.0 * run->val.k());
        sh.cw.Add(run->cost.crypto_work);
        sh.mw.Add(run->cost.msg_work);
        sh.cl.Add(run->cost.crypto_latency);
        sh.ml.Add(run->cost.msg_latency);
        return Status::Ok();
      });
  if (!status.ok()) return status;

  OnlineStats verif, cw, mw, cl, ml;
  for (const Shard& sh : shards) {
    verif.Merge(sh.verif);
    cw.Merge(sh.cw);
    mw.Merge(sh.mw);
    cl.Merge(sh.cl);
    ml.Merge(sh.ml);
  }

  ExhaustiveStats stats;
  stats.setters = static_cast<int>(verif.count());
  stats.verif_avg = verif.mean();
  stats.verif_max = verif.max();
  stats.verif_stddev = verif.stddev();
  stats.crypto_work_avg = cw.mean();
  stats.crypto_work_max = cw.max();
  stats.crypto_work_stddev = cw.stddev();
  stats.msg_work_avg = mw.mean();
  stats.msg_work_max = mw.max();
  stats.msg_work_stddev = mw.stddev();
  stats.crypto_lat_avg = cl.mean();
  stats.crypto_lat_max = cl.max();
  stats.crypto_lat_stddev = cl.stddev();
  stats.msg_lat_avg = ml.mean();
  stats.msg_lat_max = ml.max();
  stats.msg_lat_stddev = ml.stddev();
  return stats;
}

Result<std::vector<MessageFailurePoint>> RunMessageFailureSweep(
    const Parameters& base,
    const std::vector<MessageFailureSetting>& settings, int trials,
    int max_attempts, const SweepObservers* observers) {
  Result<std::unique_ptr<Network>> network = Network::Build(base);
  if (!network.ok()) return network.status();
  Network& net = *network.value();
  const uint32_t node_count =
      static_cast<uint32_t>(net.directory().size());
  TrialRunner runner(base.threads);

  std::vector<MessageFailurePoint> points;
  for (size_t pi = 0; pi < settings.size(); ++pi) {
    const MessageFailureSetting& setting = settings[pi];
    core::ProtocolContext ctx = net.context();
    core::SelectionProtocol protocol(ctx);
    const uint64_t net_seed = MixSeed(base.seed, kMessageNetSalt, pi);

    struct Shard {
      OnlineStats retries;
      OnlineStats replacements;
      OnlineStats restarts;
      // Per-shard latency samples; concatenated in shard order (then
      // sorted inside Percentile), so the percentiles are bit-identical
      // for any thread count.
      std::vector<double> latencies_ms;
      int first_try = 0;
      int gave_up = 0;
    };
    std::vector<Shard> shards(TrialRunner::ShardCount(trials));
    Status status = RunSweepPoint(
        runner, observers, pi, trials,
        MixSeed(base.seed, kMessageTrialSalt, pi),
        [&](const SweepTrial& trial) {
          Shard& sh = shards[trial.shard];
          std::unique_ptr<net::SimNetwork> simnet =
              FaultyNetwork(setting, node_count, net_seed, trial);
          uint32_t trigger =
              static_cast<uint32_t>(trial.rng.NextUint64(node_count));
          core::SelectionOptions options;
          options.network = simnet.get();
          int restarts = 0;
          Result<core::SelectionProtocol::Outcome> run =
              protocol.RunWithRestarts(trigger, trial.rng, options,
                                       max_attempts, &restarts);
          if (!run.ok() && run.status().code() != StatusCode::kUnavailable) {
            return run.status();
          }
          simnet->FinalizeTrace();
          if (trial.metrics != nullptr) {
            trial.metrics->Observe(obs::Hist::kTrialLatencyUs,
                                   simnet->now_us());
          }
          if (!run.ok()) {
            ++sh.gave_up;
            return Status::Ok();
          }
          if (restarts == 0) ++sh.first_try;
          if (trial.metrics != nullptr && restarts > 0) {
            trial.metrics->Inc(obs::Counter::kRestarts,
                               static_cast<uint64_t>(restarts));
          }
          sh.restarts.Add(restarts);
          sh.retries.Add(static_cast<double>(simnet->stats().retries));
          sh.replacements.Add(
              static_cast<double>(simnet->stats().quorum_replacements));
          sh.latencies_ms.push_back(static_cast<double>(simnet->now_us()) /
                                    1000.0);
          return Status::Ok();
        });
    if (!status.ok()) return status;

    OnlineStats retries, replacements, restarts;
    std::vector<double> latencies_ms;
    int first_try = 0;
    int gave_up = 0;
    for (const Shard& sh : shards) {
      retries.Merge(sh.retries);
      replacements.Merge(sh.replacements);
      restarts.Merge(sh.restarts);
      latencies_ms.insert(latencies_ms.end(), sh.latencies_ms.begin(),
                          sh.latencies_ms.end());
      first_try += sh.first_try;
      gave_up += sh.gave_up;
    }

    MessageFailurePoint point;
    point.setting = setting;
    point.trials = trials;
    point.first_try_success_rate =
        static_cast<double>(first_try) / std::max(1, trials);
    point.avg_retries = retries.mean();
    point.avg_replacements = replacements.mean();
    point.restart_rate = restarts.mean();
    point.give_up_rate = static_cast<double>(gave_up) / std::max(1, trials);
    point.p50_latency_ms = Percentile(latencies_ms, 0.50);
    point.p99_latency_ms = Percentile(latencies_ms, 0.99);
    points.push_back(point);
  }
  return points;
}

Result<std::vector<AppFailurePoint>> RunAppFailureSweep(
    const Parameters& base,
    const std::vector<MessageFailureSetting>& settings, int trials,
    int max_attempts, const SweepObservers* observers) {
  Result<std::unique_ptr<Network>> network = Network::Build(base);
  if (!network.ok()) return network.status();
  Network& net = *network.value();
  const uint32_t node_count =
      static_cast<uint32_t>(net.directory().size());
  TrialRunner runner(base.threads);
  // Deterministic workload shape: a tenth of the network contributes.
  const int sources = std::max(1, static_cast<int>(node_count / 10));
  const int readings_per_source = 3;

  std::vector<AppFailurePoint> points;
  for (size_t pi = 0; pi < settings.size(); ++pi) {
    const MessageFailureSetting& setting = settings[pi];
    const uint64_t net_seed = MixSeed(base.seed, kAppNetSalt, pi);

    struct Shard {
      OnlineStats retries;
      OnlineStats restarts;
      OnlineStats delivered;
      // Concatenated in shard order (sorted inside Percentile), so the
      // percentiles are bit-identical for any thread count.
      std::vector<double> latencies_ms;
      int first_try = 0;
      int gave_up = 0;
    };
    std::vector<Shard> shards(TrialRunner::ShardCount(trials));
    Status status = RunSweepPoint(
        runner, observers, pi, trials, MixSeed(base.seed, kAppTrialSalt, pi),
        [&](const SweepTrial& trial) {
          Shard& sh = shards[trial.shard];
          // Trial-private PDMSs: the handlers write into them, so they
          // cannot be shared across parallel trials.
          std::unique_ptr<net::SimNetwork> simnet =
              FaultyNetwork(setting, node_count, net_seed, trial);
          node::AppRuntime runtime(simnet.get());
          std::vector<node::PdmsNode> pdms;
          pdms.reserve(node_count);
          for (uint32_t i = 0; i < node_count; ++i) pdms.emplace_back(i);

          apps::ParticipatorySensingApp::Config config;
          config.max_selection_attempts = max_attempts;
          apps::ParticipatorySensingApp app(&net, &pdms, &runtime, config);
          app.GenerateWorkload(sources, readings_per_source, trial.rng);
          uint32_t trigger =
              static_cast<uint32_t>(trial.rng.NextUint64(node_count));
          Result<apps::ParticipatorySensingApp::RoundResult> round =
              app.RunRound(trigger, trial.rng);
          simnet->FinalizeTrace();
          if (trial.metrics != nullptr) {
            trial.metrics->Observe(obs::Hist::kTrialLatencyUs,
                                   simnet->now_us());
          }
          if (!round.ok()) {
            if (round.status().code() != StatusCode::kUnavailable) {
              return round.status();
            }
            ++sh.gave_up;
            return Status::Ok();
          }
          const bool clean = round->selection_restarts == 0 &&
                             round->readings_delivered ==
                                 round->readings_sent &&
                             round->published;
          if (clean) ++sh.first_try;
          sh.restarts.Add(round->selection_restarts);
          sh.retries.Add(static_cast<double>(simnet->stats().retries));
          sh.delivered.Add(
              round->readings_sent == 0
                  ? 1.0
                  : static_cast<double>(round->readings_delivered) /
                        static_cast<double>(round->readings_sent));
          sh.latencies_ms.push_back(
              static_cast<double>(round->round_latency_us) / 1000.0);
          return Status::Ok();
        });
    if (!status.ok()) return status;

    OnlineStats retries, restarts, delivered;
    std::vector<double> latencies_ms;
    int first_try = 0;
    int gave_up = 0;
    for (const Shard& sh : shards) {
      retries.Merge(sh.retries);
      restarts.Merge(sh.restarts);
      delivered.Merge(sh.delivered);
      latencies_ms.insert(latencies_ms.end(), sh.latencies_ms.begin(),
                          sh.latencies_ms.end());
      first_try += sh.first_try;
      gave_up += sh.gave_up;
    }

    AppFailurePoint point;
    point.setting = setting;
    point.trials = trials;
    point.first_try_success_rate =
        static_cast<double>(first_try) / std::max(1, trials);
    point.avg_retries = retries.mean();
    point.avg_restarts = restarts.mean();
    point.avg_delivered_fraction = delivered.mean();
    point.give_up_rate = static_cast<double>(gave_up) / std::max(1, trials);
    point.p50_latency_ms = Percentile(latencies_ms, 0.50);
    point.p99_latency_ms = Percentile(latencies_ms, 0.99);
    points.push_back(point);
  }
  return points;
}

Result<AlphaPoint> ProbeAlpha(const Parameters& base, double alpha,
                              int network_count) {
  Parameters params = base;
  params.alpha = alpha;
  Result<std::unique_ptr<Network>> network = Network::Build(params);
  if (!network.ok()) return network.status();
  Network& net = *network.value();
  util::Rng rng(params.seed ^ 0xa1fa);

  // Test the k-table's densest guarantee: the k_max entry (largest
  // region). A breach anywhere lets an attacker fully control one
  // selection.
  const core::KTable& table = net.ktable();
  const core::KTable::Entry entry = table.entries().back();
  const dht::RingPos width = dht::WidthFromFraction(entry.rs);

  AlphaPoint point;
  point.alpha = alpha;
  point.k = entry.k;
  point.rs = entry.rs;
  point.networks_tested = network_count;

  // Round 0 takes the network's placement and every later round draws
  // the next from one stream, so the placements are drawn serially and
  // only their sorted colluder positions are kept; the O(C^2)-ish
  // concentration scans then run in parallel over them.
  std::vector<std::vector<dht::RingPos>> rounds(
      std::max(0, network_count));
  for (int round = 0; round < network_count; ++round) {
    const core::ColluderSet placement =
        round == 0 ? net.colluders()
                   : strategies::SampleColluders(net.directory(), params.c(),
                                                 rng);
    std::vector<dht::RingPos>& colluders = rounds[round];
    for (uint32_t idx : placement.handles()) {
      colluders.push_back(net.directory().pos(idx));
    }
    std::sort(colluders.begin(), colluders.end());
  }

  TrialRunner runner(params.threads);
  std::vector<int> max_centered_by_round(rounds.size(), 0);
  runner.pool().ParallelFor(rounds.size(), [&](size_t round) {
    const std::vector<dht::RingPos>& colluders = rounds[round];

    // The attack that alpha must prevent: a corrupted triggering node T
    // finds k colluding TLs legitimate w.r.t. R1 *centered on itself* —
    // i.e. k+1 colluders (T included) inside a region of size rs
    // centered on a colluder. Scan every colluder as the center.
    int max_centered = 0;
    const size_t m = colluders.size();
    const dht::RingPos half = width >> 1;
    for (size_t i = 0; i < m; ++i) {
      const dht::RingPos start = colluders[i] - half;
      int count = 0;
      // Walk clockwise from the region's start; the anchor list is
      // sorted, so begin at the first colluder >= start (with wrap).
      size_t lo = std::lower_bound(colluders.begin(), colluders.end(),
                                   start) -
                  colluders.begin();
      for (size_t step = 0; step < m; ++step) {
        size_t j = (lo + step) % m;
        if (dht::ClockwiseDistance(start, colluders[j]) <= width) {
          ++count;
        } else {
          break;
        }
      }
      max_centered = std::max(max_centered, count);
    }
    max_centered_by_round[round] = max_centered;
  });

  for (int max_centered : max_centered_by_round) {
    point.max_colluders_seen =
        std::max(point.max_colluders_seen, max_centered);
    // Full control needs T plus k colluding TLs.
    if (max_centered >= entry.k + 1) ++point.breaches;
  }
  return point;
}

}  // namespace sep2p::sim
