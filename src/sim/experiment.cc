#include "sim/experiment.h"

#include <algorithm>
#include <cmath>

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

}  // namespace

void PrepareRecorders(const SweepObservers* observers, int trials) {
  if (observers == nullptr || observers->recorders == nullptr) return;
  const int count = std::clamp(observers->trace_trials, 0, trials);
  observers->recorders->clear();
  observers->recorders->resize(static_cast<size_t>(count));
}

obs::TraceRecorder* RecorderFor(const SweepObservers* observers,
                                size_t point, int t) {
  if (observers == nullptr || observers->recorders == nullptr ||
      point != 0 || t < 0 ||
      static_cast<size_t>(t) >= observers->recorders->size()) {
    return nullptr;
  }
  return &(*observers->recorders)[static_cast<size_t>(t)];
}

std::vector<obs::MetricsRegistry> MakeShardMetrics(
    const SweepObservers* observers, int trials) {
  if (observers == nullptr || observers->metrics == nullptr) return {};
  return std::vector<obs::MetricsRegistry>(
      static_cast<size_t>(TrialRunner::ShardCount(trials)));
}

void FoldShardMetrics(const SweepObservers* observers,
                      const std::vector<obs::MetricsRegistry>& shards) {
  if (observers == nullptr || observers->metrics == nullptr) return;
  for (const obs::MetricsRegistry& shard : shards) {
    observers->metrics->Merge(shard);
  }
}

Result<std::vector<StrategyPoint>> RunStrategyComparison(
    const Parameters& base, const std::vector<double>& c_fractions,
    const std::vector<std::string>& strategy_names, int trials,
    const SweepObservers* observers) {
  std::vector<StrategyPoint> points;
  TrialRunner runner(base.threads);
  PrepareRecorders(observers, trials);

  for (size_t ci = 0; ci < c_fractions.size(); ++ci) {
    Parameters params = base;
    params.colluding_fraction = c_fractions[ci];
    Result<std::unique_ptr<Network>> network = Network::Build(params);
    if (!network.ok()) return network.status();
    Network& net = *network.value();

    for (size_t si = 0; si < strategy_names.size(); ++si) {
      const std::string& name = strategy_names[si];
      core::ProtocolContext ctx = net.context();
      strategies::AdversaryConfig adversary;  // full covert adversary
      // One strategy per point: its epochs run one after another, each
      // on a single worker (one epoch = one shard), so the strategy's
      // protocol object and transport are never shared between threads.
      std::unique_ptr<strategies::Strategy> strategy =
          strategies::MakeStrategy(name, ctx, adversary);
      if (strategy == nullptr) {
        return Status::InvalidArgument("unknown strategy: " + name);
      }

      // One slot per trial: each trial writes only its own slot, and the
      // slots are folded in trial order afterwards, so the point is
      // bit-identical for any thread count.
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
      const uint64_t trial_seed =
          MixSeed(params.seed, kStrategyTrialSalt, ci, si);
      const uint64_t colluder_seed =
          MixSeed(params.seed, kStrategyColluderSalt, ci, si);
      const size_t point_index = ci * strategy_names.size() + si;
      std::vector<obs::MetricsRegistry> shard_metrics =
          MakeShardMetrics(observers, trials);

      // Fresh colluder placement every kShardSize trials decorrelates
      // the "is a colluder near hash(RND_T)" events. Reassignment
      // mutates the shared Directory, so it happens at epoch barriers;
      // within an epoch the assignment is frozen and trials run in
      // parallel against read-only state.
      for (int begin = 0; begin < trials;
           begin += TrialRunner::kShardSize) {
        const int epoch = begin / TrialRunner::kShardSize;
        util::Rng colluder_rng(
            StreamSeed(colluder_seed, static_cast<uint64_t>(epoch)));
        net.ReassignColluders(colluder_rng);

        const int end = std::min(begin + TrialRunner::kShardSize, trials);
        Status status = runner.RunTrialRange(
            begin, end, trial_seed, [&](int t, util::Rng& rng) {
              // One epoch = one shard (kShardSize trials on one
              // worker), so indexing by t / kShardSize is race-free.
              obs::MetricsRegistry* met =
                  shard_metrics.empty()
                      ? nullptr
                      : &shard_metrics[static_cast<size_t>(
                            t / TrialRunner::kShardSize)];
              strategy->set_observers(
                  RecorderFor(observers, point_index, t), met);
              if (met != nullptr) met->Inc(obs::Counter::kTrials);
              uint32_t trigger = static_cast<uint32_t>(
                  rng.NextUint64(net.directory().size()));
              Result<strategies::StrategyOutcome> run =
                  strategy->Run(trigger, rng);
              if (!run.ok()) return run.status();
              TrialResult& slot = slots[t];
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
      }
      FoldShardMetrics(observers, shard_metrics);

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
  runner.RunShards(samples, [&](int shard, int begin, int end) {
    std::vector<double> thresholds;
    for (int s = begin; s < end; ++s) {
      util::Rng rng(StreamSeed(seed, static_cast<uint64_t>(s)));
      double sum = 0;
      thresholds.clear();
      thresholds.reserve(table.k_max() + 1);
      for (int i = 0; i < table.k_max(); ++i) {
        sum += -std::log(1.0 - rng.NextDouble());
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
      shard_ks[shard].Add(chosen);
    }
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
  PrepareRecorders(observers, trials);

  std::vector<CachePoint> points;
  for (size_t pi = 0; pi < cache_sizes.size(); ++pi) {
    const size_t cache_size = cache_sizes[pi];
    core::ProtocolContext ctx = net.context();
    ctx.rs3 = std::min(1.0, static_cast<double>(cache_size) /
                                static_cast<double>(base.n));
    // With tiny caches the selection may relocate many times before
    // accumulating A candidates.
    ctx.max_relocations = 64;
    const uint64_t trial_seed = MixSeed(base.seed, kCacheTrialSalt, pi);

    struct Shard {
      OnlineStats reloc, crypto_lat, crypto_work, msg_lat, msg_work;
      int relocated_runs = 0;
      int failed_runs = 0;
    };
    std::vector<Shard> shards(TrialRunner::ShardCount(trials));
    std::vector<obs::MetricsRegistry> shard_metrics =
        MakeShardMetrics(observers, trials);
    Status status = runner.RunShards(
        trials, [&](int shard, int begin, int end) {
          Shard& sh = shards[shard];
          obs::MetricsRegistry* met =
              shard_metrics.empty() ? nullptr : &shard_metrics[shard];
          strategies::Sep2pStrategy strategy(
              ctx, strategies::AdversaryConfig::Passive());
          for (int t = begin; t < end; ++t) {
            util::Rng rng(StreamSeed(trial_seed, static_cast<uint64_t>(t)));
            strategy.set_observers(RecorderFor(observers, pi, t), met);
            if (met != nullptr) met->Inc(obs::Counter::kTrials);
            uint32_t trigger = static_cast<uint32_t>(
                rng.NextUint64(net.directory().size()));
            Result<strategies::StrategyOutcome> run =
                strategy.Run(trigger, rng);
            if (!run.ok()) {
              // A cache smaller than A can make the selection
              // impossible; that is a data point (the paper's "sparse
              // regions cannot fully take part"), not a harness error.
              if (run.status().code() == StatusCode::kResourceExhausted) {
                ++sh.failed_runs;
                continue;
              }
              return run.status();
            }
            sh.reloc.Add(run->relocations);
            if (run->relocations > 0) ++sh.relocated_runs;
            sh.crypto_lat.Add(run->setup_cost.crypto_latency);
            sh.crypto_work.Add(run->setup_cost.crypto_work);
            sh.msg_lat.Add(run->setup_cost.msg_latency);
            sh.msg_work.Add(run->setup_cost.msg_work);
          }
          return Status::Ok();
        });
    if (!status.ok()) return status;
    FoldShardMetrics(observers, shard_metrics);

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
  PrepareRecorders(observers, trials);

  std::vector<ActorsPoint> points;
  for (size_t pi = 0; pi < actor_counts.size(); ++pi) {
    const int actor_count = actor_counts[pi];
    core::ProtocolContext ctx = net.context();
    ctx.actor_count = actor_count;
    // Keep R3 populated for the largest sweeps.
    ctx.rs3 = std::max(ctx.rs3, 4.0 * actor_count / static_cast<double>(
                                                        base.n));
    const uint64_t trial_seed = MixSeed(base.seed, kActorTrialSalt, pi);

    struct Shard {
      OnlineStats crypto_work, msg_work, verification;
    };
    std::vector<Shard> shards(TrialRunner::ShardCount(trials));
    std::vector<obs::MetricsRegistry> shard_metrics =
        MakeShardMetrics(observers, trials);
    Status status = runner.RunShards(
        trials, [&](int shard, int begin, int end) {
          Shard& sh = shards[shard];
          obs::MetricsRegistry* met =
              shard_metrics.empty() ? nullptr : &shard_metrics[shard];
          strategies::Sep2pStrategy strategy(
              ctx, strategies::AdversaryConfig::Passive());
          for (int t = begin; t < end; ++t) {
            util::Rng rng(StreamSeed(trial_seed, static_cast<uint64_t>(t)));
            strategy.set_observers(RecorderFor(observers, pi, t), met);
            if (met != nullptr) met->Inc(obs::Counter::kTrials);
            uint32_t trigger = static_cast<uint32_t>(
                rng.NextUint64(net.directory().size()));
            Result<strategies::StrategyOutcome> run =
                strategy.Run(trigger, rng);
            if (!run.ok()) return run.status();
            sh.crypto_work.Add(run->setup_cost.crypto_work);
            sh.msg_work.Add(run->setup_cost.msg_work);
            sh.verification.Add(run->verification_cost);
          }
          return Status::Ok();
        });
    if (!status.ok()) return status;
    FoldShardMetrics(observers, shard_metrics);

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
  const uint64_t trial_seed = MixSeed(base.seed, kExhaustiveTrialSalt);
  const int trials = static_cast<int>(setters.size());

  struct Shard {
    OnlineStats verif, cw, mw, cl, ml;
  };
  TrialRunner runner(base.threads);
  PrepareRecorders(observers, trials);
  std::vector<Shard> shards(TrialRunner::ShardCount(trials));
  std::vector<obs::MetricsRegistry> shard_metrics =
      MakeShardMetrics(observers, trials);
  Status status = runner.RunShards(
      trials, [&](int shard, int begin, int end) {
        Shard& sh = shards[shard];
        obs::MetricsRegistry* met =
            shard_metrics.empty() ? nullptr : &shard_metrics[shard];
        // One protocol object (and ideal transport) per shard: shards
        // run on different workers.
        core::SelectionProtocol protocol(ctx);
        net::Transport& transport = protocol.ideal_transport();
        transport.set_metrics(met);
        for (int t = begin; t < end; ++t) {
          util::Rng rng(StreamSeed(trial_seed, static_cast<uint64_t>(t)));
          // Force the setter point onto this node's exact position.
          crypto::Hash256 point = crypto::Hash256::FromRingPos(
              net.directory().pos(setters[t]));
          core::SelectionOptions options;
          options.forced_point = &point;
          transport.set_trace(RecorderFor(observers, 0, t));
          if (met != nullptr) met->Inc(obs::Counter::kTrials);
          uint32_t trigger = static_cast<uint32_t>(
              rng.NextUint64(net.directory().size()));
          Result<core::SelectionProtocol::Outcome> run =
              protocol.Run(trigger, rng, options);
          if (!run.ok()) {
            if (run.status().code() == StatusCode::kResourceExhausted) {
              continue;
            }
            return run.status();
          }
          sh.verif.Add(2.0 * run->val.k());
          sh.cw.Add(run->cost.crypto_work);
          sh.mw.Add(run->cost.msg_work);
          sh.cl.Add(run->cost.crypto_latency);
          sh.ml.Add(run->cost.msg_latency);
        }
        return Status::Ok();
      });
  if (!status.ok()) return status;
  FoldShardMetrics(observers, shard_metrics);

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
  PrepareRecorders(observers, trials);

  std::vector<MessageFailurePoint> points;
  for (size_t pi = 0; pi < settings.size(); ++pi) {
    const MessageFailureSetting& setting = settings[pi];
    core::ProtocolContext ctx = net.context();
    core::SelectionProtocol protocol(ctx);
    const uint64_t trial_seed = MixSeed(base.seed, kMessageTrialSalt, pi);
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
    std::vector<obs::MetricsRegistry> shard_metrics =
        MakeShardMetrics(observers, trials);
    Status status = runner.RunShards(
        trials, [&](int shard, int begin, int end) {
          Shard& sh = shards[shard];
          obs::MetricsRegistry* met =
              shard_metrics.empty() ? nullptr : &shard_metrics[shard];
          for (int t = begin; t < end; ++t) {
            util::Rng rng(StreamSeed(trial_seed, static_cast<uint64_t>(t)));
            net::LinkModel link;
            link.drop_probability = setting.drop_probability;
            link.jitter_mean_us = setting.jitter_mean_us;
            net::RetryPolicy retry;  // library defaults
            // The network — and with it every latency/drop/crash draw —
            // is trial-private, keeping trials embarrassingly parallel.
            net::SimNetwork simnet(
                node_count, link, retry,
                StreamSeed(net_seed, static_cast<uint64_t>(t)));
            simnet.set_step_crash_probability(
                setting.step_crash_probability);
            // Trial t of the first setting records into its own slot;
            // observation is passive, so the observed trials' results
            // are unchanged.
            obs::TraceRecorder* rec = RecorderFor(observers, pi, t);
            if (rec != nullptr) simnet.set_trace(rec);
            if (met != nullptr) {
              simnet.set_metrics(met);
              met->Inc(obs::Counter::kTrials);
            }
            uint32_t trigger =
                static_cast<uint32_t>(rng.NextUint64(node_count));
            int attempt = 1;
            for (; attempt <= max_attempts; ++attempt) {
              core::SelectionOptions options;
              options.network = &simnet;
              Result<core::SelectionProtocol::Outcome> run =
                  protocol.Run(trigger, rng, options);
              if (run.ok()) break;
              if (run.status().code() != StatusCode::kUnavailable) {
                return run.status();
              }
            }
            if (rec != nullptr) simnet.FinalizeTrace();
            if (met != nullptr) {
              met->Observe(obs::Hist::kTrialLatencyUs, simnet.now_us());
            }
            if (attempt > max_attempts) {
              ++sh.gave_up;
            } else {
              if (attempt == 1) ++sh.first_try;
              if (met != nullptr && attempt > 1) {
                met->Inc(obs::Counter::kRestarts,
                         static_cast<uint64_t>(attempt - 1));
              }
              sh.restarts.Add(attempt - 1);
              sh.retries.Add(static_cast<double>(simnet.stats().retries));
              sh.replacements.Add(
                  static_cast<double>(simnet.stats().quorum_replacements));
              sh.latencies_ms.push_back(
                  static_cast<double>(simnet.now_us()) / 1000.0);
            }
          }
          return Status::Ok();
        });
    if (!status.ok()) return status;
    FoldShardMetrics(observers, shard_metrics);

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
  PrepareRecorders(observers, trials);
  // Deterministic workload shape: a tenth of the network contributes.
  const int sources = std::max(1, static_cast<int>(node_count / 10));
  const int readings_per_source = 3;

  std::vector<AppFailurePoint> points;
  for (size_t pi = 0; pi < settings.size(); ++pi) {
    const MessageFailureSetting& setting = settings[pi];
    const uint64_t trial_seed = MixSeed(base.seed, kAppTrialSalt, pi);
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
    std::vector<obs::MetricsRegistry> shard_metrics =
        MakeShardMetrics(observers, trials);
    Status status = runner.RunShards(
        trials, [&](int shard, int begin, int end) {
          Shard& sh = shards[shard];
          obs::MetricsRegistry* met =
              shard_metrics.empty() ? nullptr : &shard_metrics[shard];
          for (int t = begin; t < end; ++t) {
            util::Rng rng(StreamSeed(trial_seed, static_cast<uint64_t>(t)));
            net::LinkModel link;
            link.drop_probability = setting.drop_probability;
            link.jitter_mean_us = setting.jitter_mean_us;
            net::RetryPolicy retry;  // library defaults
            net::SimNetwork simnet(
                node_count, link, retry,
                StreamSeed(net_seed, static_cast<uint64_t>(t)));
            simnet.set_step_crash_probability(
                setting.step_crash_probability);
            // Observed trials of the first setting; see the message
            // sweep.
            obs::TraceRecorder* rec = RecorderFor(observers, pi, t);
            if (rec != nullptr) simnet.set_trace(rec);
            if (met != nullptr) {
              simnet.set_metrics(met);
              met->Inc(obs::Counter::kTrials);
            }
            node::AppRuntime runtime(&simnet);

            // Trial-private PDMSs: the handlers write into them, so they
            // cannot be shared across parallel trials.
            std::vector<node::PdmsNode> pdms;
            pdms.reserve(node_count);
            for (uint32_t i = 0; i < node_count; ++i) pdms.emplace_back(i);

            apps::ParticipatorySensingApp::Config config;
            config.max_selection_attempts = max_attempts;
            apps::ParticipatorySensingApp app(&net, &pdms, &runtime,
                                              config);
            app.GenerateWorkload(sources, readings_per_source, rng);
            uint32_t trigger =
                static_cast<uint32_t>(rng.NextUint64(node_count));
            Result<apps::ParticipatorySensingApp::RoundResult> round =
                app.RunRound(trigger, rng);
            if (rec != nullptr) simnet.FinalizeTrace();
            if (met != nullptr) {
              met->Observe(obs::Hist::kTrialLatencyUs, simnet.now_us());
            }
            if (!round.ok()) {
              if (round.status().code() != StatusCode::kUnavailable) {
                return round.status();
              }
              ++sh.gave_up;
              continue;
            }
            const bool clean = round->selection_restarts == 0 &&
                               round->readings_delivered ==
                                   round->readings_sent &&
                               round->published;
            if (clean) ++sh.first_try;
            sh.restarts.Add(round->selection_restarts);
            sh.retries.Add(static_cast<double>(simnet.stats().retries));
            sh.delivered.Add(
                round->readings_sent == 0
                    ? 1.0
                    : static_cast<double>(round->readings_delivered) /
                          static_cast<double>(round->readings_sent));
            sh.latencies_ms.push_back(
                static_cast<double>(round->round_latency_us) / 1000.0);
          }
          return Status::Ok();
        });
    if (!status.ok()) return status;
    FoldShardMetrics(observers, shard_metrics);

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

  // Colluder reassignment mutates the shared Directory, so the
  // assignments are generated serially (barrier per round) and only the
  // sorted colluder positions are snapshotted; the O(C^2)-ish
  // concentration scans then run in parallel over the snapshots.
  std::vector<std::vector<dht::RingPos>> rounds(
      std::max(0, network_count));
  for (int round = 0; round < network_count; ++round) {
    if (round > 0) net.ReassignColluders(rng);
    std::vector<dht::RingPos>& colluders = rounds[round];
    for (uint32_t idx : net.ColluderIndices()) {
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
