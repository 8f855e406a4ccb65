// The determinism contract of the parallel trial engine: thread count
// and scheduling must never leak into results. These tests run the same
// experiments serially and heavily threaded and require bit-identical
// output (EXPECT_EQ on doubles, not EXPECT_NEAR).

#include "sim/trial_runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "attack/sweep.h"
#include "obs/export.h"
#include "sim/experiment.h"
#include "sim/metrics.h"
#include "sim/network.h"
#include "tests/test_util.h"

namespace sep2p::sim {
namespace {

Parameters SmallNet(int threads) {
  Parameters p;
  p.n = 2000;
  p.colluding_fraction = 0.02;
  p.actor_count = 8;
  p.cache_size = 128;
  p.seed = 11;
  p.threads = threads;
  return p;
}

// The id of the first RPC a trace records (0 when it records none).
uint64_t FirstRpc(const obs::Trace& trace) {
  for (const obs::Event& e : trace.events) {
    if (e.rpc != 0) return e.rpc;
  }
  return 0;
}

// At one thread every shard runs on worker slot 0, so trial 16, the
// first trial of shard 1, runs where shard 0 ran. A protocol object
// built anew at the shard numbers its first RPC as trial 0 does; one
// kept from shard 0 continues from where shard 0 left off. This holds
// however the threads are scheduled.
void ExpectShardOneStartsFresh(const std::vector<obs::TraceRecorder>& serial) {
  ASSERT_GT(serial.size(), 16u);
  const uint64_t first = FirstRpc(serial[0].trace());
  EXPECT_NE(first, 0u);
  EXPECT_EQ(FirstRpc(serial[16].trace()), first);
}

TEST(StreamSeedTest, DistinctIndicesGiveDistinctWellMixedSeeds) {
  std::set<uint64_t> seeds;
  for (uint64_t i = 0; i < 10000; ++i) {
    seeds.insert(StreamSeed(42, i));
  }
  EXPECT_EQ(seeds.size(), 10000u);
  // Deterministic: same (seed, index) -> same stream.
  EXPECT_EQ(StreamSeed(42, 7), StreamSeed(42, 7));
  EXPECT_NE(StreamSeed(42, 7), StreamSeed(43, 7));
}

TEST(StreamSeedTest, MixSeedSeparatesFamiliesAndLabels) {
  EXPECT_NE(MixSeed(42, 0x111), MixSeed(42, 0x222));
  EXPECT_NE(MixSeed(42, 0x111, 0, 0), MixSeed(42, 0x111, 1, 0));
  EXPECT_NE(MixSeed(42, 0x111, 0, 0), MixSeed(42, 0x111, 0, 1));
  // The (a, b) labels must not alias ((a+1), (b-1)) style neighbors.
  EXPECT_NE(MixSeed(42, 0x111, 1, 2), MixSeed(42, 0x111, 2, 1));
}

TEST(OnlineStatsMergeTest, MergeMatchesSequentialAdd) {
  util::Rng rng(99);
  std::vector<double> values;
  for (int i = 0; i < 1000; ++i) {
    values.push_back(rng.NextDouble() * 100 - 50);
  }

  OnlineStats sequential;
  for (double v : values) sequential.Add(v);

  // Merge uneven chunks (including an empty one).
  OnlineStats merged;
  const size_t cuts[] = {0, 17, 17, 400, 999, 1000};
  for (size_t c = 0; c + 1 < std::size(cuts); ++c) {
    OnlineStats chunk;
    for (size_t i = cuts[c]; i < cuts[c + 1]; ++i) chunk.Add(values[i]);
    merged.Merge(chunk);
  }

  EXPECT_EQ(merged.count(), sequential.count());
  EXPECT_EQ(merged.min(), sequential.min());
  EXPECT_EQ(merged.max(), sequential.max());
  EXPECT_NEAR(merged.mean(), sequential.mean(), 1e-9);
  EXPECT_NEAR(merged.stddev(), sequential.stddev(), 1e-9);
}

TEST(OnlineStatsMergeTest, MergeIntoEmptyCopies) {
  OnlineStats a;
  OnlineStats b;
  b.Add(3);
  b.Add(5);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.mean(), 4.0);
  a.Merge(OnlineStats());  // merging an empty is a no-op
  EXPECT_EQ(a.count(), 2u);
}

TEST(TrialRunnerTest, SweepPointRunsEveryTrialExactlyOnce) {
  TrialRunner runner(/*threads=*/4);
  constexpr int kTrials = 1003;  // not a multiple of kShardSize
  std::vector<std::atomic<int>> hits(kTrials);
  // Shards holding each worker slot right now: never more than one.
  std::vector<std::atomic<int>> holders(runner.threads());
  Status status = RunSweepPoint(
      runner, nullptr, 0, kTrials, /*seed=*/7, [&](const SweepTrial& t) {
        EXPECT_EQ(t.shard, t.index / TrialRunner::kShardSize);
        EXPECT_EQ(t.first_in_shard(), t.index % TrialRunner::kShardSize == 0);
        EXPECT_GE(t.worker, 0);
        EXPECT_LT(t.worker, runner.threads());
        if (t.first_in_shard()) {
          EXPECT_EQ(holders[t.worker].fetch_add(1), 0);
        }
        if (t.index + 1 == kTrials ||
            (t.index + 1) % TrialRunner::kShardSize == 0) {
          holders[t.worker].fetch_sub(1);
        }
        hits[t.index].fetch_add(1, std::memory_order_relaxed);
        return Status::Ok();
      });
  ASSERT_TRUE(status.ok());
  for (int t = 0; t < kTrials; ++t) EXPECT_EQ(hits[t].load(), 1);
}

// Each trial's first draw in a sweep point of `trials` trials on
// `runner`.
std::vector<uint64_t> FirstDraws(TrialRunner& runner, int trials,
                                 uint64_t seed) {
  std::vector<uint64_t> draws(trials);
  Status status = RunSweepPoint(
      runner, nullptr, 0, trials, seed, [&](const SweepTrial& trial) {
        draws[trial.index] = trial.rng.NextUint64();
        return Status::Ok();
      });
  EXPECT_TRUE(status.ok());
  return draws;
}

TEST(TrialRunnerTest, PerTrialRngIndependentOfExecutionOrder) {
  // Record each trial's first draw under heavy threading, then compare
  // with a serial run: the streams must match exactly.
  TrialRunner parallel(8);
  TrialRunner serial(1);
  EXPECT_EQ(serial.pool().workers(), 0);
  EXPECT_EQ(FirstDraws(parallel, 256, 42), FirstDraws(serial, 256, 42));
}

TEST(TrialRunnerTest, LowestIndexedFailingTrialWins) {
  TrialRunner runner(4);
  Status status = RunSweepPoint(
      runner, nullptr, 0, 500, 1, [&](const SweepTrial& trial) {
        if (trial.index == 77 || trial.index == 402) {
          return Status::Internal("trial " + std::to_string(trial.index));
        }
        return Status::Ok();
      });
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.message(), "trial 77");
}

// Every column of every handle, CA signatures included. The 8-thread
// build signs certificates on eight threads at once, so under TSan a
// race in the provider's signing path shows here. The churn pool adds
// dead nodes without a CA signature.
TEST(TrialRunnerTest, NetworkBuildIsIdenticalForAnyThreadCount) {
  Parameters serial_params = SmallNet(1);
  Parameters parallel_params = SmallNet(8);
  serial_params.churn_pool = parallel_params.churn_pool = 40;
  Result<std::unique_ptr<Network>> serial = Network::Build(serial_params);
  Result<std::unique_ptr<Network>> parallel = Network::Build(parallel_params);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  test::ExpectSameNodes((*serial)->directory(), (*parallel)->directory());
  EXPECT_EQ((*serial)->ColluderIndices(), (*parallel)->ColluderIndices());
}

// The flagship guarantee: a whole experiment harness produces
// bit-identical numbers serially and with 8 threads.
TEST(TrialRunnerTest, StrategyComparisonBitIdenticalAcrossThreadCounts) {
  const std::vector<double> c_fractions = {0.01, 0.03};
  const std::vector<std::string> strategies = {"SEP2P", "ES.AV"};
  auto serial =
      RunStrategyComparison(SmallNet(1), c_fractions, strategies,
                            /*trials=*/48);
  auto parallel =
      RunStrategyComparison(SmallNet(8), c_fractions, strategies,
                            /*trials=*/48);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  ASSERT_EQ(serial->size(), parallel->size());
  for (size_t i = 0; i < serial->size(); ++i) {
    const StrategyPoint& s = (*serial)[i];
    const StrategyPoint& p = (*parallel)[i];
    EXPECT_EQ(s.strategy, p.strategy);
    EXPECT_EQ(s.c_fraction, p.c_fraction);
    EXPECT_EQ(s.verification_cost, p.verification_cost);
    EXPECT_EQ(s.avg_corrupted, p.avg_corrupted);
    EXPECT_EQ(s.effectiveness, p.effectiveness);
    EXPECT_EQ(s.setup_crypto_latency, p.setup_crypto_latency);
    EXPECT_EQ(s.setup_crypto_work, p.setup_crypto_work);
    EXPECT_EQ(s.setup_msg_latency, p.setup_msg_latency);
    EXPECT_EQ(s.setup_msg_work, p.setup_msg_work);
    EXPECT_EQ(s.relocation_rate, p.relocation_rate);
  }
}

TEST(TrialRunnerTest, ExhaustiveSettersBitIdenticalAcrossThreadCounts) {
  auto serial = RunExhaustiveSetters(SmallNet(1), /*sample=*/64);
  auto parallel = RunExhaustiveSetters(SmallNet(8), /*sample=*/64);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  EXPECT_EQ(serial->setters, parallel->setters);
  EXPECT_EQ(serial->verif_avg, parallel->verif_avg);
  EXPECT_EQ(serial->verif_max, parallel->verif_max);
  EXPECT_EQ(serial->verif_stddev, parallel->verif_stddev);
  EXPECT_EQ(serial->crypto_work_avg, parallel->crypto_work_avg);
  EXPECT_EQ(serial->crypto_work_max, parallel->crypto_work_max);
  EXPECT_EQ(serial->msg_work_avg, parallel->msg_work_avg);
  EXPECT_EQ(serial->crypto_lat_avg, parallel->crypto_lat_avg);
  EXPECT_EQ(serial->msg_lat_avg, parallel->msg_lat_avg);
}

TEST(TrialRunnerTest, CacheSweepBitIdenticalAcrossThreadCounts) {
  const std::vector<size_t> cache_sizes = {32, 128};
  auto serial = RunCacheSweep(SmallNet(1), cache_sizes, /*trials=*/40);
  auto parallel = RunCacheSweep(SmallNet(8), cache_sizes, /*trials=*/40);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  ASSERT_EQ(serial->size(), parallel->size());
  for (size_t i = 0; i < serial->size(); ++i) {
    EXPECT_EQ((*serial)[i].relocation_rate, (*parallel)[i].relocation_rate);
    EXPECT_EQ((*serial)[i].relocated_fraction,
              (*parallel)[i].relocated_fraction);
    EXPECT_EQ((*serial)[i].failed_fraction, (*parallel)[i].failed_fraction);
    EXPECT_EQ((*serial)[i].setup_msg_work, (*parallel)[i].setup_msg_work);
  }
}

// Every worker of the exhaustive sweep owns a selection protocol object,
// built anew at each shard, whose ideal transport carries the running
// shard's metrics registry and the traced trials' recorders. Under
// heavy threading (the TSan build runs the 'TrialRunner' filter) the
// observed sweep must stay race-free, and its metrics snapshot and the
// traces of 20 trials (past the first shard) must equal a serial run's
// byte for byte.
TEST(TrialRunnerTest, PerShardIdealTransportsAreThreadConfined) {
  auto run = [](int threads, std::string* metrics_json,
                std::string* traces) {
    std::vector<obs::TraceRecorder> recorders;
    obs::MetricsRegistry metrics;
    SweepObservers observers;
    observers.trace_trials = 20;
    observers.recorders = &recorders;
    observers.metrics = &metrics;
    auto stats =
        RunExhaustiveSetters(SmallNet(threads), /*sample=*/96, &observers);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    if (threads == 1) ExpectShardOneStartsFresh(recorders);
    *metrics_json = metrics.ToJson();
    for (const obs::TraceRecorder& rec : recorders) {
      *traces += obs::ToJsonl(rec.trace());
    }
  };
  std::string serial_metrics, serial_traces;
  std::string parallel_metrics, parallel_traces;
  run(1, &serial_metrics, &serial_traces);
  run(8, &parallel_metrics, &parallel_traces);
  EXPECT_FALSE(serial_traces.empty());
  EXPECT_EQ(serial_metrics, parallel_metrics);
  EXPECT_EQ(serial_traces, parallel_traces);
}

// The same guarantee for the six other harnesses that take
// SweepObservers, including RunAppFailureSweep, which no bench observes.
// Each sweep has two points of 20 trials (two shards, each with its own
// colluder placement where the harness varies it), so the shard
// registries fold across shards and points, and every trial of the
// first point is traced: a protocol object kept past the first shard
// would number its RPCs by what its worker ran before. The serial run
// checks that directly (ExpectShardOneStartsFresh), so an object kept
// too long fails whatever the parallel run's scheduling.
TEST(TrialRunnerTest, EveryObservedSweepIsThreadInvariant) {
  using Sweep =
      std::function<Status(const Parameters&, const SweepObservers*)>;
  std::vector<MessageFailureSetting> faults(2);
  faults[1].drop_probability = 0.05;
  faults[1].step_crash_probability = 0.002;
  const std::vector<std::pair<std::string, Sweep>> sweeps = {
      {"strategies",
       [](const Parameters& p, const SweepObservers* o) {
         return RunStrategyComparison(p, {0.02}, {"SEP2P", "ES.AV"}, 20, o)
             .status();
       }},
      {"cache",
       [](const Parameters& p, const SweepObservers* o) {
         return RunCacheSweep(p, {32, 128}, 20, o).status();
       }},
      {"actors",
       [](const Parameters& p, const SweepObservers* o) {
         return RunActorSweep(p, {4, 8}, 20, o).status();
       }},
      {"messages",
       [&](const Parameters& p, const SweepObservers* o) {
         return RunMessageFailureSweep(p, faults, 20, 25, o).status();
       }},
      {"apps",
       [&](const Parameters& p, const SweepObservers* o) {
         return RunAppFailureSweep(p, faults, 20, 25, o).status();
       }},
      {"adversary",
       [](const Parameters& p, const SweepObservers* o) {
         return attack::RunAdversarySweep(p, {"none", "csar-grind"}, 20, o)
             .status();
       }},
  };
  for (const auto& [name, sweep] : sweeps) {
    SCOPED_TRACE(name);
    std::string metrics_json[2], traces[2];
    const int threads[2] = {1, 8};
    for (int i = 0; i < 2; ++i) {
      std::vector<obs::TraceRecorder> recorders;
      obs::MetricsRegistry metrics;
      SweepObservers observers;
      observers.trace_trials = 20;
      observers.recorders = &recorders;
      observers.metrics = &metrics;
      Status status = sweep(SmallNet(threads[i]), &observers);
      ASSERT_TRUE(status.ok()) << status.ToString();
      ASSERT_EQ(recorders.size(), 20u);
      if (threads[i] == 1) ExpectShardOneStartsFresh(recorders);
      metrics_json[i] = metrics.ToJson();
      for (const obs::TraceRecorder& rec : recorders) {
        traces[i] += obs::ToJsonl(rec.trace());
      }
    }
    EXPECT_FALSE(traces[0].empty());
    EXPECT_EQ(metrics_json[0], metrics_json[1]);
    EXPECT_EQ(traces[0], traces[1]);
  }
}

// The message-level acceptance criterion: per-trial SimNetworks seeded
// from SplitMix64 streams keep the whole sweep — retries, restarts and
// the sorted latency percentiles — bit-identical for any thread count.
TEST(TrialRunnerTest, MessageFailureSweepBitIdenticalAcrossThreadCounts) {
  std::vector<MessageFailureSetting> settings(2);
  settings[1].drop_probability = 0.05;
  settings[1].step_crash_probability = 0.002;
  auto serial =
      RunMessageFailureSweep(SmallNet(1), settings, /*trials=*/24);
  auto parallel =
      RunMessageFailureSweep(SmallNet(8), settings, /*trials=*/24);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  ASSERT_EQ(serial->size(), parallel->size());
  for (size_t i = 0; i < serial->size(); ++i) {
    const MessageFailurePoint& s = (*serial)[i];
    const MessageFailurePoint& p = (*parallel)[i];
    EXPECT_EQ(s.first_try_success_rate, p.first_try_success_rate);
    EXPECT_EQ(s.avg_retries, p.avg_retries);
    EXPECT_EQ(s.avg_replacements, p.avg_replacements);
    EXPECT_EQ(s.restart_rate, p.restart_rate);
    EXPECT_EQ(s.give_up_rate, p.give_up_rate);
    EXPECT_EQ(s.p50_latency_ms, p.p50_latency_ms);
    EXPECT_EQ(s.p99_latency_ms, p.p99_latency_ms);
  }
}

// Same criterion one layer up: a full sensing round per trial (selection
// + contribution wave + merge + publish) through node::AppRuntime.
TEST(TrialRunnerTest, AppFailureSweepBitIdenticalAcrossThreadCounts) {
  std::vector<MessageFailureSetting> settings(2);
  settings[1].drop_probability = 0.1;
  settings[1].step_crash_probability = 0.001;
  auto serial = RunAppFailureSweep(SmallNet(1), settings, /*trials=*/12);
  auto parallel = RunAppFailureSweep(SmallNet(8), settings, /*trials=*/12);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  ASSERT_EQ(serial->size(), parallel->size());
  for (size_t i = 0; i < serial->size(); ++i) {
    const AppFailurePoint& s = (*serial)[i];
    const AppFailurePoint& p = (*parallel)[i];
    EXPECT_EQ(s.first_try_success_rate, p.first_try_success_rate);
    EXPECT_EQ(s.avg_retries, p.avg_retries);
    EXPECT_EQ(s.avg_restarts, p.avg_restarts);
    EXPECT_EQ(s.avg_delivered_fraction, p.avg_delivered_fraction);
    EXPECT_EQ(s.give_up_rate, p.give_up_rate);
    EXPECT_EQ(s.p50_latency_ms, p.p50_latency_ms);
    EXPECT_EQ(s.p99_latency_ms, p.p99_latency_ms);
  }
  // Fault-free rounds deliver everything; faulty rounds degrade.
  EXPECT_EQ((*serial)[0].avg_delivered_fraction, 1.0);
  EXPECT_EQ((*serial)[0].first_try_success_rate, 1.0);
  EXPECT_LE((*serial)[1].avg_delivered_fraction, 1.0);
}

TEST(TrialRunnerTest, ComputeAverageKBitIdenticalAcrossThreadCounts) {
  KCurvePoint serial =
      ComputeAverageK(10000, 0.01, 1e-6, /*samples=*/500, /*seed=*/3,
                      /*threads=*/1);
  KCurvePoint parallel =
      ComputeAverageK(10000, 0.01, 1e-6, /*samples=*/500, /*seed=*/3,
                      /*threads=*/8);
  EXPECT_EQ(serial.avg_k, parallel.avg_k);
  EXPECT_EQ(serial.max_k_seen, parallel.max_k_seen);
}

}  // namespace
}  // namespace sep2p::sim
