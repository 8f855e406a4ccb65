// TrialRunner: deterministic parallel execution of Monte-Carlo trials.
//
// Every experiment harness in sim/experiment.cc used to advance one
// shared Rng through its trial loop, which welds the results to the
// execution order. The TrialRunner breaks that weld with *per-trial RNG
// streams*: trial t draws from an independent Rng seeded as
// SplitMix64(seed, t) (see StreamSeed below), so any trial can run on
// any worker at any time and still produce exactly the bytes it would
// have produced alone.
//
// Determinism contract — results are bit-identical regardless of thread
// count or scheduling, because nothing order-dependent leaks out of a
// trial:
//   * randomness: per-trial streams (StreamSeed), never a shared Rng;
//   * accumulation: trials are grouped into fixed shards of kShardSize
//     consecutive trials (a function of the trial count only, never the
//     thread count). Each shard owns its OnlineStats et al.; shards are
//     merged serially in shard order after the parallel section
//     (OnlineStats::Merge is the parallel-safe combine);
//   * shared simulator state (Network, Directory): read-only while
//     trials run in parallel. Harnesses that mutate it between trials
//     (ReassignColluders) run their epochs one after another;
//   * errors: the failing trial with the lowest index wins, matching
//     what a serial loop would have reported first.

#ifndef SEP2P_SIM_TRIAL_RUNNER_H_
#define SEP2P_SIM_TRIAL_RUNNER_H_

#include <cstdint>
#include <functional>

#include "util/status.h"
#include "util/thread_pool.h"

namespace sep2p::sim {

// Seed of trial stream `index`: one SplitMix64 step over a seed-derived
// state. Statistically independent streams for free — SplitMix64 is a
// bijective mixer, so distinct (seed, index) pairs give distinct
// well-mixed outputs.
uint64_t StreamSeed(uint64_t seed, uint64_t index);

// Folds experiment-level labels (c_fraction index, strategy index, a
// purpose salt) into a base seed, so sweeps that share a Parameters::seed
// still draw from disjoint stream families.
uint64_t MixSeed(uint64_t seed, uint64_t salt, uint64_t a = 0,
                 uint64_t b = 0);

class TrialRunner {
 public:
  // Fixed shard width for per-shard accumulation. It is also the
  // colluder-reassignment epoch of the harnesses that move colluders:
  // one epoch is one shard.
  static constexpr int kShardSize = 16;

  // `threads` as in Parameters::threads: >= 1 literal, else one per
  // hardware thread. A resolved count of 1 uses no worker threads at
  // all (inline execution).
  explicit TrialRunner(int threads);

  int threads() const { return threads_; }
  util::ThreadPool& pool() { return pool_; }

  static int ShardCount(int trials) {
    return (trials + kShardSize - 1) / kShardSize;
  }

  // Runs fn(shard, begin, end) for every shard of `trials` trials, with
  // [begin, end) the shard's trial range; shards are the unit of
  // scheduling. Returns the error of the lowest-indexed failing shard,
  // or OK. `fn` must confine writes to per-trial or per-shard state it
  // owns. sim::RunSweepPoint (sim/experiment.h) builds every harness's
  // trial loop on it, seeding trial t from StreamSeed(seed, t) so the
  // shard width never leaks into the random stream.
  Status RunShards(int trials,
                   const std::function<Status(int, int, int)>& fn);

 private:
  int threads_;
  util::ThreadPool pool_;
};

}  // namespace sep2p::sim

#endif  // SEP2P_SIM_TRIAL_RUNNER_H_
