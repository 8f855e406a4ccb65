#include "sim/trial_runner.h"

#include <mutex>

#include "util/rng.h"

namespace sep2p::sim {

uint64_t StreamSeed(uint64_t seed, uint64_t index) {
  // Golden-ratio offset decorrelates (seed, index) from (seed + 1,
  // index - 1) style collisions before the SplitMix64 finalizer runs.
  uint64_t state = seed + index * 0x9e3779b97f4a7c15ULL;
  return util::SplitMix64(state);
}

uint64_t MixSeed(uint64_t seed, uint64_t salt, uint64_t a, uint64_t b) {
  uint64_t state = seed ^ salt;
  uint64_t mixed = util::SplitMix64(state);
  state = mixed + a * 0x9e3779b97f4a7c15ULL;
  mixed = util::SplitMix64(state);
  state = mixed + b * 0x9e3779b97f4a7c15ULL;
  return util::SplitMix64(state);
}

TrialRunner::TrialRunner(int threads)
    : threads_(util::ThreadPool::ResolveThreads(threads)),
      // threads == 1 → zero workers: the calling thread does everything
      // inline and no synchronization exists at all.
      pool_(threads_ <= 1 ? 0 : threads_) {}

Status TrialRunner::RunShards(
    int trials, const std::function<Status(int, int, int)>& fn) {
  if (trials <= 0) return Status::Ok();
  const int shards = ShardCount(trials);

  // First failing shard (by index) wins; within a shard the callback is
  // serial, so "first by shard" == "first by trial".
  std::mutex error_mutex;
  int error_shard = shards;
  Status error = Status::Ok();

  pool_.ParallelFor(static_cast<size_t>(shards), [&](size_t s) {
    const int begin = static_cast<int>(s) * kShardSize;
    const int end = std::min(begin + kShardSize, trials);
    Status status = fn(static_cast<int>(s), begin, end);
    if (!status.ok()) {
      std::lock_guard<std::mutex> lock(error_mutex);
      if (static_cast<int>(s) < error_shard) {
        error_shard = static_cast<int>(s);
        error = std::move(status);
      }
    }
  });
  return error;
}

}  // namespace sep2p::sim
