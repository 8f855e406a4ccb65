#include "engine/mempool.h"

#include <cassert>
#include <initializer_list>

#include "util/rng.h"

namespace sep2p::engine {

uint64_t TaskMempool::Submit(TaskKind kind, uint32_t trigger,
                             uint64_t arrival_us, uint64_t seed) {
  Task t;
  t.id = tasks_.size();
  t.kind = kind;
  t.trigger = trigger;
  t.arrival_us = arrival_us;
  t.seed = seed;
  tasks_.push_back(t);
  return t.id;
}

void TaskMempool::Admit(uint64_t id, uint64_t admit_us) {
  Task& t = tasks_[id];
  assert(t.state == TaskState::kPending);
  t.state = TaskState::kAdmitted;
  t.admit_us = admit_us;
  ++admitted_;
}

void TaskMempool::Complete(uint64_t id, uint64_t complete_us,
                           uint64_t result_digest, int restarts) {
  Task& t = tasks_[id];
  assert(t.state == TaskState::kAdmitted);
  t.state = TaskState::kCompleted;
  t.complete_us = complete_us;
  t.result_digest = result_digest;
  t.restarts = restarts;
  ++completed_;
}

void TaskMempool::Fail(uint64_t id, uint64_t fail_us) {
  Task& t = tasks_[id];
  assert(t.state == TaskState::kAdmitted ||
         t.state == TaskState::kCompleted);
  if (t.state == TaskState::kCompleted) --completed_;  // verdict revoked
  t.state = TaskState::kFailed;
  if (t.complete_us == 0) t.complete_us = fail_us;
  ++failed_;
}

uint64_t TaskMempool::ResultsDigest() const {
  uint64_t digest = 0x5345503250544d50ULL;  // "SEP2PTMP"
  for (const Task& t : tasks_) {
    if (t.state != TaskState::kCompleted) continue;
    // Each word folds in through one SplitMix64 step from digest ^ word.
    for (uint64_t word : {t.id, t.result_digest, t.complete_us,
                          static_cast<uint64_t>(t.restarts)}) {
      digest ^= word;
      digest = util::SplitMix64(digest);
    }
  }
  return digest;
}

}  // namespace sep2p::engine
