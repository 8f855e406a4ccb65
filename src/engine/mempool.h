// TaskMempool: the deterministic task store of the throughput engine.
//
// A task is one protocol-level unit of offered load — an actor
// selection, a targeted diffusion, or an aggregate query — submitted
// with a virtual arrival time and executed later, when the admission
// window has room. The mempool is where tasks wait and where their
// lifecycle is recorded:
//
//   pending --Admit--> admitted --Complete--> completed
//                               \--Fail-----> failed
//                      completed --Fail-----> failed   (verdict revoked)
//
// The last edge is the optimistic-verification bargain: a task
// "completes" as soon as its protocol run finishes, but deferred
// signature verdicts resolve later (crypto/batch_verifier.h), and a
// false verdict retroactively fails the task. Conservation invariant:
// once all verdicts are folded, admitted == completed + failed — an
// admitted task is never dropped.
//
// Determinism. Task ids are the submission order (stable, dense); each
// task carries its own SplitMix64 stream seed derived from (engine
// seed, id), so its random choices are independent of every other
// task's and of the thread count; ResultsDigest() folds the completed
// tasks' result digests in id order into one value that must be
// bit-identical for any --threads.

#ifndef SEP2P_ENGINE_MEMPOOL_H_
#define SEP2P_ENGINE_MEMPOOL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace sep2p::engine {

enum class TaskKind : uint8_t {
  kSelection = 0,  // full actor selection (core/selection.h)
  kDiffusion,      // targeted diffusion round (apps/diffusion.h)
  kQuery,          // distributed aggregate query (apps/query.h)
};

enum class TaskState : uint8_t {
  kPending = 0,  // submitted, waiting for the admission window
  kAdmitted,     // executing (in flight)
  kCompleted,    // protocol run finished, verdicts (so far) clean
  kFailed,       // protocol error, or a deferred verdict came back false
};

struct Task {
  uint64_t id = 0;
  TaskKind kind = TaskKind::kSelection;
  TaskState state = TaskState::kPending;
  uint32_t trigger = 0;   // issuing node (directory index)
  uint64_t seed = 0;      // per-task SplitMix64 stream seed
  uint64_t arrival_us = 0;   // virtual submission instant
  uint64_t admit_us = 0;     // virtual admission instant
  uint64_t complete_us = 0;  // virtual completion instant
  // Task-specific output folded to 64 bits (actor-list hash, query
  // value bits, target count, ...): the bit-identity probe.
  uint64_t result_digest = 0;
  int restarts = 0;  // protocol restarts consumed

  uint64_t queue_delay_us() const { return admit_us - arrival_us; }
  uint64_t latency_us() const { return complete_us - arrival_us; }
};

class TaskMempool {
 public:
  // Appends a pending task; returns its id (== submission index).
  uint64_t Submit(TaskKind kind, uint32_t trigger, uint64_t arrival_us,
                  uint64_t seed);

  // Lifecycle transitions. Admit/Complete/Fail validate the source
  // state; Fail additionally accepts kCompleted (verdict revocation).
  void Admit(uint64_t id, uint64_t admit_us);
  void Complete(uint64_t id, uint64_t complete_us, uint64_t result_digest,
                int restarts);
  void Fail(uint64_t id, uint64_t fail_us);

  const Task& task(uint64_t id) const { return tasks_[id]; }
  size_t size() const { return tasks_.size(); }
  const std::vector<Task>& tasks() const { return tasks_; }

  uint64_t submitted() const { return tasks_.size(); }
  uint64_t admitted() const { return admitted_; }
  uint64_t completed() const { return completed_; }
  uint64_t failed() const { return failed_; }
  uint64_t in_flight() const { return admitted_ - completed_ - failed_; }

  // True once every admitted task has resolved (the conservation
  // invariant the backpressure test closes over).
  bool AllResolved() const { return in_flight() == 0; }

  // Order-insensitive-by-construction identity probe: folds (id,
  // result_digest, complete_us, restarts) of every COMPLETED task in id
  // order. Two runs agree iff they completed the same tasks with the
  // same results at the same virtual instants.
  uint64_t ResultsDigest() const;

 private:
  std::vector<Task> tasks_;
  uint64_t admitted_ = 0;
  uint64_t completed_ = 0;
  uint64_t failed_ = 0;
};

}  // namespace sep2p::engine

#endif  // SEP2P_ENGINE_MEMPOOL_H_
