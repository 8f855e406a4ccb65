// BatchVerifier: deferred Ed25519/SimProvider verification coalesced
// into one batch per task and verified by a dedicated worker pool.
//
// SEP2P's cost model says signature verification dominates (every VAL
// acceptance is 2k asymmetric operations, every vrand check 2k+1), and
// the throughput engine (engine/throughput.h) keeps thousands of tasks
// in flight — so the per-message synchronous DoVerify call is exactly
// the wrong shape: it serializes the dominant cost on the coordinator
// thread and pays the per-call dispatch (EVP_PKEY import, MAC-key
// derivation) every time. The BatchVerifier restores the right shape:
//
//  * protocol code defers each (key, msg, sig) triple through the
//    crypto::VerifySink interface (core::ProtocolContext::verify_sink)
//    and optimistically continues;
//  * the verifier collects the current task's new triples in one open
//    batch; BeginTask() for the next task hands it to a shared FIFO, so
//    the workers verify task i while the coordinator executes task i+1
//    (the pipelining is where the wall-clock throughput comes from). A
//    batch still amortizes per-key setup: the provider visits its items
//    in key order (sim_provider.cc, ed25519_provider.cc);
//  * duplicate triples coalesce into ONE real verification. This is
//    where SEP2P's verification cost actually concentrates: an attested
//    actor list is verified by EVERY party it is disclosed to (2k
//    asymmetric operations each, §4 cost model), and all of them check
//    the exact same (key, msg, sig) triples. The verdict is a pure
//    function of the triple, so later subscribers reuse it — free in
//    the paper's accounting (SHA-256) instead of 2k asymmetric ops;
//  * Drain() verifies still-queued batches on the calling thread beside
//    the workers, waits for the ones they hold, then exposes per-task
//    verdicts: a task fails iff any of its deferred items failed.
//
// Determinism contract. Exactly one coordinator thread calls
// BeginTask/Defer/Drain. Batch composition is decided entirely on the
// coordinator side (one batch per task that deferred a new triple, in
// arrival order), so the batch count, item count and max batch size
// are independent of the worker count and of which thread verifies a
// batch; verdicts are pure functions of the items and fold into the
// failed-task set with a commutative OR — results and stats are
// bit-identical for any `workers`.

#ifndef SEP2P_CRYPTO_BATCH_VERIFIER_H_
#define SEP2P_CRYPTO_BATCH_VERIFIER_H_

#include <array>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <set>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "crypto/signature_provider.h"

namespace sep2p::crypto {

class BatchVerifier : public VerifySink {
 public:
  struct Options {
    // Dedicated worker threads verifying dispatched batches; 0 workers
    // means Drain() verifies everything inline on the coordinator
    // (degenerate single-threaded mode, sanitizer-friendly).
    int workers = 1;
  };

  struct Stats {
    uint64_t items = 0;          // triples deferred
    uint64_t coalesced = 0;      // duplicates folded into another verdict
    uint64_t batches = 0;        // one per task with a new triple
    uint64_t failed_items = 0;   // unique verdicts that came back false
    uint64_t max_batch = 0;      // largest batch dispatched
  };

  BatchVerifier(SignatureProvider* provider, const Options& options);
  ~BatchVerifier() override;

  BatchVerifier(const BatchVerifier&) = delete;
  BatchVerifier& operator=(const BatchVerifier&) = delete;

  // Dispatches the previous task's batch; subsequent Defer() calls
  // charge their verdicts to `task_id`. Coordinator thread only.
  void BeginTask(uint64_t task_id) {
    Dispatch();
    current_task_ = task_id;
  }

  // Enqueues one verification for the current task. Coordinator thread
  // only.
  void Defer(const PublicKey& key, const std::vector<uint8_t>& msg,
             const Signature& sig) override;

  // Dispatches the open batch, verifies queued batches on the calling
  // thread and blocks until all verdicts are folded. After Drain()
  // returns, TaskFailed() is valid for every task deferred so far.
  // Coordinator thread only.
  void Drain();

  // True iff any deferred item of `task_id` verified false. Valid after
  // Drain().
  bool TaskFailed(uint64_t task_id) const {
    return failed_tasks_.count(task_id) > 0;
  }
  const std::set<uint64_t>& failed_tasks() const { return failed_tasks_; }

  size_t pending() const { return pending_items_; }
  const Stats& stats() const { return stats_; }
  int workers() const { return static_cast<int>(threads_.size()); }

 private:
  // Identity of one (key, msg, sig) triple: SHA-256 over the three
  // fields. Two equal digests get one verification and share the
  // verdict.
  using TripleId = std::array<uint8_t, 32>;
  struct TripleIdHash {
    size_t operator()(const TripleId& id) const {
      size_t v = 0;
      for (size_t i = 0; i < sizeof(size_t); ++i) {
        v |= static_cast<size_t>(id[i]) << (8 * i);
      }
      return v;
    }
  };

  struct Batch {
    std::vector<VerifyItem> items;
    std::vector<TripleId> ids;  // items[i] is triple ids[i]
  };

  // Moves the open batch, if it holds anything, onto queue_.
  void Dispatch();
  void WorkerLoop();
  // Pops the front of queue_ and verifies it with `lock` released, then
  // appends its (triple, verdict) pairs to resolved_ (commutative fold:
  // verdicts are pure functions of the triple, so the thread and order
  // never matter). Called with `lock` held on mutex_ and a non-empty
  // queue_; returns with it held.
  void VerifyFront(std::unique_lock<std::mutex>& lock);

  SignatureProvider* provider_;
  uint64_t current_task_ = 0;

  // Coordinator-side state. No locking: only the coordinator touches it.
  Batch open_;  // the current task's new triples
  // Triples in flight this cycle -> tasks awaiting their verdict.
  std::unordered_map<TripleId, std::vector<uint64_t>, TripleIdHash> waiting_;
  // Resolved verdicts from earlier drains (and duplicate hits within a
  // cycle): the coalescing cache.
  std::unordered_map<TripleId, bool, TripleIdHash> verdicts_;
  size_t pending_items_ = 0;
  Stats stats_;
  std::set<uint64_t> failed_tasks_;

  // Shared with the workers, guarded by mutex_.
  std::mutex mutex_;
  std::condition_variable wake_;   // workers: a batch is queued / stop
  std::condition_variable drain_;  // coordinator: nothing in flight
  std::deque<Batch> queue_;        // dispatched, not yet picked up
  size_t in_flight_ = 0;           // picked up, verdicts not yet folded
  bool stop_ = false;
  // Verdicts produced since the last Drain() fold.
  std::vector<std::pair<TripleId, bool>> resolved_;
  std::vector<std::thread> threads_;
};

}  // namespace sep2p::crypto

#endif  // SEP2P_CRYPTO_BATCH_VERIFIER_H_
