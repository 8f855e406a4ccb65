#include "crypto/batch_verifier.h"

#include <algorithm>
#include <utility>

#include "crypto/sha256.h"

namespace sep2p::crypto {

BatchVerifier::BatchVerifier(SignatureProvider* provider,
                             const Options& options)
    : provider_(provider) {
  const int workers = std::max(options.workers, 0);
  threads_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

BatchVerifier::~BatchVerifier() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (auto& t : threads_) t.join();
}

void BatchVerifier::Defer(const PublicKey& key,
                          const std::vector<uint8_t>& msg,
                          const Signature& sig) {
  ++pending_items_;
  // Identify the triple. The msg length is hashed too so (msg, sig)
  // concatenation boundaries can't alias across different splits; the
  // id never leaves this process, so the length goes in host byte order.
  Sha256 hasher;
  hasher.Update(key.data(), key.size());
  const uint64_t msg_len = msg.size();
  hasher.Update(reinterpret_cast<const uint8_t*>(&msg_len), sizeof(msg_len));
  hasher.Update(msg.data(), msg.size());
  hasher.Update(sig.data(), sig.size());
  const TripleId id = hasher.Finish();

  // Resolved in an earlier drain cycle: reuse the verdict outright.
  auto verdict = verdicts_.find(id);
  if (verdict != verdicts_.end()) {
    ++stats_.coalesced;
    if (!verdict->second) failed_tasks_.insert(current_task_);
    return;
  }
  // Already in flight this cycle: subscribe to its verdict.
  auto [waiter, inserted] = waiting_.try_emplace(id);
  waiter->second.push_back(current_task_);
  if (!inserted) {
    ++stats_.coalesced;
    return;
  }

  open_.items.push_back(VerifyItem{key, msg, sig});
  open_.ids.push_back(id);
}

void BatchVerifier::Dispatch() {
  if (open_.items.empty()) return;
  ++stats_.batches;
  stats_.max_batch = std::max<uint64_t>(stats_.max_batch, open_.items.size());
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::exchange(open_, Batch()));
  }
  wake_.notify_one();
}

void BatchVerifier::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    wake_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stop_ set and nothing left to do
    VerifyFront(lock);
  }
}

void BatchVerifier::VerifyFront(std::unique_lock<std::mutex>& lock) {
  Batch batch = std::move(queue_.front());
  queue_.pop_front();
  ++in_flight_;
  lock.unlock();
  std::vector<uint8_t> ok(batch.items.size());
  provider_->VerifyBatch(batch.items.data(), batch.items.size(), ok.data());
  lock.lock();
  for (size_t i = 0; i < ok.size(); ++i) {
    resolved_.emplace_back(batch.ids[i], ok[i] != 0);
  }
  if (--in_flight_ == 0) drain_.notify_one();
}

void BatchVerifier::Drain() {
  Dispatch();
  {
    // Batches nobody has picked up yet are verified here, beside the
    // workers, instead of waiting for a worker to get to them.
    std::unique_lock<std::mutex> lock(mutex_);
    while (!queue_.empty()) VerifyFront(lock);
    drain_.wait(lock, [this] { return in_flight_ == 0; });
    // Fold the verdicts into the deterministic view. resolved_ arrives
    // in completion order on whichever thread verified each batch
    // (nondeterministic), but each unique triple resolves exactly once
    // ever, verdicts_ insertion is keyed, and the failure fold below is
    // a set insert plus a count of unique false verdicts — all
    // order-independent, bit-identical for any worker count.
    for (auto& [id, ok] : resolved_) verdicts_.emplace(id, ok);
    resolved_.clear();
  }
  for (auto& [id, tasks] : waiting_) {
    if (verdicts_.at(id)) continue;
    ++stats_.failed_items;
    for (uint64_t task : tasks) failed_tasks_.insert(task);
  }
  waiting_.clear();
  stats_.items += pending_items_;
  pending_items_ = 0;
}

}  // namespace sep2p::crypto
