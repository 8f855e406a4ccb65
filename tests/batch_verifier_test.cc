// BatchVerifier: deferred verification in one batch per task on a
// worker pool (crypto/batch_verifier.h). The multi-worker tests
// exercise the queue/drain handshake under real threads, so a TSan
// build of this file checks the pool's synchronization.

#include "crypto/batch_verifier.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "crypto/ed25519_provider.h"
#include "crypto/sim_provider.h"
#include "util/rng.h"

namespace sep2p::crypto {
namespace {

struct Signed {
  PublicKey key;
  std::vector<uint8_t> msg;
  Signature sig;
};

// `count` signed messages from `signers` distinct keys; item i is
// corrupted (one flipped signature byte) iff corrupt(i).
std::vector<Signed> MakeItems(SignatureProvider& provider, int count,
                              int signers,
                              const std::function<bool(int)>& corrupt) {
  util::Rng rng(99);
  std::vector<KeyPair> pairs;
  for (int s = 0; s < signers; ++s) {
    pairs.push_back(std::move(provider.GenerateKeyPair(rng).value()));
  }
  std::vector<Signed> items;
  items.reserve(count);
  for (int i = 0; i < count; ++i) {
    const KeyPair& pair = pairs[static_cast<size_t>(i) % pairs.size()];
    Signed item;
    item.key = pair.pub;
    item.msg = {static_cast<uint8_t>(i), static_cast<uint8_t>(i >> 8), 0x5e};
    item.sig = std::move(provider.Sign(pair.priv, item.msg).value());
    if (corrupt(i)) item.sig[0] ^= 0xff;
    items.push_back(std::move(item));
  }
  return items;
}

// Bound on every wait in the thread-handoff tests below: long enough
// for any scheduler, short enough that a verifier which never hands a
// batch over fails instead of hanging.
constexpr auto kWait = std::chrono::seconds(10);

// A SimProvider that records which thread verified each batch. With
// `hold_first`, the first batch blocks until another thread starts on a
// batch, for at most kWait.
class RecordingProvider : public SimProvider {
 public:
  explicit RecordingProvider(bool hold_first) : hold_first_(hold_first) {}

  // Waits at most kWait for `count` batches to reach the provider;
  // false on timeout.
  bool WaitForBatches(size_t count) {
    std::unique_lock<std::mutex> lock(mutex_);
    return changed_.wait_for(lock, kWait,
                             [&] { return threads_.size() >= count; });
  }

  std::vector<std::thread::id> threads() {
    std::lock_guard<std::mutex> lock(mutex_);
    return threads_;
  }

 protected:
  void DoVerifyBatch(const VerifyItem* items, size_t count,
                     uint8_t* ok_out) override {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      const std::thread::id self = std::this_thread::get_id();
      threads_.push_back(self);
      changed_.notify_all();
      if (hold_first_ && threads_.size() == 1) {
        changed_.wait_for(lock, kWait, [&] {
          return std::count(threads_.begin(), threads_.end(), self) <
                 static_cast<std::ptrdiff_t>(threads_.size());
        });
      }
    }
    SimProvider::DoVerifyBatch(items, count, ok_out);
  }

 private:
  const bool hold_first_;
  std::mutex mutex_;
  std::condition_variable changed_;
  std::vector<std::thread::id> threads_;  // one entry per batch
};

TEST(BatchVerifierTest, AllValidItemsYieldNoFailedTasks) {
  // One batch per task that deferred a new triple: task t defers t + 1
  // fresh triples (t = 0..12, 91 in all), task 13 the last 9, and task
  // 14 only repeats, which coalesce and cut no batch.
  SimProvider provider;
  auto items = MakeItems(provider, 100, 7, [](int) { return false; });
  BatchVerifier::Options opt;
  opt.workers = 2;
  BatchVerifier verifier(&provider, opt);
  size_t next = 0;
  for (uint64_t task = 0; task < 14; ++task) {
    verifier.BeginTask(task);
    const size_t count = task < 13 ? task + 1 : items.size() - next;
    for (size_t i = 0; i < count; ++i, ++next) {
      verifier.Defer(items[next].key, items[next].msg, items[next].sig);
    }
  }
  verifier.BeginTask(14);
  for (int i = 0; i < 3; ++i) {
    verifier.Defer(items[i].key, items[i].msg, items[i].sig);
  }
  verifier.Drain();
  EXPECT_TRUE(verifier.failed_tasks().empty());
  EXPECT_EQ(verifier.stats().items, 103u);
  EXPECT_EQ(verifier.stats().coalesced, 3u);
  EXPECT_EQ(verifier.stats().failed_items, 0u);
  EXPECT_EQ(verifier.stats().batches, 14u);
  EXPECT_EQ(verifier.stats().max_batch, 13u);
  EXPECT_EQ(verifier.pending(), 0u);
}

TEST(BatchVerifierTest, TaskBoundaryHandsTheTaskToAWorker) {
  // Task 0's triples reach the worker when task 1 begins, while the
  // coordinator still runs task 1, not at the next Drain().
  RecordingProvider provider(/*hold_first=*/false);
  auto items = MakeItems(provider, 6, 3, [](int i) { return i == 4; });
  BatchVerifier::Options opt;
  opt.workers = 1;
  BatchVerifier verifier(&provider, opt);
  verifier.BeginTask(0);
  for (int i = 0; i < 3; ++i) {
    verifier.Defer(items[i].key, items[i].msg, items[i].sig);
  }
  verifier.BeginTask(1);
  ASSERT_TRUE(provider.WaitForBatches(1));
  EXPECT_NE(provider.threads()[0], std::this_thread::get_id());
  for (int i = 3; i < 6; ++i) {
    verifier.Defer(items[i].key, items[i].msg, items[i].sig);
  }
  verifier.Drain();
  EXPECT_EQ(verifier.failed_tasks(), (std::set<uint64_t>{1}));
  EXPECT_EQ(verifier.stats().batches, 2u);
  EXPECT_EQ(provider.threads().size(), 2u);
}

TEST(BatchVerifierTest, DrainVerifiesQueuedBatchesOnTheCaller) {
  // The only worker holds task 0's batch until another thread starts
  // on a batch, so task 1's batch is still queued when Drain() runs.
  // Drain() must verify it on the calling thread; one that only waited
  // for the worker would sit out the whole hold.
  RecordingProvider provider(/*hold_first=*/true);
  auto items = MakeItems(provider, 9, 3, [](int i) { return i == 7; });
  BatchVerifier::Options opt;
  opt.workers = 1;
  BatchVerifier verifier(&provider, opt);
  for (uint64_t task = 0; task < 3; ++task) {
    verifier.BeginTask(task);
    // Task 0's batch is with the worker before task 1's is queued.
    if (task == 1) {
      EXPECT_TRUE(provider.WaitForBatches(1));
    }
    for (size_t i = 3 * task; i < 3 * task + 3; ++i) {
      verifier.Defer(items[i].key, items[i].msg, items[i].sig);
    }
  }
  verifier.Drain();
  const std::vector<std::thread::id> threads = provider.threads();
  EXPECT_EQ(threads.size(), 3u);
  EXPECT_GE(std::count(threads.begin(), threads.end(),
                       std::this_thread::get_id()),
            1);
  EXPECT_EQ(verifier.failed_tasks(), (std::set<uint64_t>{2}));
}

TEST(BatchVerifierTest, CorruptItemsFailExactlyTheirTasks) {
  SimProvider provider;
  // Items 17 and 53 are corrupted; with 10 items per task, tasks 1 and
  // 5 must fail and no others.
  auto items = MakeItems(provider, 100, 5,
                         [](int i) { return i == 17 || i == 53; });
  BatchVerifier::Options opt;
  opt.workers = 3;
  BatchVerifier verifier(&provider, opt);
  for (int i = 0; i < 100; ++i) {
    if (i % 10 == 0) verifier.BeginTask(static_cast<uint64_t>(i / 10));
    verifier.Defer(items[i].key, items[i].msg, items[i].sig);
  }
  verifier.Drain();
  EXPECT_EQ(verifier.failed_tasks(), (std::set<uint64_t>{1, 5}));
  EXPECT_TRUE(verifier.TaskFailed(1));
  EXPECT_TRUE(verifier.TaskFailed(5));
  EXPECT_FALSE(verifier.TaskFailed(0));
  EXPECT_EQ(verifier.stats().failed_items, 2u);
}

TEST(BatchVerifierTest, VerdictsAndStatsAreWorkerCountInvariant) {
  SimProvider provider;
  auto items = MakeItems(provider, 257, 11,
                         [](int i) { return i % 41 == 0; });
  auto run = [&](int workers) {
    BatchVerifier::Options opt;
    opt.workers = workers;
    BatchVerifier verifier(&provider, opt);
    for (size_t i = 0; i < items.size(); ++i) {
      if (i % 7 == 0) verifier.BeginTask(i / 7);
      verifier.Defer(items[i].key, items[i].msg, items[i].sig);
    }
    verifier.Drain();
    return std::make_pair(verifier.failed_tasks(), verifier.stats());
  };
  // workers=0 verifies inline on the caller: the reference verdict.
  auto [ref_failed, ref_stats] = run(0);
  EXPECT_FALSE(ref_failed.empty());
  for (int workers : {1, 4, 8}) {
    auto [failed, stats] = run(workers);
    EXPECT_EQ(failed, ref_failed) << "workers=" << workers;
    EXPECT_EQ(stats.items, ref_stats.items) << "workers=" << workers;
    EXPECT_EQ(stats.batches, ref_stats.batches) << "workers=" << workers;
    EXPECT_EQ(stats.failed_items, ref_stats.failed_items)
        << "workers=" << workers;
    EXPECT_EQ(stats.max_batch, ref_stats.max_batch)
        << "workers=" << workers;
    EXPECT_EQ(stats.coalesced, ref_stats.coalesced)
        << "workers=" << workers;
  }
}

TEST(BatchVerifierTest, DuplicateTriplesCoalesceIntoOneVerification) {
  // SEP2P's duplication pattern: every party an actor list is disclosed
  // to verifies the SAME k certificates + k signatures. Here ten tasks
  // each defer the same eight triples (one corrupt): the provider must
  // see each unique triple once, and the corrupt triple must fail every
  // subscriber.
  SimProvider provider;
  auto items = MakeItems(provider, 8, 4, [](int i) { return i == 3; });
  BatchVerifier::Options opt;
  opt.workers = 2;
  BatchVerifier verifier(&provider, opt);
  const uint64_t before = provider.meter().verifies();
  for (uint64_t task = 0; task < 10; ++task) {
    verifier.BeginTask(task);
    for (const Signed& item : items) {
      verifier.Defer(item.key, item.msg, item.sig);
    }
  }
  verifier.Drain();
  EXPECT_EQ(verifier.failed_tasks().size(), 10u);
  EXPECT_EQ(verifier.stats().items, 80u);
  EXPECT_EQ(verifier.stats().coalesced, 72u);
  EXPECT_EQ(verifier.stats().failed_items, 1u);  // one unique false verdict
  EXPECT_EQ(provider.meter().verifies() - before, 8u);

  // A later drain cycle hits the verdict cache: no new provider calls,
  // and the cached false verdict still fails the new subscriber.
  verifier.BeginTask(77);
  verifier.Defer(items[3].key, items[3].msg, items[3].sig);
  verifier.Defer(items[0].key, items[0].msg, items[0].sig);
  verifier.Drain();
  EXPECT_TRUE(verifier.TaskFailed(77));
  EXPECT_EQ(provider.meter().verifies() - before, 8u);
  EXPECT_EQ(verifier.stats().coalesced, 74u);
  EXPECT_EQ(verifier.stats().failed_items, 1u);
}

TEST(BatchVerifierTest, ReusableAcrossDrainCycles) {
  SimProvider provider;
  auto items = MakeItems(provider, 40, 3, [](int i) { return i == 25; });
  BatchVerifier::Options opt;
  opt.workers = 2;
  BatchVerifier verifier(&provider, opt);
  // Cycle 1: the first 20 items, all valid.
  for (int i = 0; i < 20; ++i) {
    verifier.BeginTask(static_cast<uint64_t>(i));
    verifier.Defer(items[i].key, items[i].msg, items[i].sig);
  }
  verifier.Drain();
  EXPECT_TRUE(verifier.failed_tasks().empty());
  EXPECT_EQ(verifier.stats().items, 20u);
  // Cycle 2: the rest; item 25 is corrupt, so task 25 fails. The
  // verdict set accumulates across drains.
  for (int i = 20; i < 40; ++i) {
    verifier.BeginTask(static_cast<uint64_t>(i));
    verifier.Defer(items[i].key, items[i].msg, items[i].sig);
  }
  verifier.Drain();
  EXPECT_EQ(verifier.failed_tasks(), (std::set<uint64_t>{25}));
  EXPECT_EQ(verifier.stats().items, 40u);
}

// Both providers must agree with their own single-call Verify on every
// batch verdict — the Ed25519 batch path (key-sorted visit order,
// cached EVP_PKEY) is exactly the code the throughput bench leans on.
template <typename Provider>
class BatchVerifierProviderTest : public ::testing::Test {};
using Providers = ::testing::Types<SimProvider, Ed25519Provider>;
TYPED_TEST_SUITE(BatchVerifierProviderTest, Providers);

TYPED_TEST(BatchVerifierProviderTest, BatchVerdictsMatchSingleVerify) {
  TypeParam provider;
  auto items = MakeItems(provider, 60, 6, [](int i) { return i % 13 == 7; });
  BatchVerifier::Options opt;
  opt.workers = 2;
  BatchVerifier verifier(&provider, opt);
  std::set<uint64_t> expect_failed;
  for (size_t i = 0; i < items.size(); ++i) {
    verifier.BeginTask(i);
    verifier.Defer(items[i].key, items[i].msg, items[i].sig);
    if (!provider.Verify(items[i].key, items[i].msg, items[i].sig)) {
      expect_failed.insert(i);
    }
  }
  verifier.Drain();
  EXPECT_EQ(verifier.failed_tasks(), expect_failed);
  EXPECT_FALSE(expect_failed.empty());
  EXPECT_LT(expect_failed.size(), items.size());
}

TEST(BatchVerifierTest, ManySmallDrainsUnderContention) {
  // Stress the wake/drain handshake: tiny batches, many drains, four
  // workers. TSan finds lock-ordering or lost-wakeup bugs here.
  SimProvider provider;
  auto items = MakeItems(provider, 300, 13,
                         [](int i) { return i % 97 == 0; });
  BatchVerifier::Options opt;
  opt.workers = 4;
  BatchVerifier verifier(&provider, opt);
  std::set<uint64_t> expect_failed;
  for (size_t i = 0; i < items.size(); ++i) {
    verifier.BeginTask(i);
    if (i % 97 == 0) expect_failed.insert(i);
    verifier.Defer(items[i].key, items[i].msg, items[i].sig);
    if (i % 11 == 0) verifier.Drain();
  }
  verifier.Drain();
  EXPECT_EQ(verifier.failed_tasks(), expect_failed);
  EXPECT_EQ(verifier.stats().items, 300u);
  EXPECT_EQ(verifier.stats().failed_items, expect_failed.size());
}

}  // namespace
}  // namespace sep2p::crypto
