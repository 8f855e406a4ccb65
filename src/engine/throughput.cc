#include "engine/throughput.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstring>
#include <functional>
#include <queue>

#include "core/selection.h"
#include "sim/trial_runner.h"

namespace sep2p::engine {

namespace {

// Restart budget per selection task (fresh RND_T on kUnavailable).
constexpr int kMaxSelectionAttempts = 8;

// Folds one word into a digest: a SplitMix64 step from digest ^ word
// (the mempool's digest fold).
uint64_t Fold(uint64_t digest, uint64_t word) {
  uint64_t state = digest ^ word;
  return util::SplitMix64(state);
}

uint64_t FoldBytes(uint64_t digest, const uint8_t* data, size_t len) {
  uint64_t word = 0;
  size_t filled = 0;
  for (size_t i = 0; i < len; ++i) {
    word |= static_cast<uint64_t>(data[i]) << (8 * filled);
    if (++filled == 8) {
      digest = Fold(digest, word);
      word = 0;
      filled = 0;
    }
  }
  if (filled > 0) digest = Fold(digest, word ^ (uint64_t{filled} << 56));
  return digest;
}

// The p-quantile (p in [0, 1]) of an unsorted sample (consumed): the
// element at index round(p * (n - 1)) of the sorted sample, selected
// without a full sort. This rounds the interpolation index rather than
// taking the nearest rank, ceil(p * n) - 1; the perfbench task_mix
// latencies (op_p50_us, op_p99_us) are defined by it.
uint64_t Percentile(std::vector<uint64_t>& sample, double p) {
  if (sample.empty()) return 0;
  const size_t rank = static_cast<size_t>(
      p * static_cast<double>(sample.size() - 1) + 0.5);
  std::nth_element(sample.begin(),
                   sample.begin() + static_cast<ptrdiff_t>(rank),
                   sample.end());
  return sample[rank];
}

}  // namespace

ThroughputEngine::ThroughputEngine(sim::Network* world,
                                   net::SimNetwork* net,
                                   node::AppRuntime* runtime,
                                   const Options& options)
    : world_(world), net_(net), runtime_(runtime), options_(options) {
  if (options_.window < 1) options_.window = 1;
  if (options_.resolve_every < 1) options_.resolve_every = 1;
  // 'thrpt' salt: engine task streams never collide with trial streams
  // built from the same Parameters::seed.
  task_seed_base_ = sim::MixSeed(options_.seed, 0x746872707464ULL);
  if (options_.verify_mode == VerifyMode::kBatched) {
    // One batch per task, cut at BeginTask on this thread, keeps batch
    // composition, and every stat derived from it, independent of
    // `workers`.
    crypto::BatchVerifier::Options vo;
    vo.workers = options_.workers;
    verifier_ =
        std::make_unique<crypto::BatchVerifier>(&world_->provider(), vo);
    world_->set_verify_sink(verifier_.get());
  }
}

ThroughputEngine::~ThroughputEngine() {
  if (verifier_ != nullptr && world_->verify_sink() == verifier_.get()) {
    world_->set_verify_sink(nullptr);
  }
}

uint64_t ThroughputEngine::Submit(TaskKind kind, uint32_t trigger,
                                  uint64_t arrival_us) {
  assert(mempool_.size() == 0 ||
         arrival_us >= mempool_.task(mempool_.size() - 1).arrival_us);
  const uint64_t id = mempool_.Submit(
      kind, trigger, arrival_us,
      sim::StreamSeed(task_seed_base_, mempool_.size()));
  if (metrics_ != nullptr) metrics_->Inc(obs::Counter::kTasksSubmitted);
  return id;
}

void ThroughputEngine::SubmitWorkload(int count,
                                      const std::vector<TaskKind>& mix) {
  const uint32_t nodes = static_cast<uint32_t>(world_->directory().size());
  for (int i = 0; i < count; ++i) {
    const TaskKind kind =
        mix.empty() ? TaskKind::kSelection
                    : mix[static_cast<size_t>(i) % mix.size()];
    // The trigger draw uses sub-stream 0 of the task's seed; Execute
    // uses sub-stream 1 — disjoint by construction.
    util::Rng pick(sim::StreamSeed(
        sim::StreamSeed(task_seed_base_, static_cast<uint64_t>(i)), 0));
    const uint32_t trigger = static_cast<uint32_t>(pick.NextUint64(nodes));
    Submit(kind, trigger,
           static_cast<uint64_t>(i) * options_.arrival_gap_us);
  }
}

Status ThroughputEngine::Execute(const Task& task, util::Rng& rng,
                                 uint64_t* digest, int* restarts) {
  uint64_t d = Fold(task.id, 0x53455032ULL);  // "SEP2"
  switch (task.kind) {
    case TaskKind::kSelection: {
      core::ProtocolContext ctx = world_->context();
      Result<core::SelectionProtocol::Outcome> outcome =
          runtime_->RunSelection(ctx, task.trigger, rng,
                                 kMaxSelectionAttempts, restarts);
      if (!outcome.ok()) return outcome.status();
      for (const crypto::PublicKey& key : outcome->val.actor_keys) {
        d = FoldBytes(d, key.data(), key.size());
      }
      d = Fold(d, outcome->setter_index);
      d = Fold(d, static_cast<uint64_t>(outcome->relocations));
      break;
    }
    case TaskKind::kDiffusion: {
      if (diffusion_ == nullptr) {
        return Status::InvalidArgument(
            "engine: diffusion task without a diffusion app");
      }
      Result<apps::DiffusionApp::DiffusionResult> result =
          diffusion_->Diffuse(task.trigger, diffusion_expression_,
                              diffusion_message_, rng);
      if (!result.ok()) return result.status();
      for (uint32_t t : result->targets) d = Fold(d, t);
      for (uint32_t t : result->target_finders) d = Fold(d, t);
      *restarts = result->selection_restarts;
      break;
    }
    case TaskKind::kQuery: {
      if (query_ == nullptr) {
        return Status::InvalidArgument(
            "engine: query task without a query app");
      }
      Result<apps::QueryApp::QueryResult> result =
          query_->Execute(task.trigger, query_spec_, rng);
      if (!result.ok()) return result.status();
      uint64_t value_bits = 0;
      static_assert(sizeof(value_bits) == sizeof(result->value));
      std::memcpy(&value_bits, &result->value, sizeof(value_bits));
      d = Fold(d, value_bits);
      d = Fold(d, result->contributors);
      d = Fold(d, result->answer_delivered ? 1 : 0);
      *restarts =
          result->selection_restarts + result->target_finding_restarts;
      break;
    }
  }
  *digest = d;
  return Status::Ok();
}

void ThroughputEngine::ResolveVerdicts() {
  if (verifier_ == nullptr) return;
  verifier_->Drain();
  for (uint64_t id : verifier_->failed_tasks()) {
    if (!verdict_failed_.insert(id).second) continue;  // already folded
    const Task& t = mempool_.task(id);
    if (t.state == TaskState::kFailed) continue;  // failed at protocol level
    mempool_.Fail(id, t.complete_us);
  }
}

Result<ThroughputEngine::Report> ThroughputEngine::Run() {
  if (ran_) return Status::FailedPrecondition("engine: Run() is one-shot");
  ran_ = true;

  const crypto::CryptoMeter& meter = world_->provider().meter();
  const uint64_t verifies_before = meter.verifies();
  const uint64_t signs_before = meter.signs();
  const auto wall_start = std::chrono::steady_clock::now();

  // Completion instants of the tasks occupying the admission window.
  std::priority_queue<uint64_t, std::vector<uint64_t>,
                      std::greater<uint64_t>>
      window;
  int since_resolve = 0;
  for (uint64_t id = 0; id < mempool_.size(); ++id) {
    const Task& t = mempool_.task(id);
    // Backpressure: with the window full, the task waits for the
    // earliest in-flight completion. Admission instants are monotone:
    // every completion pushed below is >= its task's admission instant,
    // which is >= every earlier pop.
    uint64_t admit_us = t.arrival_us;
    if (window.size() >= static_cast<size_t>(options_.window)) {
      admit_us = std::max(admit_us, window.top());
      window.pop();
    }
    mempool_.Admit(id, admit_us);
    if (metrics_ != nullptr) {
      metrics_->Inc(obs::Counter::kTasksAdmitted);
      metrics_->Observe(obs::Hist::kTaskQueueDelayUs,
                        admit_us - t.arrival_us);
    }

    net_->SetVirtualTime(admit_us);
    if (verifier_ != nullptr) verifier_->BeginTask(id);
    util::Rng rng(sim::StreamSeed(t.seed, 1));
    uint64_t digest = 0;
    int restarts = 0;
    const Status status = Execute(t, rng, &digest, &restarts);
    const uint64_t complete_us = net_->now_us();
    if (status.ok()) {
      mempool_.Complete(id, complete_us, digest, restarts);
      if (metrics_ != nullptr) {
        // Observed at optimistic completion; a later false verdict
        // fails the task but the latency sample (deterministic for any
        // worker count) stays.
        metrics_->Observe(obs::Hist::kTaskLatencyUs,
                          complete_us - t.arrival_us);
      }
    } else {
      mempool_.Fail(id, complete_us);
    }
    window.push(complete_us);

    if (++since_resolve >= options_.resolve_every) {
      ResolveVerdicts();
      since_resolve = 0;
    }
  }
  ResolveVerdicts();
  const auto wall_end = std::chrono::steady_clock::now();
  assert(mempool_.AllResolved());

  Report report;
  report.submitted = mempool_.submitted();
  report.admitted = mempool_.admitted();
  report.completed = mempool_.completed();
  report.failed = mempool_.failed();
  report.results_digest = mempool_.ResultsDigest();
  if (verifier_ != nullptr) report.verify_stats = verifier_->stats();
  report.crypto_verifies = meter.verifies() - verifies_before;
  report.crypto_signs = meter.signs() - signs_before;

  uint64_t first_arrival = UINT64_MAX;
  uint64_t last_arrival = 0;
  uint64_t last_complete = 0;
  std::vector<uint64_t> latencies;
  std::vector<uint64_t> delays;
  latencies.reserve(mempool_.size());
  delays.reserve(mempool_.size());
  for (const Task& t : mempool_.tasks()) {
    first_arrival = std::min(first_arrival, t.arrival_us);
    last_arrival = std::max(last_arrival, t.arrival_us);
    last_complete = std::max(last_complete, t.complete_us);
    delays.push_back(t.queue_delay_us());
    if (t.state == TaskState::kCompleted) {
      latencies.push_back(t.latency_us());
    }
  }
  if (mempool_.size() > 0) {
    report.virtual_makespan_us = last_complete - first_arrival;
  }
  report.p50_task_latency_us = Percentile(latencies, 0.50);
  report.p99_task_latency_us = Percentile(latencies, 0.99);
  report.p50_queue_delay_us = Percentile(delays, 0.50);
  report.p99_queue_delay_us = Percentile(delays, 0.99);

  const double virtual_secs =
      static_cast<double>(report.virtual_makespan_us) / 1e6;
  const double offered_secs =
      static_cast<double>(last_arrival - first_arrival) / 1e6;
  if (offered_secs > 0) {
    report.offered_per_virtual_sec =
        static_cast<double>(report.submitted) / offered_secs;
  }
  if (virtual_secs > 0) {
    report.completed_per_virtual_sec =
        static_cast<double>(report.completed) / virtual_secs;
  }
  report.wall_seconds =
      std::chrono::duration<double>(wall_end - wall_start).count();
  if (report.wall_seconds > 0) {
    report.completed_per_wall_sec =
        static_cast<double>(report.completed) / report.wall_seconds;
    report.crypto_ops_per_wall_sec =
        static_cast<double>(report.crypto_verifies + report.crypto_signs) /
        report.wall_seconds;
  }

  if (metrics_ != nullptr) {
    metrics_->Inc(obs::Counter::kTasksCompleted, report.completed);
    metrics_->Inc(obs::Counter::kTasksFailed, report.failed);
    if (verifier_ != nullptr) {
      metrics_->Inc(obs::Counter::kVerifyBatches,
                    report.verify_stats.batches);
      metrics_->Inc(obs::Counter::kVerifyBatchItems,
                    report.verify_stats.items);
    }
  }
  return report;
}

}  // namespace sep2p::engine
