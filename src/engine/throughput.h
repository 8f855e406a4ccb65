// ThroughputEngine: concurrent-task execution over one simulated transport
// (net::SimNetwork).
//
// The figures so far measure one protocol run at a time. A deployed
// SEP2P network does not: triggers fire everywhere, so thousands of
// selections, diffusions and queries are in flight concurrently and
// the interesting quantity becomes sustained tasks/second — the
// saturation curve bench/throughput_saturation.cc draws. The engine
// provides the machinery:
//
//  * a TaskMempool (engine/mempool.h) holding the offered workload,
//    each task with a deterministic arrival time and its own RNG
//    stream;
//  * admission control with backpressure: at most `window` tasks
//    occupy the virtual timeline at once. Admission is a G/G/W queue
//    on virtual time — task i is admitted at max(arrival_i, earliest
//    in-flight completion) once the window is full — so offered load
//    beyond capacity turns into queue delay, never into drops;
//  * concurrency on the virtual clock: the coordinator executes
//    admitted tasks serially in admission order (a SimNetwork is
//    single-threaded by contract), but each task's execution is placed
//    at its own admission instant via SimNetwork::SetVirtualTime — the
//    same virtual-parallel shape CallBatch gives the calls of one wave;
//  * batched deferred verification: in kBatched mode the engine
//    installs a crypto::BatchVerifier as the world's verify sink, so
//    every certificate/signature check any task performs is coalesced
//    into one batch per task, verified by dedicated worker threads
//    WHILE the coordinator executes further tasks. Verdicts are folded
//    back at drain points, where the coordinator verifies what the
//    workers have not reached: a task with a false verdict is
//    retroactively failed (TaskMempool's completed->failed edge).
//    kNaive mode keeps the synchronous per-message verify — the
//    baseline the saturation bench compares against.
//
// Determinism contract. Task ids, arrivals, admission instants, RNG
// streams, batch composition and verdicts are all pure functions of
// (options, workload) — never of the worker count or wall-clock
// timing. Report::results_digest and every virtual-time statistic are
// bit-identical across --threads; only the wall-clock rates change.

#ifndef SEP2P_ENGINE_THROUGHPUT_H_
#define SEP2P_ENGINE_THROUGHPUT_H_

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "apps/diffusion.h"
#include "apps/query.h"
#include "crypto/batch_verifier.h"
#include "engine/mempool.h"
#include "net/sim_network.h"
#include "node/app_runtime.h"
#include "obs/metrics.h"
#include "sim/network.h"
#include "util/rng.h"
#include "util/status.h"

namespace sep2p::engine {

class ThroughputEngine {
 public:
  enum class VerifyMode {
    kNaive,    // synchronous per-message verification (baseline)
    kBatched,  // deferred, coalesced, verified on the worker pool
  };

  struct Options {
    VerifyMode verify_mode = VerifyMode::kBatched;
    // Verifier worker threads (kBatched only). 0 = verify inline at
    // each drain (single-threaded batched mode: still amortizes per-key
    // setup, no pipelining).
    int workers = 1;
    // Admission window: max tasks in flight on the virtual timeline.
    int window = 64;
    // Virtual inter-arrival gap of the offered load (us). Smaller gap =
    // higher offered rate; the saturation bench sweeps this.
    uint64_t arrival_gap_us = 2'000;
    // Tasks between verdict drains (kBatched). Also the upper bound on
    // how long a wrong optimistic completion can survive.
    int resolve_every = 32;
    // Base seed; task t draws from Rng(StreamSeed(mix(seed), t)).
    uint64_t seed = 42;
  };

  // Aggregate outcome of one Run(). Virtual-time fields and the digest
  // are bit-identical across thread counts; wall_seconds (and the rates
  // derived from it) is the measured quantity.
  struct Report {
    uint64_t submitted = 0;
    uint64_t admitted = 0;
    uint64_t completed = 0;
    uint64_t failed = 0;
    uint64_t virtual_makespan_us = 0;  // last completion - first arrival
    // Exact (not bucketed) percentiles over resolved tasks.
    uint64_t p50_task_latency_us = 0;
    uint64_t p99_task_latency_us = 0;
    uint64_t p50_queue_delay_us = 0;
    uint64_t p99_queue_delay_us = 0;
    double offered_per_virtual_sec = 0;    // workload rate
    double completed_per_virtual_sec = 0;  // virtual-time throughput
    double wall_seconds = 0;
    double completed_per_wall_sec = 0;  // the saturation metric
    uint64_t crypto_verifies = 0;  // provider meter delta over the run
    uint64_t crypto_signs = 0;
    double crypto_ops_per_wall_sec = 0;
    crypto::BatchVerifier::Stats verify_stats;  // zeros in kNaive
    uint64_t results_digest = 0;  // TaskMempool::ResultsDigest()
  };

  // `world`, `net` and `runtime` must outlive the engine; the engine
  // installs (and on destruction removes) the world's verify sink in
  // kBatched mode. One engine per (world, net) — the engine owns the
  // virtual timeline.
  ThroughputEngine(sim::Network* world, net::SimNetwork* net,
                   node::AppRuntime* runtime, const Options& options);
  ~ThroughputEngine();

  ThroughputEngine(const ThroughputEngine&) = delete;
  ThroughputEngine& operator=(const ThroughputEngine&) = delete;

  // Optional app endpoints for kDiffusion / kQuery tasks (the apps and
  // their PDMS/index state must outlive the engine). Tasks of a kind
  // with no app installed fail at execution.
  void set_diffusion(apps::DiffusionApp* app, std::string expression,
                     std::string message) {
    diffusion_ = app;
    diffusion_expression_ = std::move(expression);
    diffusion_message_ = std::move(message);
  }
  void set_query(apps::QueryApp* app, apps::QuerySpec spec) {
    query_ = app;
    query_spec_ = std::move(spec);
  }

  // Optional metrics registry: task lifecycle counters, queue-delay and
  // latency histograms, verify-batch counters. Passive as always.
  void set_metrics(obs::MetricsRegistry* metrics) { metrics_ = metrics; }

  // Appends one pending task; arrival times must be non-decreasing
  // (Submit asserts submission order == arrival order).
  uint64_t Submit(TaskKind kind, uint32_t trigger, uint64_t arrival_us);

  // Submits `count` tasks with arrivals i * arrival_gap_us, kinds woven
  // deterministically from `mix` (e.g. {kSelection, kSelection,
  // kDiffusion} repeats 2:1), triggers drawn per task from its stream.
  void SubmitWorkload(int count, const std::vector<TaskKind>& mix);

  // Executes every pending task to resolution (all verdicts folded).
  // Callable once per engine.
  Result<Report> Run();

  const TaskMempool& mempool() const { return mempool_; }
  const Options& options() const { return options_; }
  crypto::BatchVerifier* verifier() { return verifier_.get(); }

 private:
  // Runs one admitted task at the current virtual time; returns its
  // 64-bit result digest via `digest` (task-kind specific fold).
  Status Execute(const Task& task, util::Rng& rng, uint64_t* digest,
                 int* restarts);
  // Drains the verifier and retroactively fails tasks with false
  // verdicts (kBatched; no-op in kNaive).
  void ResolveVerdicts();

  sim::Network* world_;
  net::SimNetwork* net_;
  node::AppRuntime* runtime_;
  Options options_;
  TaskMempool mempool_;
  std::unique_ptr<crypto::BatchVerifier> verifier_;
  std::set<uint64_t> verdict_failed_;  // already folded into the mempool
  obs::MetricsRegistry* metrics_ = nullptr;
  apps::DiffusionApp* diffusion_ = nullptr;
  std::string diffusion_expression_;
  std::string diffusion_message_;
  apps::QueryApp* query_ = nullptr;
  apps::QuerySpec query_spec_;
  uint64_t task_seed_base_ = 0;
  bool ran_ = false;
};

}  // namespace sep2p::engine

#endif  // SEP2P_ENGINE_THROUGHPUT_H_
