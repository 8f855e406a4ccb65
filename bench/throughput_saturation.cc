// Concurrent-task saturation curves: offered vs completed tasks/sec,
// task latency percentiles, and crypto-ops/sec, for the naive
// (synchronous per-message verification) baseline against the batched
// verifier, one batch per task on a worker pool — the throughput
// engine's raison d'etre.
//
// The engine keeps `window` selections/queries/diffusions in flight
// over one SimNetwork; the sweep lowers the virtual inter-arrival gap
// until offered load exceeds capacity and the queue-delay knee appears.
// Virtual-time results (digest, latencies, completion counts) are
// bit-identical between the two modes and across worker counts — only
// the wall-clock rates differ. The headline speedup is the ratio of the
// two modes' median wall tasks/s over the saturated rows (gap at or
// below the queue-delay knee; the smallest gap when no knee shows), so
// no single noisy pair of runs sets it. The batched mode's edge on this
// workload is verdict coalescing: every party a VAL is disclosed to
// verifies the same 2k triples, and the verifier resolves each unique
// triple once (crypto/batch_verifier.h).
//
// Emits BENCH_throughput.json (BENCH_throughput.quick.json under
// --quick) next to the text table. Exit status is nonzero if the
// naive/batched digests diverge (determinism breach).

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apps/concept_index.h"
#include "apps/diffusion.h"
#include "apps/query.h"
#include "bench/bench_common.h"
#include "engine/throughput.h"
#include "net/sim_network.h"
#include "node/app_runtime.h"
#include "node/pdms_node.h"
#include "obs/export.h"
#include "sim/network.h"

namespace {

using namespace sep2p;
using engine::ThroughputEngine;

struct Row {
  const char* mode;
  uint64_t gap_us;
  ThroughputEngine::Report r;
};

ThroughputEngine::Report RunOnce(const sim::Parameters& params,
                                 ThroughputEngine::VerifyMode mode,
                                 int workers, uint64_t gap_us, int tasks) {
  // Fresh world per run: engine runs mutate caches, rate limiters and
  // the virtual clock, and identical seeds must mean identical runs.
  auto network = sim::Network::Build(params);
  if (!network.ok()) {
    std::fprintf(stderr, "network build failed: %s\n",
                 network.status().ToString().c_str());
    std::exit(1);
  }
  net::LinkModel link;
  link.jitter_mean_us = 0;
  link.drop_probability = 0.0;
  net::SimNetwork simnet(static_cast<uint32_t>(params.n), link,
                         net::RetryPolicy{}, /*seed=*/7);
  node::AppRuntime runtime(&simnet);

  // The tentpole workload: selections, queries and diffusions over one
  // PDMS fleet. Queries and diffusions disclose the VAL to many
  // parties, each of which verifies the same 2k triples — the
  // duplication the batched verifier coalesces.
  std::vector<node::PdmsNode> pdms;
  pdms.reserve(params.n);
  for (uint32_t i = 0; i < static_cast<uint32_t>(params.n); ++i) {
    pdms.emplace_back(i);
    if (i % 4 == 0) pdms.back().AddConcept("pilot");
    pdms.back().SetAttribute("hours", i % 50);
  }
  apps::ConceptIndex index(network.value().get(), &runtime);
  apps::DiffusionApp diffusion(network.value().get(), &pdms, &index,
                               &runtime);
  util::Rng publish_rng(5);
  Status published = diffusion.PublishAllProfiles(publish_rng).status();
  if (!published.ok()) {
    std::fprintf(stderr, "profile publish failed: %s\n",
                 published.ToString().c_str());
    std::exit(1);
  }
  apps::QueryApp query(network.value().get(), &pdms, &index, &runtime);
  apps::QuerySpec spec;
  spec.profile_expression = "pilot";
  spec.attribute = "hours";
  spec.aggregate = apps::Aggregate::kAvg;

  ThroughputEngine::Options options;
  options.verify_mode = mode;
  options.workers = workers;
  options.arrival_gap_us = gap_us;
  options.window = 64;
  ThroughputEngine eng(network.value().get(), &simnet, &runtime, options);
  eng.set_diffusion(&diffusion, "pilot", "notice");
  eng.set_query(&query, spec);
  eng.SubmitWorkload(tasks,
                     {engine::TaskKind::kSelection, engine::TaskKind::kQuery,
                      engine::TaskKind::kSelection,
                      engine::TaskKind::kDiffusion});
  auto report = eng.Run();
  if (!report.ok()) {
    std::fprintf(stderr, "engine run failed: %s\n",
                 report.status().ToString().c_str());
    std::exit(1);
  }
  return report.value();
}

std::string Json(const std::vector<Row>& rows, int workers,
                 double speedup_at_saturation, uint64_t knee_gap_us) {
  std::string out = "{\n  \"bench\": \"throughput_saturation\",\n";
  out += "  \"workers\": " + std::to_string(workers) + ",\n";
  out += "  \"knee_gap_us\": " + std::to_string(knee_gap_us) + ",\n";
  out += "  \"speedup_at_saturation\": " +
         bench::Num(speedup_at_saturation) + ",\n";
  out += "  \"rows\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const ThroughputEngine::Report& r = rows[i].r;
    char buf[640];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"mode\": \"%s\", \"gap_us\": %" PRIu64
        ", \"offered_per_sec\": %.1f, \"completed_per_virtual_sec\": %.1f, "
        "\"completed\": %" PRIu64 ", \"failed\": %" PRIu64
        ", \"p50_latency_us\": %" PRIu64 ", \"p99_latency_us\": %" PRIu64
        ", \"p99_queue_delay_us\": %" PRIu64
        ", \"wall_tasks_per_sec\": %.1f, \"crypto_ops_per_sec\": %.0f, "
        "\"verify_batches\": %" PRIu64 ", \"verify_coalesced\": %" PRIu64
        ", \"results_digest\": \"%016" PRIx64 "\"}%s\n",
        rows[i].mode, rows[i].gap_us, r.offered_per_virtual_sec,
        r.completed_per_virtual_sec, r.completed, r.failed,
        r.p50_task_latency_us, r.p99_task_latency_us, r.p99_queue_delay_us,
        r.completed_per_wall_sec, r.crypto_ops_per_wall_sec,
        r.verify_stats.batches, r.verify_stats.coalesced, r.results_digest,
        i + 1 < rows.size() ? "," : "");
    out += buf;
  }
  out += "  ]\n}\n";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = bench::QuickMode(argc, argv);
  int workers = bench::ThreadsArg(argc, argv);
  bench::RejectUnknownFlags(argc, argv);
  if (workers <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    workers = hw > 1 ? static_cast<int>(hw > 8 ? 8 : hw - 1) : 1;
  }

  sim::Parameters params;
  params.n = quick ? 300 : 800;
  params.cache_size = quick ? 64 : 128;
  params.actor_count = 8;
  params.seed = 42;
  // Real Ed25519: the asymmetric-operation cost the paper counts is
  // what the worker pool has to beat.
  params.provider = sim::Parameters::ProviderKind::kEd25519;
  // More tasks than the window (64): the window must fill for the
  // backpressure knee to show up in the queue-delay percentiles.
  const int tasks = quick ? 96 : 192;
  bench::PrintHeader(
      "throughput saturation: task mempool + per-task batched verification",
      "batched deferred verification sustains >= 2x tasks/sec at "
      "saturation vs per-message verification at equal thread count",
      params);
  std::printf("workers=%d tasks=%d window=64 "
              "(selection/query/diffusion mix)\n\n",
              workers, tasks);

  const std::vector<uint64_t> gaps =
      quick ? std::vector<uint64_t>{20'000, 2'000, 200}
            : std::vector<uint64_t>{50'000, 20'000, 5'000, 2'000, 500, 200};

  std::printf(
      "%-8s %9s %12s %14s %12s %12s %13s %14s %13s\n", "mode", "gap_us",
      "offered/s", "completed/s", "p50_lat_ms", "p99_lat_ms", "p99_qdly_ms",
      "wall_tasks/s", "crypto_ops/s");
  std::vector<Row> rows;
  bool digests_agree = true;
  uint64_t knee_gap_us = 0;
  for (uint64_t gap : gaps) {
    ThroughputEngine::Report naive =
        RunOnce(params, ThroughputEngine::VerifyMode::kNaive, 0, gap, tasks);
    ThroughputEngine::Report batched = RunOnce(
        params, ThroughputEngine::VerifyMode::kBatched, workers, gap, tasks);
    auto emit = [&](const char* mode, const ThroughputEngine::Report& r) {
      std::printf("%-8s %9" PRIu64 " %12.1f %14.1f %12.2f %12.2f %13.2f "
                  "%14.1f %13.0f\n",
                  mode, gap, r.offered_per_virtual_sec,
                  r.completed_per_virtual_sec,
                  static_cast<double>(r.p50_task_latency_us) / 1e3,
                  static_cast<double>(r.p99_task_latency_us) / 1e3,
                  static_cast<double>(r.p99_queue_delay_us) / 1e3,
                  r.completed_per_wall_sec, r.crypto_ops_per_wall_sec);
      rows.push_back(Row{mode, gap, r});
    };
    emit("naive", naive);
    emit("batched", batched);
    if (batched.results_digest != naive.results_digest) {
      digests_agree = false;
      std::fprintf(stderr,
                   "DIGEST MISMATCH at gap=%" PRIu64
                   ": naive=%016" PRIx64 " batched=%016" PRIx64 "\n",
                   gap, naive.results_digest, batched.results_digest);
    }
    // The knee: the largest gap at which queuing appears (offered load
    // first exceeds virtual-time capacity).
    if (knee_gap_us == 0 && naive.p99_queue_delay_us > 0) knee_gap_us = gap;
  }

  // Saturated rows: at or below the knee, or the smallest gap alone.
  const uint64_t saturated_gap = knee_gap_us > 0 ? knee_gap_us : gaps.back();
  auto median_wall_rate = [&rows, saturated_gap](const char* mode) {
    std::vector<double> rates;
    for (const Row& row : rows) {
      if (std::strcmp(row.mode, mode) == 0 && row.gap_us <= saturated_gap) {
        rates.push_back(row.r.completed_per_wall_sec);
      }
    }
    std::sort(rates.begin(), rates.end());
    const size_t mid = rates.size() / 2;
    return rates.size() % 2 == 1 ? rates[mid]
                                 : (rates[mid - 1] + rates[mid]) / 2;
  };
  const double naive_rate = median_wall_rate("naive");
  const double batched_rate = median_wall_rate("batched");
  const double speedup = naive_rate > 0 ? batched_rate / naive_rate : 0;
  std::printf("\nsaturation knee (queue delay onset): gap <= %" PRIu64
              " us\n",
              knee_gap_us);
  std::printf("median wall tasks/s at gap <= %" PRIu64
              " us: naive %.1f, batched %.1f\n",
              saturated_gap, naive_rate, batched_rate);
  std::printf("wall-clock speedup at saturation (batched/naive medians, %d "
              "workers): %.2fx %s\n",
              workers, speedup, speedup >= 2.0 ? "(>= 2x: PASS)" : "");

  const std::string json = Json(rows, workers, speedup, knee_gap_us);
  const std::string json_path = bench::BenchJsonPath("throughput", quick);
  Status st = obs::WriteFile(json_path, json);
  if (!st.ok()) {
    std::fprintf(stderr, "write failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s (%zu rows)\n", json_path.c_str(), rows.size());
  return digests_agree ? 0 : 2;
}
