// task_mix: one saturation point of the throughput engine in batched
// mode — N=800, A=8, cache 128, Ed25519, window 64, a virtual arrival
// gap of 200 us, and the selection/query/selection/diffusion mix over
// SimNetwork. Arrivals follow an open-loop schedule on the virtual
// clock; the coordinator runs as fast as it can on the wall clock.
//
// One round builds a fresh world (engine runs mutate caches and the
// virtual clock), publishes the profiles and runs kTasks tasks; rounds
// repeat until the time is up. An op is a task. The wall clock cannot
// see single tasks from outside the engine, so op latency here is the
// task latency on the engine's virtual clock, taken from round 0 — a
// deterministic protocol latency. The seed draws the task triggers.

#include <memory>
#include <vector>

#include "apps/concept_index.h"
#include "apps/diffusion.h"
#include "apps/query.h"
#include "engine/throughput.h"
#include "net/sim_network.h"
#include "node/app_runtime.h"
#include "node/pdms_node.h"
#include "sim/network.h"
#include "sim/trial_runner.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kTasks = 384;
constexpr int kMinRounds = 2;

struct Round {
  double build_s = 0;
  double publish_s = 0;
  double run_s = 0;
  engine::ThroughputEngine::Report engine;
  net::Transport::Stats net;
};

// Recorded for kDefaultSeed: round 0's results digest.
constexpr uint64_t kPinnedDigest = 0x7c0b824d4d6b478bULL;

sim::Parameters WorldParams() {
  sim::Parameters params;
  params.n = 800;
  params.cache_size = 128;
  params.actor_count = 8;
  params.provider = sim::Parameters::ProviderKind::kEd25519;
  params.threads = 1;
  return params;
}

// Builds one world and runs the task mix on it.
Result<Round> RunRound(uint64_t engine_seed, SpanRecorder& spans) {
  Round round;
  const sim::Parameters params = WorldParams();
  Clock::time_point start = Clock::now();
  auto built = [&] {
    ScopedSpan span(spans, "sim.Network::Build");
    return sim::Network::Build(params);
  }();
  if (!built.ok()) return built.status();
  sim::Network& world = *built.value();
  round.build_s = SecondsSince(start);

  net::LinkModel link;
  link.jitter_mean_us = 0;
  net::SimNetwork simnet(static_cast<uint32_t>(params.n), link,
                         net::RetryPolicy{}, /*seed=*/7);
  node::AppRuntime runtime(&simnet);
  std::vector<node::PdmsNode> pdms;
  pdms.reserve(params.n);
  for (uint32_t i = 0; i < params.n; ++i) {
    pdms.emplace_back(i);
    if (i % 4 == 0) pdms.back().AddConcept("pilot");
    pdms.back().SetAttribute("hours", i % 50);
  }
  apps::ConceptIndex index(&world, &runtime);
  apps::DiffusionApp diffusion(&world, &pdms, &index, &runtime);
  start = Clock::now();
  {
    ScopedSpan span(spans, "apps.DiffusionApp::PublishAllProfiles");
    util::Rng publish_rng(5);
    Status published = diffusion.PublishAllProfiles(publish_rng).status();
    if (!published.ok()) return published;
  }
  round.publish_s = SecondsSince(start);
  apps::QueryApp query(&world, &pdms, &index, &runtime);
  apps::QuerySpec spec;
  spec.profile_expression = "pilot";
  spec.attribute = "hours";
  spec.aggregate = apps::Aggregate::kAvg;

  engine::ThroughputEngine::Options options;
  options.verify_mode = engine::ThroughputEngine::VerifyMode::kBatched;
  options.workers = 1;
  options.window = 64;
  options.arrival_gap_us = 200;
  options.seed = engine_seed;
  {
    engine::ThroughputEngine eng(&world, &simnet, &runtime, options);
    eng.set_diffusion(&diffusion, "pilot", "notice");
    eng.set_query(&query, spec);
    eng.SubmitWorkload(kTasks, {engine::TaskKind::kSelection,
                                engine::TaskKind::kQuery,
                                engine::TaskKind::kSelection,
                                engine::TaskKind::kDiffusion});
    start = Clock::now();
    auto report = [&] {
      ScopedSpan span(spans, "engine.ThroughputEngine::Run");
      return eng.Run();
    }();
    round.run_s = SecondsSince(start);
    if (!report.ok()) return report.status();
    round.engine = report.value();
  }
  round.net = simnet.stats();
  return round;
}

}  // namespace

void RunTaskMix(const Args& args, SpanRecorder& spans, Report* report) {
  const uint64_t task_seed = sim::MixSeed(args.seed, 0x7461736bULL);
  std::vector<Round> rounds;
  std::vector<double> setup_s;
  std::vector<double> round_rates;
  Status failure = Status::Ok();
  double server_rss_mb = 0;
  auto op = [&](uint64_t i) {
    ScopedSpan span(spans, "op");
    Result<Round> round = RunRound(sim::StreamSeed(task_seed, i), spans);
    if (!round.ok()) {
      failure = round.status();
      report->ops.Record(false);
      return;
    }
    if (i == 0) server_rss_mb = CurrentRssMb();
    if (spans.enabled()) return;
    setup_s.push_back(round->build_s + round->publish_s);
    round_rates.push_back(round->engine.completed / round->run_s);
    report->ops.Add(round->engine.submitted, round->engine.failed);
    rounds.push_back(*round);
  };
  RunPhases(args, kMinRounds, spans, report, op, kTasks);

  report->Check(failure.ok(), "round failed: " + failure.ToString());
  if (rounds.empty()) return;
  const Round& first = rounds.front();
  report->Check(report->ops.failed() == 0, "a task failed");
  if (args.seed == kDefaultSeed) {
    report->Check(first.engine.results_digest == kPinnedDigest,
                  "results digest differs from the pinned default-seed one");
  }

  std::vector<double> build_s;
  std::vector<double> publish_s;
  for (const Round& round : rounds) {
    build_s.push_back(round.build_s);
    publish_s.push_back(round.publish_s);
  }
  auto& e2e = report->end_to_end;
  e2e["setup_s"] = Median(setup_s);
  e2e["ops_per_s"] = Median(round_rates);
  e2e["op_p50_us"] = first.engine.p50_task_latency_us;
  e2e["op_p99_us"] = first.engine.p99_task_latency_us;
  e2e["peak_rss_mb"] = PeakRssMb();
  e2e["server_rss_mb"] = server_rss_mb;
  report->Extra("virtual_p99_ms", first.engine.p99_task_latency_us / 1e3,
                "ms");
  report->Extra("rounds", rounds.size(), "count");
  report->Note("round 0 results digest 0x%016llxULL",
               ULL(first.engine.results_digest));

  if (!args.trace) return;
  const double tasks = static_cast<double>(first.engine.submitted);
  const engine::ThroughputEngine::Report& eng = first.engine;
  auto& layer = report->per_layer;
  layer["crypto.signs_per_op"] = eng.crypto_signs / tasks;
  layer["crypto.verifies_per_op"] = eng.crypto_verifies / tasks;
  layer["crypto.coalesced_ratio"] =
      static_cast<double>(eng.verify_stats.coalesced) /
      static_cast<double>(eng.verify_stats.items);
  layer["net.msgs_per_op"] = first.net.messages_sent / tasks;
  layer["net.bytes_per_op"] = first.net.bytes_sent / tasks;
  layer["net.retries_per_op"] = first.net.retries / tasks;
  layer["net.rpc_failures"] = first.net.rpc_failures;
  layer["engine.queue_p99_ms"] = eng.p99_queue_delay_us / 1e3;
  layer["engine.virtual_p50_ms"] = eng.p50_task_latency_us / 1e3;
  layer["apps.publish_s"] = Median(publish_s);
  layer["sim.build_s"] = Median(build_s);
  auto world = sim::Network::Build(WorldParams());
  if (world.ok()) ProbeCommonLayers(*world.value(), report);
}

}  // namespace perfbench
