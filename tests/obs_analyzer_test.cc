// Trace analytics: exact per-phase attribution, critical path, retry
// offenders, folded stacks, and the report pipeline — including the
// reconciliation contract: phase rows of a real traced sweep sum
// EXACTLY to the trace totals, the checker tallies, and the metrics
// registry metering the same run.

#include "obs/analyzer.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "obs/checker.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "sim/experiment.h"

namespace sep2p {
namespace {

using obs::Analysis;
using obs::Counter;
using obs::Event;
using obs::EventKind;
using obs::PhaseRow;
using obs::Trace;
using obs::TraceRecorder;

// A selection-shaped trace with a known critical path:
//
//   selection [0..300]
//     vrand [0..100]:   rpc 1 (0..100), one attempt, 1 send/deliver
//     (self) [100..300]: rpc 2 (100..300), timeout + retry, 2 attempts
Trace MakeSyntheticTrace(uint64_t* out_sel_span = nullptr) {
  TraceRecorder rec;
  uint64_t clock = 0;
  rec.BindClock(&clock);
  rec.meta().node_count = 4;
  rec.meta().max_attempts = 3;

  const uint64_t sel = rec.OpenSpan(0, "selection");
  if (out_sel_span != nullptr) *out_sel_span = sel;
  const uint64_t vr = rec.OpenSpan(0, "vrand");

  Event e;
  e.t_us = 0;
  e.kind = EventKind::kRpcBegin;
  e.node = 0;
  e.peer = 1;
  e.rpc = 1;
  rec.Record(e);
  e = Event{};
  e.t_us = 0;
  e.kind = EventKind::kAttempt;
  e.rpc = 1;
  e.value = 1;
  rec.Record(e);
  e = Event{};
  e.t_us = 0;
  e.kind = EventKind::kSend;
  e.node = 0;
  e.peer = 1;
  e.rpc = 1;
  e.seq = 1;
  e.value = 64;  // payload bytes
  rec.Record(e);
  e = Event{};
  e.t_us = 50;
  e.kind = EventKind::kDeliver;
  e.node = 1;
  e.peer = 0;
  e.rpc = 1;
  e.seq = 1;
  rec.Record(e);
  e = Event{};
  e.t_us = 100;
  e.kind = EventKind::kRpcEnd;
  e.rpc = 1;
  e.value = 1;
  rec.Record(e);
  clock = 100;
  rec.CloseSpan(vr);

  e = Event{};
  e.t_us = 100;
  e.kind = EventKind::kRpcBegin;
  e.node = 0;
  e.peer = 2;
  e.rpc = 2;
  rec.Record(e);
  e = Event{};
  e.t_us = 100;
  e.kind = EventKind::kAttempt;
  e.rpc = 2;
  e.value = 1;
  rec.Record(e);
  e = Event{};
  e.t_us = 200;
  e.kind = EventKind::kTimeout;
  e.rpc = 2;
  e.value = 1;
  rec.Record(e);
  e = Event{};
  e.t_us = 200;
  e.kind = EventKind::kRetry;
  e.rpc = 2;
  e.value = 2;
  rec.Record(e);
  e = Event{};
  e.t_us = 200;
  e.kind = EventKind::kAttempt;
  e.rpc = 2;
  e.value = 2;
  rec.Record(e);
  e = Event{};
  e.t_us = 300;
  e.kind = EventKind::kRpcEnd;
  e.rpc = 2;
  e.value = 2;
  rec.Record(e);
  clock = 300;
  rec.CloseSpan(sel);
  return rec.trace();
}

const PhaseRow* FindPhase(const Analysis& a, const std::string& name) {
  for (const PhaseRow& row : a.phases) {
    if (row.name == name) return &row;
  }
  return nullptr;
}

TEST(AnalyzerTest, PhaseAttributionIsExactOnSyntheticTrace) {
  auto analysis = obs::Analyze(MakeSyntheticTrace());
  ASSERT_TRUE(analysis.ok()) << analysis.status().ToString();
  const Analysis& a = *analysis;

  EXPECT_EQ(a.total_events, 15u);
  EXPECT_EQ(a.spans, 2u);
  EXPECT_EQ(a.duration_us, 300u);
  EXPECT_EQ(a.sends, 1u);
  EXPECT_EQ(a.delivers, 1u);
  EXPECT_EQ(a.bytes_sent, 64u);
  EXPECT_EQ(a.rpcs, 2u);
  EXPECT_EQ(a.attempts, 3u);
  EXPECT_EQ(a.timeouts, 1u);
  EXPECT_EQ(a.retries, 1u);
  EXPECT_DOUBLE_EQ(a.retry_amplification(), 1.5);

  ASSERT_EQ(a.phases.size(), 2u);
  const PhaseRow* sel = FindPhase(a, "selection");
  const PhaseRow* vr = FindPhase(a, "vrand");
  ASSERT_NE(sel, nullptr);
  ASSERT_NE(vr, nullptr);

  // Events are charged to their DIRECT enclosing span only: rpc 1 lives
  // entirely in "vrand", rpc 2 in "selection", nothing double-counts.
  EXPECT_EQ(vr->events, 5u);
  EXPECT_EQ(vr->rpcs, 1u);
  EXPECT_EQ(vr->attempts, 1u);
  EXPECT_EQ(vr->sends, 1u);
  EXPECT_EQ(vr->delivers, 1u);
  EXPECT_EQ(vr->bytes_sent, 64u);
  EXPECT_EQ(vr->total_us, 100u);
  EXPECT_EQ(vr->self_us, 100u);
  EXPECT_EQ(vr->rpc_time_us, 100u);

  EXPECT_EQ(sel->events, 6u);
  EXPECT_EQ(sel->rpcs, 1u);
  EXPECT_EQ(sel->attempts, 2u);
  EXPECT_EQ(sel->timeouts, 1u);
  EXPECT_EQ(sel->retries, 1u);
  EXPECT_EQ(sel->total_us, 300u);
  EXPECT_EQ(sel->self_us, 200u);  // minus vrand's 100
  EXPECT_EQ(sel->rpc_time_us, 200u);
  EXPECT_DOUBLE_EQ(sel->retry_amplification(), 2.0);

  // Per-phase rows sum exactly to the totals.
  uint64_t phase_events = 0, phase_rpcs = 0, phase_attempts = 0;
  for (const PhaseRow& row : a.phases) {
    phase_events += row.events;
    phase_rpcs += row.rpcs;
    phase_attempts += row.attempts;
  }
  EXPECT_EQ(phase_events, a.total_events - 2 * a.spans);
  EXPECT_EQ(phase_rpcs, a.rpcs);
  EXPECT_EQ(phase_attempts, a.attempts);

  EXPECT_EQ(a.rpc_latency.count(), 2u);
  EXPECT_EQ(a.rpc_latency.min(), 100u);
  EXPECT_EQ(a.rpc_latency.max(), 200u);

  ASSERT_EQ(a.top_retries.size(), 1u);
  EXPECT_EQ(a.top_retries[0].rpc, 2u);
  EXPECT_EQ(a.top_retries[0].attempts, 2u);
  EXPECT_EQ(a.top_retries[0].client, 0u);
  EXPECT_EQ(a.top_retries[0].server, 2u);
  EXPECT_FALSE(a.top_retries[0].failed);
  EXPECT_EQ(a.top_retries[0].phase, "selection");
}

TEST(AnalyzerTest, CriticalPathChainsAbuttingIntervals) {
  auto analysis = obs::Analyze(MakeSyntheticTrace());
  ASSERT_TRUE(analysis.ok()) << analysis.status().ToString();
  const Analysis& a = *analysis;

  EXPECT_EQ(a.critical_span, "selection");
  EXPECT_EQ(a.critical_span_us, 300u);
  // rpc 1 (0..100) ends exactly where rpc 2 (100..300) begins: the
  // backwards walk reconstructs both, in chronological order.
  ASSERT_EQ(a.critical_path.size(), 2u);
  EXPECT_EQ(a.critical_path[0].rpc, 1u);
  EXPECT_EQ(a.critical_path[0].start_us, 0u);
  EXPECT_EQ(a.critical_path[0].end_us, 100u);
  EXPECT_EQ(a.critical_path[1].rpc, 2u);
  EXPECT_EQ(a.critical_path[1].start_us, 100u);
  EXPECT_EQ(a.critical_path[1].end_us, 300u);
  EXPECT_EQ(a.critical_path_us, 300u);
}

TEST(AnalyzerTest, FoldedStacksCarryAncestryAndSelfTime) {
  auto analysis = obs::Analyze(MakeSyntheticTrace());
  ASSERT_TRUE(analysis.ok());
  std::vector<std::pair<std::string, uint64_t>> expected = {
      {"selection", 200}, {"selection;vrand", 100}};
  EXPECT_EQ(analysis->folded_stacks, expected);
}

TEST(AnalyzerTest, RejectsStructurallyInvalidTraces) {
  {  // Span end without a begin.
    Trace t;
    Event e;
    e.kind = EventKind::kSpanEnd;
    e.span = 7;
    t.events.push_back(e);
    EXPECT_FALSE(obs::Analyze(t).ok());
  }
  {  // Attempt before its rpc-begin.
    Trace t;
    Event e;
    e.kind = EventKind::kAttempt;
    e.rpc = 5;
    t.events.push_back(e);
    EXPECT_FALSE(obs::Analyze(t).ok());
  }
  {  // Span id reuse.
    Trace t;
    Event e;
    e.kind = EventKind::kSpanBegin;
    e.span = 1;
    e.detail = "a";
    t.events.push_back(e);
    t.events.push_back(e);
    EXPECT_FALSE(obs::Analyze(t).ok());
  }
  {  // Event attributed to a span that was never opened.
    Trace t;
    Event e;
    e.kind = EventKind::kMark;
    e.span = 9;
    t.events.push_back(e);
    EXPECT_FALSE(obs::Analyze(t).ok());
  }
}

// ---------------------------------------------- real traced sweep

class TracedSweepTest : public ::testing::Test {
 protected:
  static constexpr int kTrials = 4;

  void RunObservedSweep(std::vector<obs::TraceRecorder>* recorders,
                        obs::MetricsRegistry* metrics) {
    sim::Parameters params;
    params.n = 800;
    params.actor_count = 8;
    params.cache_size = 128;
    std::vector<sim::MessageFailureSetting> settings(1);
    settings[0].drop_probability = 0.05;
    settings[0].jitter_mean_us = 10'000;

    sim::SweepObservers observers;
    observers.trace_trials = kTrials;  // trace EVERY metered trial
    observers.recorders = recorders;
    observers.metrics = metrics;
    auto points = sim::RunMessageFailureSweep(params, settings, kTrials,
                                              /*max_attempts=*/25,
                                              &observers);
    ASSERT_TRUE(points.ok()) << points.status().ToString();
    ASSERT_EQ(recorders->size(), static_cast<size_t>(kTrials));
  }
};

TEST_F(TracedSweepTest, PhaseRowsReconcileWithTotalsCheckerAndMetrics) {
  std::vector<obs::TraceRecorder> recorders;
  obs::MetricsRegistry metrics;
  RunObservedSweep(&recorders, &metrics);

  uint64_t sends = 0, delivers = 0, drops = 0, timeouts = 0, retries = 0,
           signatures = 0, route_hops = 0, bytes_sent = 0;
  std::map<std::string, uint64_t> phase_sends;
  for (const obs::TraceRecorder& rec : recorders) {
    auto analysis = obs::Analyze(rec.trace());
    ASSERT_TRUE(analysis.ok()) << analysis.status().ToString();
    const Analysis& a = *analysis;

    // Per-phase rows sum EXACTLY to the trace totals: nothing is
    // double-counted up the span ancestry and nothing is lost.
    uint64_t row_events = 0, row_sends = 0, row_delivers = 0,
             row_drops = 0, row_timeouts = 0, row_retries = 0,
             row_rpcs = 0, row_attempts = 0, row_signatures = 0,
             row_routes = 0, row_route_hops = 0, row_bytes = 0;
    for (const PhaseRow& row : a.phases) {
      row_events += row.events;
      row_sends += row.sends;
      row_delivers += row.delivers;
      row_drops += row.drops;
      row_timeouts += row.timeouts;
      row_retries += row.retries;
      row_rpcs += row.rpcs;
      row_attempts += row.attempts;
      row_signatures += row.signatures;
      row_routes += row.routes;
      row_route_hops += row.route_hops;
      row_bytes += row.bytes_sent;
      if (row.name != "(top)") phase_sends[row.name] += row.sends;
    }
    EXPECT_EQ(row_events, a.total_events - 2 * a.spans);
    EXPECT_EQ(row_sends, a.sends);
    EXPECT_EQ(row_delivers, a.delivers);
    EXPECT_EQ(row_drops, a.drops);
    EXPECT_EQ(row_timeouts, a.timeouts);
    EXPECT_EQ(row_retries, a.retries);
    EXPECT_EQ(row_rpcs, a.rpcs);
    EXPECT_EQ(row_attempts, a.attempts);
    EXPECT_EQ(row_signatures, a.signatures);
    EXPECT_EQ(row_routes, a.routes);
    EXPECT_EQ(row_route_hops, a.route_hops);
    EXPECT_EQ(row_bytes, a.bytes_sent);

    // The invariant checker replays the same log; its tallies must
    // agree event for event.
    obs::CheckerReport check = obs::CheckTrace(rec.trace());
    EXPECT_TRUE(check.ok());
    EXPECT_EQ(a.sends, check.sends);
    EXPECT_EQ(a.delivers, check.delivers);
    EXPECT_EQ(a.drops, check.drops);
    EXPECT_EQ(a.timeouts, check.timeouts);
    EXPECT_EQ(a.retries, check.retries);
    EXPECT_EQ(a.rpcs, check.rpcs);
    EXPECT_EQ(a.spans, check.spans);
    EXPECT_EQ(a.routes, check.routes);
    EXPECT_EQ(a.route_hops, check.route_hops);

    sends += a.sends;
    delivers += a.delivers;
    drops += a.drops;
    timeouts += a.timeouts;
    retries += a.retries;
    signatures += a.signatures;
    route_hops += a.route_hops;
    bytes_sent += a.bytes_sent;
  }
  EXPECT_GT(sends, 0u);
  EXPECT_GT(signatures, 0u);

  // Every trial was both traced and metered, so the merged metrics
  // snapshot must reproduce the trace event counts exactly.
  EXPECT_EQ(metrics.counter(Counter::kMessagesSent), sends);
  EXPECT_EQ(metrics.counter(Counter::kMessagesDelivered), delivers);
  EXPECT_EQ(metrics.counter(Counter::kMessagesDropped), drops);
  EXPECT_EQ(metrics.counter(Counter::kTimeouts), timeouts);
  EXPECT_EQ(metrics.counter(Counter::kRetries), retries);
  EXPECT_EQ(metrics.counter(Counter::kRouteHops), route_hops);
  EXPECT_EQ(metrics.counter(Counter::kBytesSent), bytes_sent);
  EXPECT_EQ(metrics.counter(Counter::kTrials),
            static_cast<uint64_t>(kTrials));

  // And per phase: obs::Span pushes the same name on both the recorder
  // and the registry, so phase rows agree between the two pipelines.
  for (const auto& [name, value] : phase_sends) {
    EXPECT_EQ(metrics.phase_counter(name, Counter::kMessagesSent), value)
        << name;
  }
}

TEST_F(TracedSweepTest, MeteredSweepIsBitIdenticalToPlainForAnyThreads) {
  sim::Parameters params;
  params.n = 800;
  params.actor_count = 8;
  params.cache_size = 128;
  std::vector<sim::MessageFailureSetting> settings(1);
  settings[0].drop_probability = 0.05;
  settings[0].jitter_mean_us = 10'000;

  auto sweep = [&](int threads, bool observed)
      -> std::tuple<std::string, std::string, std::string> {
    sim::Parameters p = params;
    p.threads = threads;
    std::vector<obs::TraceRecorder> recorders;
    obs::MetricsRegistry metrics;
    sim::SweepObservers observers;
    observers.trace_trials = 2;
    observers.recorders = &recorders;
    observers.metrics = &metrics;
    auto points = sim::RunMessageFailureSweep(
        p, settings, /*trials=*/4, /*max_attempts=*/25,
        observed ? &observers : nullptr);
    EXPECT_TRUE(points.ok());
    std::string table;
    for (const sim::MessageFailurePoint& pt : *points) {
      char line[256];
      std::snprintf(line, sizeof(line),
                    "%.17g %.17g %.17g %.17g %.17g %.17g %.17g\n",
                    pt.first_try_success_rate, pt.avg_retries,
                    pt.avg_replacements, pt.restart_rate, pt.give_up_rate,
                    pt.p50_latency_ms, pt.p99_latency_ms);
      table += line;
    }
    std::string traces;
    for (const obs::TraceRecorder& rec : recorders) {
      traces += obs::ToJsonl(rec.trace());
    }
    return {table, metrics.ToJson(), traces};
  };

  // Metering + tracing is strictly passive: the sweep table of an
  // observed run matches the plain run bit for bit...
  const auto plain = sweep(1, false);
  const auto observed1 = sweep(1, true);
  EXPECT_EQ(std::get<0>(observed1), std::get<0>(plain));
  EXPECT_FALSE(std::get<2>(observed1).empty());
  // ...and the table, the merged metrics snapshot and the recorded
  // traces are identical for any --threads value.
  for (int threads : {4, 8}) {
    const auto t = sweep(threads, true);
    EXPECT_EQ(std::get<0>(t), std::get<0>(observed1)) << threads;
    EXPECT_EQ(std::get<1>(t), std::get<1>(observed1)) << threads;
    EXPECT_EQ(std::get<2>(t), std::get<2>(observed1)) << threads;
  }
}

// ------------------------------------------------- report pipeline

TEST(ReportTest, MergeAnalysisSumsTotalsAndPhases) {
  auto analysis = obs::Analyze(MakeSyntheticTrace());
  ASSERT_TRUE(analysis.ok());

  obs::Report report;
  MergeAnalysis(report, *analysis);
  MergeAnalysis(report, *analysis);

  EXPECT_EQ(report.trace_count, 2u);
  EXPECT_EQ(report.total_events, 30u);
  EXPECT_EQ(report.rpcs, 4u);
  EXPECT_EQ(report.attempts, 6u);
  EXPECT_DOUBLE_EQ(report.retry_amplification(), 1.5);
  EXPECT_EQ(report.trace_durations_us,
            (std::vector<uint64_t>{300, 300}));
  EXPECT_EQ(report.rpc_latency.count(), 4u);
  ASSERT_EQ(report.phases.size(), 2u);
  EXPECT_EQ(report.phases[0].name, "selection");
  EXPECT_EQ(report.phases[0].rpcs, 2u);
  EXPECT_EQ(report.phases[0].total_us, 600u);
  EXPECT_EQ(report.top_retries.size(), 2u);
  // The critical path stays the FIRST trace's chain.
  EXPECT_EQ(report.critical_span, "selection");
  EXPECT_EQ(report.critical_path.size(), 2u);
  EXPECT_EQ(report.critical_path_us, 300u);
  // Folded stacks merge by stack string.
  std::vector<std::pair<std::string, uint64_t>> expected = {
      {"selection", 400}, {"selection;vrand", 200}};
  EXPECT_EQ(report.folded_stacks, expected);
}

TEST(ReportTest, RenderersEmitTheDashboardSections) {
  auto analysis = obs::Analyze(MakeSyntheticTrace());
  ASSERT_TRUE(analysis.ok());
  obs::Report report;
  MergeAnalysis(report, *analysis);

  const std::string md = report.ToMarkdown();
  for (const char* section :
       {"# SEP2P trace report", "## Totals", "## Phase attribution",
        "## RPC latency", "## Critical path", "## Top retry offenders",
        "## Folded stacks"}) {
    EXPECT_NE(md.find(section), std::string::npos) << section;
  }
  EXPECT_NE(md.find("selection"), std::string::npos);
  EXPECT_NE(md.find("vrand"), std::string::npos);

  const std::string csv = report.ToCsv();
  EXPECT_EQ(csv.rfind("phase,spans,events,total_us,self_us,rpc_time_us,",
                      0),
            0u);
  EXPECT_NE(csv.find("\nselection,1,6,300,200,200,"), std::string::npos)
      << csv;

  EXPECT_NE(report.ToFolded().find("selection;vrand 100"),
            std::string::npos);
}

TEST(ReportTest, TopZeroStillCountsTheRetriedRpcs) {
  // The synthetic trace's rpc 2 retried once; --top 0 lists no offender
  // but must not claim that every RPC succeeded on its first attempt.
  obs::AnalyzerOptions top_zero;
  top_zero.top_n = 0;
  obs::Report report;
  ASSERT_TRUE(
      obs::AddTrace(report, MakeSyntheticTrace(), "synthetic", top_zero).ok());
  EXPECT_EQ(report.retried_rpcs, 1u);
  EXPECT_TRUE(report.top_retries.empty());
  const std::string md = report.ToMarkdown(top_zero);
  EXPECT_EQ(md.find("(none"), std::string::npos) << md;
  EXPECT_NE(md.find("(1 RPC retried; --top 0 lists none)"), std::string::npos)
      << md;

  // A second trace adds its count; the default cap lists the offender.
  ASSERT_TRUE(
      obs::AddTrace(report, MakeSyntheticTrace(), "again", top_zero).ok());
  EXPECT_EQ(report.retried_rpcs, 2u);
  EXPECT_NE(report.ToMarkdown(top_zero).find(
                "(2 RPCs retried; --top 0 lists none)"),
            std::string::npos);
  obs::Report listed;
  ASSERT_TRUE(obs::AddTrace(listed, MakeSyntheticTrace(), "listed").ok());
  EXPECT_NE(listed.ToMarkdown().find("| rpc | client | server |"),
            std::string::npos);
}

TEST(ReportTest, BuildReportAggregatesADirectoryOfTraces) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::path(::testing::TempDir()) / "sep2p_report_test";
  fs::remove_all(dir);
  ASSERT_TRUE(fs::create_directories(dir));

  const Trace trace = MakeSyntheticTrace();
  const std::string jsonl = obs::ToJsonl(trace);
  ASSERT_TRUE(obs::WriteFile((dir / "run.trial1.jsonl").string(), jsonl)
                  .ok());
  ASSERT_TRUE(obs::WriteFile((dir / "run.jsonl").string(), jsonl).ok());
  // Non-trace files are ignored.
  ASSERT_TRUE(obs::WriteFile((dir / "notes.txt").string(), "x").ok());

  auto report = obs::BuildReport(dir.string());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->trace_count, 2u);
  // Sorted by name: run.jsonl before run.trial1.jsonl.
  ASSERT_EQ(report->sources.size(), 2u);
  EXPECT_EQ(fs::path(report->sources[0]).filename(), "run.jsonl");
  EXPECT_EQ(fs::path(report->sources[1]).filename(), "run.trial1.jsonl");
  EXPECT_EQ(report->rpcs, 4u);

  // A malformed trace fails the whole report, naming the file.
  ASSERT_TRUE(
      obs::WriteFile((dir / "zzz.jsonl").string(), "not json\n").ok());
  auto broken = obs::BuildReport(dir.string());
  ASSERT_FALSE(broken.ok());
  EXPECT_NE(broken.status().ToString().find("zzz.jsonl"),
            std::string::npos);

  // An empty directory is an error, not an empty report.
  const fs::path empty = dir / "empty";
  ASSERT_TRUE(fs::create_directories(empty));
  EXPECT_FALSE(obs::BuildReport(empty.string()).ok());

  fs::remove_all(dir);
}

}  // namespace
}  // namespace sep2p
