// Observability subsystem end-to-end: traced fault-injected executions
// of the selection protocol and of every application satisfy the
// checker's invariants; tracing never perturbs results; the JSONL
// exporter round-trips losslessly and its loader rejects corruption;
// and hand-built bad traces trip each invariant individually.

#include "obs/checker.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "apps/concept_index.h"
#include "apps/diffusion.h"
#include "apps/proxy.h"
#include "apps/query.h"
#include "apps/sensing.h"
#include "core/selection.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "sim/experiment.h"
#include "tests/test_util.h"

namespace sep2p {
namespace {

using obs::Event;
using obs::EventKind;
using obs::Trace;

bool HasViolationContaining(const obs::CheckerReport& report,
                            const std::string& needle) {
  for (const std::string& v : report.violations) {
    if (v.find(needle) != std::string::npos) return true;
  }
  return false;
}

// ------------------------------------------- live traces: selection

class TracedSelectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    network_ = test::MakeNetwork(/*n=*/1500, /*c_fraction=*/0.01,
                                 /*cache=*/192);
    ASSERT_NE(network_, nullptr);
    ctx_ = network_->context();
  }

  Result<core::SelectionProtocol::Outcome> RunWithRestarts(
      net::SimNetwork& simnet, util::Rng& rng, int budget = 25) {
    core::SelectionProtocol protocol(ctx_);
    for (int attempt = 1; attempt <= budget; ++attempt) {
      core::SelectionOptions options;
      options.network = &simnet;
      auto run = protocol.Run(/*trigger_index=*/5, rng, options);
      if (run.ok() || run.status().code() != StatusCode::kUnavailable) {
        return run;
      }
    }
    return Status::Unavailable("restart budget exhausted");
  }

  std::unique_ptr<sim::Network> network_;
  core::ProtocolContext ctx_;
};

TEST_F(TracedSelectionTest, FaultySelectionTraceSatisfiesAllInvariants) {
  net::SimNetwork simnet = test::MakeSimNet(1500, /*drop=*/0.08,
                                            /*jitter_mean_us=*/5'000,
                                            /*seed=*/55);
  simnet.set_step_crash_probability(0.002);
  obs::TraceRecorder recorder;
  simnet.set_trace(&recorder);
  util::Rng rng(19);
  auto outcome = RunWithRestarts(simnet, rng);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  simnet.FinalizeTrace();

  obs::CheckerReport report = obs::CheckTrace(recorder.trace());
  EXPECT_TRUE(report.ok()) << (report.violations.empty()
                                   ? "suppressed"
                                   : report.violations[0]);
  // The fault injection actually exercised the interesting paths.
  EXPECT_GT(report.sends, 0u);
  EXPECT_GT(report.drops, 0u);
  EXPECT_GT(report.retries, 0u);
  EXPECT_GT(report.spans, 0u);
  EXPECT_GE(report.selections_completed, 1u);
}

TEST_F(TracedSelectionTest, TracingDoesNotPerturbSelection) {
  auto run = [&](bool traced) {
    net::SimNetwork simnet = test::MakeSimNet(1500, /*drop=*/0.08,
                                              /*jitter_mean_us=*/5'000,
                                              /*seed=*/55);
    simnet.set_step_crash_probability(0.002);
    obs::TraceRecorder recorder;
    if (traced) simnet.set_trace(&recorder);
    util::Rng rng(19);
    auto outcome = RunWithRestarts(simnet, rng);
    EXPECT_TRUE(outcome.ok());
    return std::make_tuple(outcome.ok() ? outcome->actor_indices
                                        : std::vector<uint32_t>{},
                           simnet.now_us(), simnet.stats().messages_sent,
                           simnet.stats().retries);
  };
  // Bit-identical results with the recorder attached or absent.
  EXPECT_EQ(run(false), run(true));
}

TEST_F(TracedSelectionTest, TraceIsIdenticalForAnyThreadCount) {
  sim::Parameters params;
  params.n = 800;
  params.actor_count = 8;
  params.cache_size = 128;
  std::vector<sim::MessageFailureSetting> settings(1);
  settings[0].drop_probability = 0.05;
  settings[0].jitter_mean_us = 10'000;

  auto sweep = [&](int threads) {
    sim::Parameters p = params;
    p.threads = threads;
    std::vector<obs::TraceRecorder> recorders;
    sim::SweepObservers observers;
    observers.recorders = &recorders;
    auto points = sim::RunMessageFailureSweep(p, settings, /*trials=*/3,
                                              /*max_attempts=*/25, &observers);
    EXPECT_TRUE(points.ok());
    EXPECT_EQ(recorders.size(), 1u);
    return recorders.empty() ? std::string()
                             : obs::ToJsonl(recorders[0].trace());
  };
  std::string single = sweep(1);
  EXPECT_GT(single.size(), 100u);
  EXPECT_EQ(single, sweep(4));
}

// --------------------- negative oracle: tampered REAL traces
//
// The synthetic CheckerTest cases below pin each invariant in
// isolation; these take a genuine recorded execution and apply the
// minimal tampering a malicious participant (or a corrupted log) would
// produce. The checker must reject every mutation — this is the
// trace-level half of the attack detection oracle (attack/oracle.h).

class TamperedTraceTest : public TracedSelectionTest {
 protected:
  // One clean, fault-free, message-level selection trace.
  Trace CleanTrace() {
    net::SimNetwork simnet = test::MakeSimNet(1500, /*drop=*/0.0,
                                              /*jitter_mean_us=*/1'000,
                                              /*seed=*/77);
    obs::TraceRecorder recorder;
    simnet.set_trace(&recorder);
    util::Rng rng(23);
    auto outcome = RunWithRestarts(simnet, rng);
    EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
    simnet.FinalizeTrace();
    EXPECT_TRUE(obs::CheckTrace(recorder.trace()).ok());
    return recorder.trace();
  }
};

TEST_F(TamperedTraceTest, DroppedAttestationSignatureIsFlagged) {
  // A colluding SL's attestation scrubbed from the record: the
  // selection-complete mark still promises k sl-attest signatures.
  Trace t = CleanTrace();
  for (size_t i = 0; i < t.events.size(); ++i) {
    if (t.events[i].kind == EventKind::kSignature &&
        t.events[i].detail == "sl-attest") {
      t.events.erase(t.events.begin() + static_cast<long>(i));
      break;
    }
  }
  obs::CheckerReport report = obs::CheckTrace(t);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasViolationContaining(report, "sl-attest signatures"));
}

TEST_F(TamperedTraceTest, ForgedExtraAttestationIsFlagged) {
  // The inverse forgery: an extra attestation injected into the span.
  Trace t = CleanTrace();
  for (size_t i = 0; i < t.events.size(); ++i) {
    if (t.events[i].kind == EventKind::kSignature &&
        t.events[i].detail == "sl-attest") {
      t.events.insert(t.events.begin() + static_cast<long>(i),
                      t.events[i]);
      break;
    }
  }
  obs::CheckerReport report = obs::CheckTrace(t);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasViolationContaining(report, "sl-attest signatures"));
}

TEST_F(TamperedTraceTest, DeliveryToRetroactivelyCrashedNodeIsFlagged) {
  // Rewrite history so some delivery's recipient had already crashed:
  // a dead node that keeps participating is exactly what an equivocating
  // operator's log would show.
  Trace t = CleanTrace();
  bool planted = false;
  for (size_t i = 0; i < t.events.size(); ++i) {
    if (t.events[i].kind == EventKind::kDeliver) {
      Event crash;
      crash.kind = EventKind::kCrash;
      crash.node = t.events[i].node;
      crash.t_us = t.events[i].t_us;  // crash at the delivery instant
      t.events.insert(t.events.begin() + static_cast<long>(i), crash);
      planted = true;
      break;
    }
  }
  ASSERT_TRUE(planted);
  obs::CheckerReport report = obs::CheckTrace(t);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasViolationContaining(report, "crashed node"));
}

TEST_F(TamperedTraceTest, InjectedSpontaneousRetryIsFlagged) {
  // A re-send with no preceding timeout/drop of the same rpc — the
  // signature of a forged (replayed) transmission in the log.
  Trace t = CleanTrace();
  bool planted = false;
  for (size_t i = 0; i < t.events.size() && !planted; ++i) {
    if (t.events[i].kind == EventKind::kAttempt &&
        t.events[i].value == 1 && t.events[i].rpc != 0) {
      Event retry = t.events[i];
      retry.kind = EventKind::kRetry;
      retry.value = 2;
      t.events.insert(t.events.begin() + static_cast<long>(i) + 1, retry);
      planted = true;
    }
  }
  ASSERT_TRUE(planted);
  obs::CheckerReport report = obs::CheckTrace(t);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasViolationContaining(report, "retry without preceding"));
}

// ------------------------------------------- live traces: applications

TEST(TracedAppsTest, SensingRoundTraceSatisfiesInvariants) {
  auto network = test::MakeNetwork(1500, 0.01, /*cache=*/192);
  ASSERT_NE(network, nullptr);
  std::vector<node::PdmsNode> pdms;
  for (uint32_t i = 0; i < network->directory().size(); ++i) {
    pdms.emplace_back(i);
  }
  net::SimNetwork simnet = test::MakeSimNet(1500, /*drop=*/0.2,
                                            /*jitter_mean_us=*/0, /*seed=*/9);
  obs::TraceRecorder recorder;
  simnet.set_trace(&recorder);
  node::AppRuntime runtime(&simnet);
  apps::ParticipatorySensingApp app(network.get(), &pdms, &runtime);
  util::Rng rng(17);
  app.GenerateWorkload(/*sources=*/60, /*readings_per_source=*/5, rng);
  auto round = app.RunRound(/*trigger_index=*/4, rng);
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  simnet.FinalizeTrace();

  obs::CheckerReport report = obs::CheckTrace(recorder.trace());
  EXPECT_TRUE(report.ok()) << (report.violations.empty()
                                   ? "suppressed"
                                   : report.violations[0]);
  EXPECT_GT(report.retries, 0u);  // drop=0.2 forces retransmissions
  EXPECT_GE(report.selections_completed, 1u);
  EXPECT_GT(report.spans, 0u);
}

TEST(TracedAppsTest, DiffusionAndConceptIndexTraceSatisfiesInvariants) {
  auto network = test::MakeNetwork(1200, 0.01, /*cache=*/160);
  ASSERT_NE(network, nullptr);
  std::vector<node::PdmsNode> pdms;
  for (uint32_t i = 0; i < network->directory().size(); ++i) {
    pdms.emplace_back(i);
    if (i % 5 == 0) pdms.back().AddConcept("pilot");
  }
  net::SimNetwork simnet = test::MakeSimNet(1200, /*drop=*/0.05,
                                            /*jitter_mean_us=*/0, /*seed=*/3);
  obs::TraceRecorder recorder;
  simnet.set_trace(&recorder);
  node::AppRuntime runtime(&simnet);
  apps::ConceptIndex index(network.get(), &runtime);
  apps::DiffusionApp app(network.get(), &pdms, &index, &runtime);
  util::Rng rng(5);
  ASSERT_TRUE(app.PublishAllProfiles(rng).ok());
  auto result = app.Diffuse(/*initiator=*/1, "pilot", "hello", rng);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  simnet.FinalizeTrace();

  obs::CheckerReport report = obs::CheckTrace(recorder.trace());
  EXPECT_TRUE(report.ok()) << (report.violations.empty()
                                   ? "suppressed"
                                   : report.violations[0]);
  EXPECT_GE(report.selections_completed, 1u);
}

TEST(TracedAppsTest, QueryTraceSatisfiesInvariants) {
  auto network = test::MakeNetwork(1200, 0.01, /*cache=*/160);
  ASSERT_NE(network, nullptr);
  std::vector<node::PdmsNode> pdms;
  for (uint32_t i = 0; i < network->directory().size(); ++i) {
    pdms.emplace_back(i);
    if (i % 5 == 0) pdms.back().AddConcept("pilot");
    pdms.back().SetAttribute("sick_leave_days", i % 10);
  }
  net::SimNetwork simnet = test::MakeSimNet(1200, /*drop=*/0.05,
                                            /*jitter_mean_us=*/0, /*seed=*/8);
  obs::TraceRecorder recorder;
  simnet.set_trace(&recorder);
  node::AppRuntime runtime(&simnet);
  apps::ConceptIndex index(network.get(), &runtime);
  apps::DiffusionApp publish_helper(network.get(), &pdms, &index, &runtime);
  util::Rng rng(23);
  ASSERT_TRUE(publish_helper.PublishAllProfiles(rng).ok());
  apps::QueryApp app(network.get(), &pdms, &index, &runtime);
  apps::QuerySpec spec;
  spec.profile_expression = "pilot";
  spec.attribute = "sick_leave_days";
  spec.aggregate = apps::Aggregate::kAvg;
  auto result = app.Execute(/*querier=*/2, spec, rng);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  simnet.FinalizeTrace();

  obs::CheckerReport report = obs::CheckTrace(recorder.trace());
  EXPECT_TRUE(report.ok()) << (report.violations.empty()
                                   ? "suppressed"
                                   : report.violations[0]);
  EXPECT_GE(report.selections_completed, 1u);
}

TEST(TracedAppsTest, ProxyAndChainTraceSatisfiesInvariants) {
  auto network = test::MakeNetwork(500, 0.01);
  ASSERT_NE(network, nullptr);
  net::SimNetwork simnet = test::MakeSimNet(500, /*drop=*/0.1,
                                            /*jitter_mean_us=*/0, /*seed=*/6);
  obs::TraceRecorder recorder;
  simnet.set_trace(&recorder);
  test::ServeProxyDeliveries(simnet);
  node::AppRuntime runtime(&simnet);
  util::Rng rng(6);
  const crypto::PublicKey recipient_pub = network->directory().pub(33);
  auto one = apps::ForwardViaProxy(runtime, *network, /*sender=*/7,
                                   recipient_pub, {1, 2, 3}, rng);
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  auto chain = apps::ForwardViaProxy(runtime, *network, /*sender=*/7,
                                     recipient_pub, {4, 5}, rng,
                                     /*relays=*/3);
  ASSERT_TRUE(chain.ok()) << chain.status().ToString();
  simnet.FinalizeTrace();

  obs::CheckerReport report = obs::CheckTrace(recorder.trace());
  EXPECT_TRUE(report.ok()) << (report.violations.empty()
                                   ? "suppressed"
                                   : report.violations[0]);
  EXPECT_GT(report.spans, 0u);
}

// --------------------------------------------------------- exporters

class ExportTest : public ::testing::Test {
 protected:
  // One traced lossy selection shared by the exporter tests.
  void SetUp() override {
    network_ = test::MakeNetwork(1500, 0.01, /*cache=*/192);
    ASSERT_NE(network_, nullptr);
    ctx_ = network_->context();
    simnet_ = std::make_unique<net::SimNetwork>(
        test::MakeSimNet(1500, /*drop=*/0.05, /*jitter_mean_us=*/0,
                         /*seed=*/12));
    simnet_->set_trace(&recorder_);
    core::SelectionProtocol protocol(ctx_);
    util::Rng rng(31);
    for (int attempt = 0; attempt < 25; ++attempt) {
      core::SelectionOptions options;
      options.network = simnet_.get();
      auto run = protocol.Run(/*trigger_index=*/5, rng, options);
      if (run.ok()) break;
      ASSERT_EQ(run.status().code(), StatusCode::kUnavailable);
    }
    simnet_->FinalizeTrace();
    ASSERT_GT(recorder_.size(), 0u);
  }

  std::unique_ptr<sim::Network> network_;
  core::ProtocolContext ctx_;
  obs::TraceRecorder recorder_;
  std::unique_ptr<net::SimNetwork> simnet_;
};

TEST_F(ExportTest, JsonlRoundTripIsExact) {
  const Trace& original = recorder_.trace();
  std::string text = obs::ToJsonl(original);
  auto loaded = obs::FromJsonl(text);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->meta, original.meta);
  ASSERT_EQ(loaded->events.size(), original.events.size());
  EXPECT_EQ(loaded->events, original.events);
  // The checker sees the identical trace after a round trip.
  obs::CheckerReport live = obs::CheckTrace(original);
  obs::CheckerReport reloaded = obs::CheckTrace(*loaded);
  EXPECT_EQ(live.violations, reloaded.violations);
  EXPECT_EQ(live.sends, reloaded.sends);
  EXPECT_EQ(live.spans, reloaded.spans);
}

TEST_F(ExportTest, ChromeTraceIsWellFormed) {
  std::string chrome = obs::ToChromeTrace(recorder_.trace());
  EXPECT_EQ(chrome.find("{\"traceEvents\":["), 0u);
  EXPECT_NE(chrome.find("\"ph\":\"X\""), std::string::npos);  // spans
  EXPECT_NE(chrome.find("\"ph\":\"i\""), std::string::npos);  // instants
  EXPECT_NE(chrome.find("\"name\":\"selection\""), std::string::npos);
  // Every complete event must carry a non-negative duration.
  EXPECT_EQ(chrome.find("\"dur\":-"), std::string::npos);
}

TEST_F(ExportTest, TruncatedJsonlIsRejected) {
  std::string text = obs::ToJsonl(recorder_.trace());
  // Cutting into the final line leaves malformed JSON on it.
  EXPECT_FALSE(obs::FromJsonl(text.substr(0, text.size() - 5)).ok());
  // A handful of arbitrary mid-file cuts; cuts that land exactly on a
  // line boundary are valid prefixes, skipped here and covered below.
  for (size_t cut : {text.size() / 3, text.size() / 2}) {
    if (text[cut - 1] == '\n') continue;
    EXPECT_FALSE(obs::FromJsonl(text.substr(0, cut)).ok()) << cut;
  }
}

TEST_F(ExportTest, LineBoundaryTruncationFailsTheChecker) {
  // A cut on a line boundary parses (every line is valid), but the
  // resulting trace is incomplete — open spans, broken conservation —
  // and the checker must say so.
  std::string text = obs::ToJsonl(recorder_.trace());
  size_t begin = text.find("span-begin");
  ASSERT_NE(begin, std::string::npos);
  size_t cut = text.find('\n', begin);
  ASSERT_NE(cut, std::string::npos);
  auto truncated = obs::FromJsonl(text.substr(0, cut + 1));
  ASSERT_TRUE(truncated.ok()) << truncated.status().ToString();
  EXPECT_FALSE(obs::CheckTrace(*truncated).ok());
}

TEST_F(ExportTest, CorruptedJsonlIsRejected) {
  std::string text = obs::ToJsonl(recorder_.trace());

  // Foreign header.
  std::string bad_header = text;
  bad_header.replace(bad_header.find("sep2p_trace"), 11, "other_trace");
  EXPECT_FALSE(obs::FromJsonl(bad_header).ok());

  // Unknown key on an event line.
  EXPECT_FALSE(obs::FromJsonl(text + "{\"bogus\":1}\n").ok());

  // Unknown event kind.
  EXPECT_FALSE(obs::FromJsonl(text + "{\"k\":\"warp\"}\n").ok());

  // A control byte flipped into the middle of the file.
  std::string flipped = text;
  flipped[flipped.size() / 2] = '\x01';
  EXPECT_FALSE(obs::FromJsonl(flipped).ok());

  // Garbage and emptiness.
  EXPECT_FALSE(obs::FromJsonl("not json at all\n").ok());
  EXPECT_FALSE(obs::FromJsonl("").ok());
}

// ------------------------------------- synthetic invariant violations

Trace BareTrace(uint32_t node_count = 8, int max_attempts = 4) {
  Trace t;
  t.meta.node_count = node_count;
  t.meta.max_attempts = max_attempts;
  return t;
}

Event Ev(EventKind kind, uint64_t t_us = 0) {
  Event e;
  e.kind = kind;
  e.t_us = t_us;
  return e;
}

Event Rpc(EventKind kind, uint64_t rpc, uint64_t value = 0) {
  Event e;
  e.kind = kind;
  e.rpc = rpc;
  e.value = value;
  e.node = 0;
  e.peer = 1;
  return e;
}

Event Shutdown(uint64_t in_flight) {
  Event e;
  e.kind = EventKind::kMark;
  e.detail = "shutdown";
  e.value = in_flight;
  return e;
}

TEST(CheckerTest, CleanRetryAfterDropPasses) {
  Trace t = BareTrace();
  t.events = {Rpc(EventKind::kRpcBegin, 1),
              Rpc(EventKind::kAttempt, 1, 1),
              Rpc(EventKind::kSend, 1),
              Rpc(EventKind::kDrop, 1),
              Rpc(EventKind::kRetry, 1, 2),
              Rpc(EventKind::kAttempt, 1, 2),
              Rpc(EventKind::kSend, 1),
              Rpc(EventKind::kDeliver, 1),
              Rpc(EventKind::kRpcEnd, 1, 2),
              Shutdown(0)};
  obs::CheckerReport report = obs::CheckTrace(t);
  EXPECT_TRUE(report.ok()) << (report.violations.empty()
                                   ? "suppressed"
                                   : report.violations[0]);
  EXPECT_EQ(report.sends, 2u);
  EXPECT_EQ(report.retries, 1u);
  EXPECT_EQ(report.rpcs, 1u);
}

TEST(CheckerTest, SpontaneousRetryIsFlagged) {
  Trace t = BareTrace();
  t.events = {Rpc(EventKind::kRpcBegin, 1), Rpc(EventKind::kAttempt, 1, 1),
              Rpc(EventKind::kSend, 1), Rpc(EventKind::kRetry, 1, 2),
              Rpc(EventKind::kSend, 1), Rpc(EventKind::kDeliver, 1),
              Rpc(EventKind::kRpcEnd, 1, 2), Shutdown(1)};
  obs::CheckerReport report = obs::CheckTrace(t);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasViolationContaining(report, "retry without preceding"));
}

TEST(CheckerTest, AttemptBeyondBudgetIsFlagged) {
  Trace t = BareTrace(/*node_count=*/8, /*max_attempts=*/4);
  t.events = {Rpc(EventKind::kRpcBegin, 1),
              Rpc(EventKind::kAttempt, 1, 5)};
  obs::CheckerReport report = obs::CheckTrace(t);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasViolationContaining(report, "exceeded"));
}

TEST(CheckerTest, RetryEventsOutsideAnyRpcAreFlagged) {
  Trace t = BareTrace();
  Event retry = Rpc(EventKind::kRetry, /*rpc=*/9, 2);  // no rpc-begin
  t.events = {retry};
  obs::CheckerReport report = obs::CheckTrace(t);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasViolationContaining(report, "outside any rpc"));
}

TEST(CheckerTest, DeliveryAtOrAfterCrashIsFlagged) {
  Trace t = BareTrace();
  Event crash = Ev(EventKind::kCrash, 100);
  crash.node = 3;
  Event late = Ev(EventKind::kDeliver, 150);
  late.node = 3;
  t.events = {crash, late};
  obs::CheckerReport report = obs::CheckTrace(t);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasViolationContaining(report, "crashed node 3"));
}

TEST(CheckerTest, ParallelBranchDeliveryBeforeCrashTimeIsAllowed) {
  // Later in the log but timestamped before the crash: a parallel
  // branch whose virtual clock rewound — legitimate, not a violation.
  Trace t = BareTrace();
  Event crash = Ev(EventKind::kCrash, 100);
  crash.node = 3;
  Event early = Ev(EventKind::kDeliver, 50);
  early.node = 3;
  t.events = {crash, early, Ev(EventKind::kSend), Shutdown(0)};
  t.events[2].node = 0;
  EXPECT_TRUE(obs::CheckTrace(t).ok());
}

TEST(CheckerTest, NodeIdOutOfRangeIsFlagged) {
  Trace t = BareTrace(/*node_count=*/8);
  Event e = Ev(EventKind::kSend);
  e.node = 99;
  t.events = {e, Shutdown(1)};
  obs::CheckerReport report = obs::CheckTrace(t);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasViolationContaining(report, "out of range"));
}

TEST(CheckerTest, BrokenConservationIsFlagged) {
  // Two sends, one deliver, shutdown says nothing in flight.
  Trace t = BareTrace();
  t.events = {Ev(EventKind::kSend), Ev(EventKind::kSend),
              Ev(EventKind::kDeliver), Shutdown(0)};
  for (Event& e : t.events) e.node = 0;
  obs::CheckerReport report = obs::CheckTrace(t);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasViolationContaining(report, "conservation"));

  // The missing message accounted as in flight: conserved again.
  t.events.back() = Shutdown(1);
  EXPECT_TRUE(obs::CheckTrace(t).ok());
}

TEST(CheckerTest, MoreDeliversThanSendsIsFlaggedWithoutShutdownMark) {
  Trace t = BareTrace();
  t.events = {Ev(EventKind::kDeliver)};
  t.events[0].node = 0;
  obs::CheckerReport report = obs::CheckTrace(t);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasViolationContaining(report, "conservation"));
}

TEST(CheckerTest, SpanDisciplineViolationsAreFlagged) {
  auto begin = [](uint64_t id, uint64_t parent) {
    Event e = Ev(EventKind::kSpanBegin);
    e.span = id;
    e.parent = parent;
    e.node = 0;
    e.detail = "phase";
    return e;
  };
  auto end = [](uint64_t id) {
    Event e = Ev(EventKind::kSpanEnd);
    e.span = id;
    e.node = 0;
    return e;
  };

  // Wrong declared parent.
  Trace t = BareTrace();
  t.events = {begin(1, 0), begin(2, 7), end(2), end(1)};
  EXPECT_TRUE(HasViolationContaining(obs::CheckTrace(t), "wrong parent"));

  // Span-end out of nesting order.
  t.events = {begin(1, 0), begin(2, 1), end(1), end(2)};
  EXPECT_TRUE(HasViolationContaining(obs::CheckTrace(t),
                                     "does not match innermost"));

  // Span never closed.
  t.events = {begin(1, 0)};
  EXPECT_TRUE(HasViolationContaining(obs::CheckTrace(t), "left open"));

  // Span id reused.
  t.events = {begin(1, 0), end(1), begin(1, 0), end(1)};
  EXPECT_TRUE(HasViolationContaining(obs::CheckTrace(t), "reused"));
}

TEST(CheckerTest, SelectionSignatureCountIsEnforced) {
  auto make = [](uint64_t signatures, uint64_t expected_k) {
    Trace t = BareTrace();
    Event begin = Ev(EventKind::kSpanBegin);
    begin.span = 1;
    begin.node = 0;
    begin.detail = "selection";
    t.events.push_back(begin);
    for (uint64_t i = 0; i < signatures; ++i) {
      Event sig = Ev(EventKind::kSignature);
      sig.span = 1;
      sig.node = 2;
      sig.detail = "sl-attest";
      t.events.push_back(sig);
    }
    Event mark = Ev(EventKind::kMark);
    mark.span = 1;
    mark.node = 0;
    mark.detail = "selection-complete";
    mark.value = expected_k;
    t.events.push_back(mark);
    Event end = Ev(EventKind::kSpanEnd);
    end.span = 1;
    end.node = 0;
    t.events.push_back(end);
    return t;
  };

  EXPECT_TRUE(obs::CheckTrace(make(3, 3)).ok());
  obs::CheckerReport missing = obs::CheckTrace(make(2, 3));
  EXPECT_FALSE(missing.ok());
  EXPECT_TRUE(HasViolationContaining(missing, "sl-attest signatures"));
  EXPECT_FALSE(obs::CheckTrace(make(4, 3)).ok());
}

TEST(CheckerTest, UnsupportedVersionIsRejected) {
  Trace t = BareTrace();
  t.meta.version = 2;
  obs::CheckerReport report = obs::CheckTrace(t);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasViolationContaining(report, "version"));
}

}  // namespace
}  // namespace sep2p
