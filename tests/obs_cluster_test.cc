// Cluster-scope observability: HLC stamp algebra, causally-consistent
// shard merging (obs/cluster.h), and the live status plane.
//
// The merge tests pin the determinism handle a live cluster cannot get
// from wall clocks alone: the SAME protocol schedule — expressed as
// synthetic shards whose stamps are issued by real obs::Hlc instances —
// must merge to the SAME event order and CausalDigest under any shard
// ingestion order and any per-process wall-clock skew. Mis-stamped
// shards must be rejected loudly (the negative twin of the checker's
// TamperedTraceTest): a merge over broken stamps would produce a
// plausible-looking trace whose checker verdict means nothing.
//
// The TcpTransportObs suite runs real transports over loopback — its
// name matters: CI's TSan job selects it via the `|TcpTransport`
// filter.

#include "obs/cluster.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/messages.h"
#include "net/tcp_transport.h"
#include "obs/checker.h"
#include "obs/export.h"
#include "obs/hlc.h"
#include "obs/status.h"
#include "obs/trace.h"

namespace sep2p {
namespace {

using obs::ClockDomain;
using obs::Event;
using obs::EventKind;
using obs::Hlc;
using obs::Trace;
using obs::TraceRecorder;

// ------------------------------------------------------------ HLC

TEST(HlcTest, TickIsStrictlyIncreasingEvenWhenWallStalls) {
  Hlc hlc;
  const uint64_t a = hlc.Tick(1000);
  const uint64_t b = hlc.Tick(1000);  // same millisecond: logical tick
  const uint64_t c = hlc.Tick(999);   // wall clock stepped BACK
  const uint64_t d = hlc.Tick(2000);  // wall clock ahead again
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_LT(c, d);
  EXPECT_EQ(Hlc::WallMs(a), 1000u);
  EXPECT_EQ(Hlc::Logical(b), Hlc::Logical(a) + 1);
  EXPECT_EQ(Hlc::WallMs(d), 2000u);
  EXPECT_EQ(Hlc::Logical(d), 0u);
}

TEST(HlcTest, ObserveOrdersLocalStampsAfterRemoteOnes) {
  Hlc sender;
  Hlc receiver;
  // The receiver's wall clock lags the sender's by a full second.
  const uint64_t remote = sender.Tick(5000);
  receiver.Observe(remote);
  const uint64_t local = receiver.Tick(4000);
  EXPECT_GT(local, remote);
  // Observing an OLDER stamp must not rewind.
  receiver.Observe(remote);
  EXPECT_EQ(receiver.last(), local);
}

TEST(HlcTest, PackRoundTrips) {
  const uint64_t stamp = Hlc::Pack(123456789, 42);
  EXPECT_EQ(Hlc::WallMs(stamp), 123456789u);
  EXPECT_EQ(Hlc::Logical(stamp), 42u);
}

// --------------------------------------------- synthetic shard merge

// Span and rpc ids branded by the driver process (index 0), exactly as
// TcpTransport brands them: high bits = process_index + 1.
constexpr uint64_t kSpan = (1ull << 48) + 1;
constexpr uint64_t kRpc1 = (1ull << 48) | 1;
constexpr uint64_t kRpc2 = (1ull << 48) | 2;

// Builds the 3-process shard set of one causally-chained schedule: the
// driver (process 0, node 0) opens a span, calls node 1 (served by
// process 1), then — after the reply lands — calls node 2 (process 2),
// closes the span. Stamps are issued by real Hlc instances with
// `skew_ms[p]` added to process p's wall clock, so every happens-before
// edge crosses processes through Observe() just like the wire does.
std::vector<Trace> MakeShards(const std::array<int64_t, 3>& skew_ms) {
  const uint64_t kBaseMs = 1'000'000;
  std::array<Hlc, 3> hlc;
  std::array<uint64_t, 3> wall;
  for (size_t p = 0; p < 3; ++p) {
    wall[p] = static_cast<uint64_t>(static_cast<int64_t>(kBaseMs) + skew_ms[p]);
  }
  std::vector<Trace> shards(3);
  for (uint32_t p = 0; p < 3; ++p) {
    shards[p].meta.version = 1;
    shards[p].meta.node_count = 3;
    shards[p].meta.max_attempts = 4;
    shards[p].meta.clock = ClockDomain::kWall;
    shards[p].meta.process = p;
    shards[p].meta.process_count = 3;
  }
  auto emit = [&](uint32_t p, EventKind kind, uint32_t node, uint32_t peer,
                  uint64_t span, uint64_t rpc, uint64_t value,
                  std::string detail) {
    Event e;
    e.t_us = wall[p] * 1000;
    e.kind = kind;
    e.node = node;
    e.peer = peer;
    e.span = span;
    if (kind == EventKind::kSpanBegin) e.parent = 0;
    e.rpc = rpc;
    e.value = value;
    e.hlc = hlc[p].Tick(wall[p]++);
    e.detail = std::move(detail);
    shards[p].events.push_back(std::move(e));
    return shards[p].events.back().hlc;
  };

  emit(0, EventKind::kSpanBegin, 0, obs::kNoNode, kSpan, 0, 0, "query");
  // RPC 1: node 0 -> node 1, served by process 1.
  const uint64_t s1 =
      emit(0, EventKind::kSend, 0, 1, kSpan, kRpc1, 64, "");
  hlc[1].Observe(s1);
  emit(1, EventKind::kDeliver, 1, 0, kSpan, kRpc1, 64, "");
  const uint64_t r1 =
      emit(1, EventKind::kSend, 1, 0, kSpan, kRpc1, 32, "");
  hlc[0].Observe(r1);
  emit(0, EventKind::kDeliver, 0, 1, kSpan, kRpc1, 32, "");
  // RPC 2: node 0 -> node 2, served by process 2 (after RPC 1's reply,
  // so the whole schedule is one causal chain).
  const uint64_t s2 =
      emit(0, EventKind::kSend, 0, 2, kSpan, kRpc2, 64, "");
  hlc[2].Observe(s2);
  emit(2, EventKind::kDeliver, 2, 0, kSpan, kRpc2, 64, "");
  const uint64_t r2 =
      emit(2, EventKind::kSend, 2, 0, kSpan, kRpc2, 32, "");
  hlc[0].Observe(r2);
  emit(0, EventKind::kDeliver, 0, 2, kSpan, kRpc2, 32, "");
  emit(0, EventKind::kSpanEnd, 0, obs::kNoNode, kSpan, 0, 0, "query");
  // Per-shard residual marks, as FinalizeTrace writes them (the client
  // saw 2 sends / 2 delivers; servers delivered more than they sent).
  for (uint32_t p = 0; p < 3; ++p) {
    emit(p, EventKind::kMark, obs::kNoNode, obs::kNoNode, 0, 0, 0,
         "shutdown");
  }
  return shards;
}

TEST(ClusterMergeTest, MergedTracePassesEveryCheckerInvariant) {
  auto merged = obs::MergeCluster(MakeShards({0, 0, 0}));
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  const obs::CheckerReport report = obs::CheckTrace(merged.value());
  EXPECT_TRUE(report.ok()) << (report.violations.empty()
                                   ? "?"
                                   : report.violations.front());
  EXPECT_EQ(report.sends, 4u);
  EXPECT_EQ(report.delivers, 4u);
  EXPECT_EQ(report.spans, 1u);
  // 10 protocol events survive; the 3 per-shard shutdown marks are
  // replaced by ONE cluster-wide mark with a zero residual.
  ASSERT_EQ(merged->events.size(), 11u);
  const Event& mark = merged->events.back();
  EXPECT_EQ(mark.kind, EventKind::kMark);
  EXPECT_EQ(mark.detail, "shutdown");
  EXPECT_EQ(mark.value, 0u);
  // Causal order across processes: the server-side deliver of RPC 1
  // lands between the client's send and the client's deliver.
  auto index_of = [&](EventKind kind, uint32_t node, uint64_t rpc) {
    for (size_t i = 0; i < merged->events.size(); ++i) {
      const Event& e = merged->events[i];
      if (e.kind == kind && e.node == node && e.rpc == rpc) return i;
    }
    return static_cast<size_t>(-1);
  };
  const size_t client_send = index_of(EventKind::kSend, 0, kRpc1);
  const size_t server_deliver = index_of(EventKind::kDeliver, 1, kRpc1);
  const size_t client_deliver = index_of(EventKind::kDeliver, 0, kRpc1);
  ASSERT_NE(client_send, static_cast<size_t>(-1));
  EXPECT_LT(client_send, server_deliver);
  EXPECT_LT(server_deliver, client_deliver);
}

TEST(ClusterMergeTest, IngestionOrderNeverChangesTheMerge) {
  const auto digest0 = [] {
    auto m = obs::MergeCluster(MakeShards({0, 0, 0}));
    EXPECT_TRUE(m.ok());
    return obs::CausalDigest(m.value());
  }();
  const std::array<std::array<size_t, 3>, 3> orders = {
      {{2, 1, 0}, {1, 2, 0}, {0, 2, 1}}};
  auto reference = obs::MergeCluster(MakeShards({0, 0, 0}));
  ASSERT_TRUE(reference.ok());
  for (const auto& order : orders) {
    std::vector<Trace> shards = MakeShards({0, 0, 0});
    std::vector<Trace> shuffled;
    for (size_t i : order) shuffled.push_back(std::move(shards[i]));
    auto merged = obs::MergeCluster(std::move(shuffled));
    ASSERT_TRUE(merged.ok()) << merged.status().ToString();
    EXPECT_EQ(merged->events, reference->events);
    EXPECT_EQ(obs::CausalDigest(merged.value()), digest0);
  }
}

TEST(ClusterMergeTest, WallClockSkewNeverChangesTheDigest) {
  auto reference = obs::MergeCluster(MakeShards({0, 0, 0}));
  ASSERT_TRUE(reference.ok());
  const uint64_t digest = obs::CausalDigest(reference.value());
  // Seconds of skew in both directions — far beyond NTP drift. The
  // stamps (and t_us) all move, but the merged ORDER is pinned by the
  // happens-before chain, and the digest ignores timestamps.
  const std::array<std::array<int64_t, 3>, 3> skews = {
      {{0, 5000, -3000}, {-2000, 0, 7000}, {10000, 10000, 0}}};
  for (const auto& skew : skews) {
    auto merged = obs::MergeCluster(MakeShards(skew));
    ASSERT_TRUE(merged.ok()) << merged.status().ToString();
    ASSERT_EQ(merged->events.size(), reference->events.size());
    for (size_t i = 0; i < merged->events.size(); ++i) {
      EXPECT_EQ(merged->events[i].kind, reference->events[i].kind) << i;
      EXPECT_EQ(merged->events[i].node, reference->events[i].node) << i;
      EXPECT_EQ(merged->events[i].rpc, reference->events[i].rpc) << i;
    }
    EXPECT_EQ(obs::CausalDigest(merged.value()), digest);
  }
}

TEST(ClusterMergeTest, InFlightResidualIsResynthesizedClusterWide) {
  std::vector<Trace> shards = MakeShards({0, 0, 0});
  // The reply of RPC 2 never lands: drop the client's final deliver
  // (second-to-last protocol event of shard 0, before its mark).
  auto& events = shards[0].events;
  for (size_t i = 0; i < events.size(); ++i) {
    if (events[i].kind == EventKind::kDeliver && events[i].rpc == kRpc2) {
      events.erase(events.begin() + static_cast<ptrdiff_t>(i));
      break;
    }
  }
  auto merged = obs::MergeCluster(std::move(shards));
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged->events.back().value, 1u);  // one message in flight
  const obs::CheckerReport report = obs::CheckTrace(merged.value());
  EXPECT_TRUE(report.ok()) << (report.violations.empty()
                                   ? "?"
                                   : report.violations.front());
}

// The negative twin of TamperedTraceTest: every way a shard can be
// mis-stamped is refused with a message naming the offending process.
TEST(ClusterMergeTest, MisStampedShardsAreRejectedLoudly) {
  auto expect_rejected = [](std::vector<Trace> shards,
                            const std::string& needle) {
    auto merged = obs::MergeCluster(std::move(shards));
    ASSERT_FALSE(merged.ok()) << "expected rejection: " << needle;
    EXPECT_NE(merged.status().message().find(needle), std::string::npos)
        << merged.status().ToString();
  };
  {
    std::vector<Trace> shards = MakeShards({0, 0, 0});
    shards[1].events[0].hlc = 0;
    expect_rejected(std::move(shards), "missing its HLC stamp");
  }
  {
    std::vector<Trace> shards = MakeShards({0, 0, 0});
    std::swap(shards[0].events[1].hlc, shards[0].events[2].hlc);
    expect_rejected(std::move(shards), "not strictly increasing");
  }
  {
    std::vector<Trace> shards = MakeShards({0, 0, 0});
    shards[2].meta.clock = ClockDomain::kVirtual;
    expect_rejected(std::move(shards), "virtual clock");
  }
  {
    std::vector<Trace> shards = MakeShards({0, 0, 0});
    shards[1].meta.process = 0;
    expect_rejected(std::move(shards), "duplicate shard for process 0");
  }
  {
    std::vector<Trace> shards = MakeShards({0, 0, 0});
    shards[2].meta.node_count = 99;
    expect_rejected(std::move(shards), "disagrees with sibling shards");
  }
  {
    std::vector<Trace> shards = MakeShards({0, 0, 0});
    shards[1].meta.process = 7;
    expect_rejected(std::move(shards), "process id out of range");
  }
  {
    std::vector<Trace> shards = MakeShards({0, 0, 0});
    shards[1].meta.process_count = 0;
    expect_rejected(std::move(shards), "missing process_count");
  }
  expect_rejected({}, "no shards");
}

// -------------------------------------- sim export stays byte-stable

TEST(ClusterMergeTest, SimTracesCarryNoClusterFields) {
  // A recorder that never saw EnableHlc / cluster meta must export the
  // EXACT pre-observability JSONL: no "clock", no "process", no "h"
  // keys — the byte-identity contract of sim traces.
  TraceRecorder rec;
  uint64_t clock = 0;
  rec.BindClock(&clock);
  rec.meta().node_count = 4;
  rec.meta().max_attempts = 3;
  const uint64_t span = rec.OpenSpan(1, "phase");
  Event e;
  e.t_us = 5;
  e.kind = EventKind::kSend;
  e.node = 1;
  e.peer = 2;
  e.rpc = 7;
  rec.Record(e);
  clock = 9;
  rec.CloseSpan(span);
  const std::string jsonl = obs::ToJsonl(rec.trace());
  EXPECT_EQ(jsonl.substr(0, jsonl.find('\n')),
            "{\"sep2p_trace\":1,\"node_count\":4,\"max_attempts\":3}");
  EXPECT_EQ(jsonl.find("\"clock\""), std::string::npos);
  EXPECT_EQ(jsonl.find("\"process\""), std::string::npos);
  EXPECT_EQ(jsonl.find("\"h\":"), std::string::npos);
  // And the round trip preserves the absence.
  auto loaded = obs::FromJsonl(jsonl);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(obs::ToJsonl(loaded.value()), jsonl);
}

TEST(ClusterMergeTest, ClusterShardJsonlRoundTripsWithClusterFields) {
  std::vector<Trace> shards = MakeShards({0, 0, 0});
  const std::string jsonl = obs::ToJsonl(shards[1]);
  EXPECT_NE(jsonl.find("\"clock\":\"wall\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"process\":1"), std::string::npos);
  EXPECT_NE(jsonl.find("\"h\":"), std::string::npos);
  auto loaded = obs::FromJsonl(jsonl);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->meta, shards[1].meta);
  EXPECT_EQ(loaded->events, shards[1].events);
  EXPECT_EQ(obs::ToJsonl(loaded.value()), jsonl);
}

// ------------------------------------------- live transports (TSan'd)

net::RetryPolicy FastRetry() {
  net::RetryPolicy retry;
  retry.timeout_us = 2'000'000;
  retry.max_attempts = 3;
  retry.backoff_base_us = 50'000;
  retry.jitter_fraction = 0.0;
  return retry;
}

TEST(TcpTransportObsTest, LiveShardsMergeCheckAndCrossProcessSpans) {
  constexpr uint32_t kProcesses = 2;
  constexpr uint32_t kNodes = 4;
  std::vector<std::unique_ptr<net::TcpTransport>> cluster;
  std::vector<std::unique_ptr<TraceRecorder>> recorders;
  for (uint32_t p = 0; p < kProcesses; ++p) {
    net::TcpTransport::Options options;
    options.node_count = kNodes;
    options.process_count = kProcesses;
    options.process_index = p;
    options.listen_port = 0;
    options.seed = 2000 + p;
    options.retry = FastRetry();
    cluster.push_back(std::make_unique<net::TcpTransport>(options));
    recorders.push_back(std::make_unique<TraceRecorder>());
  }
  for (uint32_t p = 0; p < kProcesses; ++p) {
    ASSERT_TRUE(cluster[p]->Start().ok());
    cluster[p]->set_trace(recorders[p].get());
  }
  for (uint32_t p = 0; p < kProcesses; ++p) {
    for (uint32_t q = 0; q < kProcesses; ++q) {
      if (p != q) {
        cluster[p]->SetPeer(q, "127.0.0.1", cluster[q]->listen_port());
      }
    }
  }
  for (auto& t : cluster) {
    t->Register(core::msg::kTagAppAck,
                [](uint32_t, const std::vector<uint8_t>& request)
                    -> std::optional<std::vector<uint8_t>> {
                  return request;
                });
  }
  const std::vector<uint8_t> request = core::msg::Encode(core::msg::AppAck{});
  uint64_t client_span = 0;
  {
    obs::Span span(recorders[0].get(), 0, "live-query");
    client_span = recorders[0]->CurrentSpan();
    // Node 1 lives in process 1 (remote), node 2 in process 0 (local).
    EXPECT_TRUE(cluster[0]->Call(0, 1, request).ok);
    EXPECT_TRUE(cluster[0]->Call(0, 2, request).ok);
  }

  // The listen port doubles as a status plane while the daemon runs.
  auto scraped = net::ScrapeStatus("127.0.0.1", cluster[1]->listen_port(),
                                   /*timeout_ms=*/5000);
  ASSERT_TRUE(scraped.ok()) << scraped.status().ToString();
  EXPECT_NE(scraped->find("sep2p_health{verdict=\"ok\"} 1"),
            std::string::npos);
  EXPECT_NE(scraped->find("sep2p_process_index 1"), std::string::npos);
  EXPECT_NE(cluster[0]->BuildStatusText().find("sep2p_health"),
            std::string::npos);

  for (auto& t : cluster) t->Stop();
  for (auto& t : cluster) t->FinalizeTrace();

  // The span is branded with process 0's prefix; every event of both
  // shards carries a nonzero HLC stamp.
  EXPECT_EQ(client_span >> 48, 1u);
  for (uint32_t p = 0; p < kProcesses; ++p) {
    for (const Event& e : recorders[p]->trace().events) {
      EXPECT_NE(e.hlc, 0u) << "process " << p;
    }
  }
  // The remote server attributed its deliver to the CLIENT's span.
  bool remote_deliver_in_client_span = false;
  for (const Event& e : recorders[1]->trace().events) {
    if (e.kind == EventKind::kDeliver && e.span == client_span) {
      remote_deliver_in_client_span = true;
    }
  }
  EXPECT_TRUE(remote_deliver_in_client_span);

  std::vector<Trace> shards;
  for (auto& rec : recorders) shards.push_back(rec->trace());
  auto merged = obs::MergeCluster(std::move(shards));
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  const obs::CheckerReport report = obs::CheckTrace(merged.value());
  EXPECT_TRUE(report.ok()) << (report.violations.empty()
                                   ? "?"
                                   : report.violations.front());
  EXPECT_EQ(report.sends, report.delivers);
  // Each RPC contributes its request and response legs, the local one
  // (which short-circuits dispatch) as much as the remote one.
  EXPECT_EQ(report.sends, 4u);
}

TEST(TcpTransportObsTest, StatusRendererEmitsHealthVerdicts) {
  obs::ProcessStatus status;
  status.process = 2;
  status.process_count = 5;
  status.node_count = 100;
  status.listen_port = 19000;
  const std::string ok_text = obs::RenderProcessStatus(status);
  EXPECT_NE(ok_text.find("sep2p_health{verdict=\"ok\"} 1"),
            std::string::npos);
  status.reconnects = 1;
  const std::string degraded = obs::RenderProcessStatus(status);
  EXPECT_NE(degraded.find("sep2p_health{verdict=\"degraded\"} 1"),
            std::string::npos);
  EXPECT_EQ(obs::HealthVerdict(0, 0), "ok");
  EXPECT_EQ(obs::HealthVerdict(1, 0), "degraded");
}

}  // namespace
}  // namespace sep2p
