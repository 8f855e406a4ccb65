// TcpTransport integration tests: the SAME protocol translation units
// that run against the simulator run here over real loopback sockets
// between several TcpTransport instances (one per emulated "process",
// all inside this test binary — node i is hosted by transport i % P).
//
// The suite name matters: CI's TSan job selects it via the
// `|TcpTransport` filter, so driver-thread vs service-thread races are
// caught under instrumentation.

#include "net/tcp_transport.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/concept_index.h"
#include "apps/diffusion.h"
#include "apps/query.h"
#include "core/messages.h"
#include "core/protocol_service.h"
#include "core/selection.h"
#include "node/app_runtime.h"
#include "node/join.h"
#include "node/pdms_node.h"
#include "net/sim_network.h"
#include "obs/checker.h"
#include "obs/cluster.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/network.h"
#include "util/rng.h"

namespace sep2p {
namespace {

net::RetryPolicy FastRetry() {
  net::RetryPolicy retry;
  retry.timeout_us = 2'000'000;  // generous for TSan-slowed loopback
  retry.max_attempts = 2;
  retry.backoff_base_us = 10'000;
  retry.jitter_fraction = 0.0;
  return retry;
}

// P bare transports in this process, fully meshed over ephemeral
// loopback ports, no protocol state on top.
std::vector<std::unique_ptr<net::TcpTransport>> MakeBareCluster(
    uint32_t processes, uint32_t nodes,
    const net::RetryPolicy& retry = FastRetry()) {
  std::vector<std::unique_ptr<net::TcpTransport>> cluster;
  for (uint32_t p = 0; p < processes; ++p) {
    net::TcpTransport::Options options;
    options.node_count = nodes;
    options.process_count = processes;
    options.process_index = p;
    options.listen_port = 0;  // ephemeral: read back after Start
    options.seed = 1000 + p;
    options.retry = retry;
    cluster.push_back(std::make_unique<net::TcpTransport>(options));
  }
  for (auto& t : cluster) EXPECT_TRUE(t->Start().ok());
  for (uint32_t p = 0; p < processes; ++p) {
    for (uint32_t q = 0; q < processes; ++q) {
      if (p == q) continue;
      cluster[p]->SetPeer(q, "127.0.0.1", cluster[q]->listen_port());
    }
  }
  for (auto& t : cluster) EXPECT_TRUE(t->WaitForPeers(20000).ok());
  return cluster;
}

net::Transport::Handler EchoWithServer() {
  return [](uint32_t server, const std::vector<uint8_t>& request)
             -> std::optional<std::vector<uint8_t>> {
    std::vector<uint8_t> reply = request;
    reply.push_back(static_cast<uint8_t>(server));
    return reply;
  };
}

TEST(TcpTransportTest, RegisteredDispatchLocalAndRemote) {
  auto cluster = MakeBareCluster(/*processes=*/2, /*nodes=*/6);
  for (auto& t : cluster) {
    t->Register(core::msg::kTagAppAck, EchoWithServer());
  }
  const std::vector<uint8_t> request =
      core::msg::Encode(core::msg::AppAck{});

  // Node 2 lives in process 0: the call short-circuits through the
  // local dispatch table without a socket.
  net::Transport::RpcResult local = cluster[0]->Call(0, 2, request);
  ASSERT_TRUE(local.ok);
  ASSERT_EQ(local.reply.size(), request.size() + 1);
  EXPECT_EQ(local.reply.back(), 2);

  // Node 3 lives in process 1: the same call crosses a real socket and
  // is answered by the peer transport's registered handler.
  net::Transport::RpcResult remote = cluster[0]->Call(0, 3, request);
  ASSERT_TRUE(remote.ok);
  ASSERT_EQ(remote.reply.size(), request.size() + 1);
  EXPECT_EQ(remote.reply.back(), 3);

  // A per-call handler must be IGNORED — the server process answers
  // from its own table (the honest-execution contract).
  net::Transport::RpcResult ignored = cluster[0]->Call(
      0, 3, request,
      [](uint32_t, const std::vector<uint8_t>&)
          -> std::optional<std::vector<uint8_t>> {
        return std::vector<uint8_t>{0xff};
      });
  ASSERT_TRUE(ignored.ok);
  EXPECT_EQ(ignored.reply.back(), 3);

  for (auto& t : cluster) t->Stop();  // joins threads: stats safe to read
  EXPECT_GE(cluster[0]->stats().messages_sent, 3u);
  EXPECT_GT(cluster[1]->stats().messages_delivered, 0u);
  EXPECT_EQ(cluster[0]->stats().rpc_failures, 0u);
}

TEST(TcpTransportTest, UnknownTagAndGarbageAreRefusedCleanly) {
  auto cluster = MakeBareCluster(/*processes=*/2, /*nodes=*/4);

  // Valid magic, but no handler registered anywhere for the tag: the
  // remote dispatch refuses and the caller fails after its attempts —
  // no crash, no hang.
  net::Transport::RpcResult refused =
      cluster[0]->Call(0, 1, core::msg::Encode(core::msg::AppAck{}));
  EXPECT_FALSE(refused.ok);

  // Garbage bytes (bad message magic) are refused the same way.
  net::Transport::RpcResult garbage =
      cluster[0]->Call(0, 1, {0xde, 0xad, 0xbe, 0xef, 0x00});
  EXPECT_FALSE(garbage.ok);

  for (auto& t : cluster) t->Stop();
  EXPECT_GE(cluster[0]->stats().rpc_failures, 2u);
}

// Register takes the lock dispatch runs under, so a tag can be
// registered again while the transports serve it: one thread keeps
// calling a local and a remote node while another re-registers the tag
// on both transports, and every call is answered.
TEST(TcpTransportTest, RegisterWhileServing) {
  auto cluster = MakeBareCluster(/*processes=*/2, /*nodes=*/4);
  for (auto& t : cluster) {
    t->Register(core::msg::kTagAppAck, EchoWithServer());
  }
  const std::vector<uint8_t> request =
      core::msg::Encode(core::msg::AppAck{});
  std::atomic<bool> done{false};
  std::atomic<int> registrations{0};
  std::thread registrar([&] {
    while (!done.load()) {
      for (auto& t : cluster) {
        t->Register(core::msg::kTagAppAck, EchoWithServer());
      }
      registrations.fetch_add(1);
      std::this_thread::yield();
    }
  });
  while (registrations.load() == 0) std::this_thread::yield();

  // Node 2 lives in process 0 (local dispatch), node 3 in process 1
  // (across a socket). A loaded machine need not give the registrar a
  // turn during 200 short calls, so after the first round the caller
  // waits (at most 10 s) until it has registered again.
  const int kRounds = 100;
  const int registered_before = registrations.load();
  int answered = 0;
  for (int round = 0; round < kRounds; ++round) {
    for (uint32_t server : {2u, 3u}) {
      net::Transport::RpcResult rpc = cluster[0]->Call(0, server, request);
      if (rpc.ok && rpc.reply.back() == server) ++answered;
    }
    if (round == 0) {
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (registrations.load() <= registered_before &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
    }
  }
  done.store(true);
  registrar.join();
  EXPECT_EQ(answered, 2 * kRounds);
  EXPECT_GT(registrations.load(), 1);

  for (auto& t : cluster) t->Stop();
  EXPECT_EQ(cluster[0]->stats().rpc_failures, 0u);
}

// One transport under observation: its recorder and metrics registry.
struct Observed {
  net::Transport* transport = nullptr;
  obs::TraceRecorder recorder;
  obs::MetricsRegistry metrics;

  explicit Observed(net::Transport* t) : transport(t) {
    transport->set_trace(&recorder);
    transport->set_metrics(&metrics);
  }
};

// Runs `rpcs` on a SimNetwork, on a 1-process TcpTransport and across a
// 2-process pair; every transport registers a fresh `make_handler()`
// for AppAck. The client is node 0 and the server node 1, which the
// pair hosts in its second process. `check` sees each run's transports
// after they stopped, the client's first, and the run's name.
void OnEveryTransport(
    const net::RetryPolicy& retry,
    const std::function<net::Transport::Handler()>& make_handler,
    const std::function<void(net::Transport&)>& rpcs,
    const std::function<void(std::vector<std::unique_ptr<Observed>>&,
                             const std::string&)>& check) {
  {
    net::SimNetwork sim(2, net::kIdealLink, retry, /*seed=*/1);
    std::vector<std::unique_ptr<Observed>> observed;
    observed.push_back(std::make_unique<Observed>(&sim));
    sim.Register(core::msg::kTagAppAck, make_handler());
    rpcs(sim);
    sim.FinalizeTrace();
    check(observed, "sim");
  }
  for (uint32_t processes : {1u, 2u}) {
    auto cluster = MakeBareCluster(processes, /*nodes=*/2, retry);
    std::vector<std::unique_ptr<Observed>> observed;
    for (auto& t : cluster) {
      observed.push_back(std::make_unique<Observed>(t.get()));
      t->Register(core::msg::kTagAppAck, make_handler());
    }
    rpcs(*cluster[0]);
    for (auto& t : cluster) t->Stop();  // joins threads: obs safe to read
    for (auto& t : cluster) t->FinalizeTrace();
    check(observed, "tcp-" + std::to_string(processes));
  }
}

uint64_t CountEvents(const std::vector<std::unique_ptr<Observed>>& observed,
                     obs::EventKind kind) {
  uint64_t n = 0;
  for (const auto& o : observed) {
    for (const obs::Event& e : o->recorder.trace().events) {
      n += e.kind == kind ? 1 : 0;
    }
  }
  return n;
}

net::Transport::Stats SumStats(
    const std::vector<std::unique_ptr<Observed>>& observed) {
  net::Transport::Stats sum;
  for (const auto& o : observed) {
    const net::Transport::Stats& s = o->transport->stats();
    sum.messages_sent += s.messages_sent;
    sum.messages_delivered += s.messages_delivered;
    sum.bytes_sent += s.bytes_sent;
    sum.timeouts += s.timeouts;
    sum.retries += s.retries;
    sum.rpc_failures += s.rpc_failures;
  }
  return sum;
}

uint64_t SumCounter(const std::vector<std::unique_ptr<Observed>>& observed,
                    obs::Counter c) {
  uint64_t n = 0;
  for (const auto& o : observed) n += o->metrics.counter(c);
  return n;
}

// An RPC is a request and a reply: two messages sent and two delivered,
// whether SimNetwork carries it, a TcpTransport serves it in-process, or
// it crosses a socket (summed over both processes).
TEST(TcpTransportTest, OneRpcIsTwoMessagesLocalOrRemote) {
  const std::vector<uint8_t> request =
      core::msg::Encode(core::msg::AppAck{});
  OnEveryTransport(
      FastRetry(), EchoWithServer,
      [&](net::Transport& t) { EXPECT_TRUE(t.Call(0, 1, request).ok); },
      [&](std::vector<std::unique_ptr<Observed>>& observed,
          const std::string& run) {
        SCOPED_TRACE(run);
        const net::Transport::Stats stats = SumStats(observed);
        EXPECT_EQ(stats.messages_sent, 2u);
        EXPECT_EQ(stats.messages_delivered, 2u);
        // The echo appends the server's id: the reply is one byte longer.
        EXPECT_EQ(stats.bytes_sent, 2 * request.size() + 1);
        EXPECT_EQ(SumCounter(observed, obs::Counter::kMessagesSent), 2u);
        EXPECT_EQ(SumCounter(observed, obs::Counter::kMessagesDelivered),
                  2u);
        EXPECT_EQ(SumCounter(observed, obs::Counter::kBytesSent),
                  2 * request.size() + 1);
        EXPECT_EQ(CountEvents(observed, obs::EventKind::kSend), 2u);
        EXPECT_EQ(CountEvents(observed, obs::EventKind::kDeliver), 2u);
      });
}

// The client's lifecycle events, one string per RPC in begin order:
// B(egin), A(ttempt), T(imeout), R(etry), E(nd) and F(ail), each with
// its value.
std::vector<std::string> Lifecycles(const obs::Trace& trace) {
  static const std::map<obs::EventKind, char> kLetters = {
      {obs::EventKind::kRpcBegin, 'B'}, {obs::EventKind::kAttempt, 'A'},
      {obs::EventKind::kTimeout, 'T'},  {obs::EventKind::kRetry, 'R'},
      {obs::EventKind::kRpcEnd, 'E'},   {obs::EventKind::kRpcFail, 'F'}};
  std::vector<std::string> out;
  std::map<uint64_t, size_t> index;  // rpc id -> slot in `out`
  for (const obs::Event& e : trace.events) {
    auto letter = kLetters.find(e.kind);
    if (letter == kLetters.end()) continue;
    auto [it, fresh] = index.emplace(e.rpc, out.size());
    if (fresh) out.emplace_back();
    std::string& line = out[it->second];
    if (!line.empty()) line += ' ';
    line += letter->second + std::to_string(e.value);
  }
  return out;
}

// Refuses each server's first two requests, then echoes.
net::Transport::Handler RefuseTwiceThenEcho() {
  auto seen = std::make_shared<std::map<uint32_t, int>>();
  return [seen](uint32_t server, const std::vector<uint8_t>& request)
             -> std::optional<std::vector<uint8_t>> {
    if (++(*seen)[server] <= 2) return std::nullopt;
    return request;
  };
}

// The retry loop is one state machine on every transport: the same
// lifecycle events in the same order with the same values, the same
// counters, and traces the checker accepts.
TEST(TcpTransportTest, RetryLifecycleMatchesSimNetwork) {
  net::RetryPolicy retry = FastRetry();
  retry.max_attempts = 4;
  retry.backoff_base_us = 1'000;
  const std::vector<uint8_t> served = core::msg::Encode(core::msg::AppAck{});
  // No node serves this tag.
  const std::vector<uint8_t> unserved =
      core::msg::Encode(core::msg::DiffusionAccept{});
  OnEveryTransport(
      retry, RefuseTwiceThenEcho,
      [&](net::Transport& t) {
        net::Transport::RpcResult ok = t.Call(0, 1, served);
        EXPECT_TRUE(ok.ok);
        EXPECT_EQ(ok.attempts, 3);
        net::Transport::RpcResult failed = t.Call(0, 1, unserved);
        EXPECT_FALSE(failed.ok);
        EXPECT_EQ(failed.attempts, 4);
      },
      [&](std::vector<std::unique_ptr<Observed>>& observed,
          const std::string& run) {
        SCOPED_TRACE(run);
        EXPECT_EQ(Lifecycles(observed[0]->recorder.trace()),
                  (std::vector<std::string>{
                      "B0 A1 T1 R2 A2 T2 R3 A3 E3",
                      "B0 A1 T1 R2 A2 T2 R3 A3 T3 R4 A4 T4 F4"}));
        const net::Transport::Stats stats = SumStats(observed);
        EXPECT_EQ(stats.timeouts, 6u);
        EXPECT_EQ(stats.retries, 5u);
        EXPECT_EQ(stats.rpc_failures, 1u);
        // Six requests and the one reply.
        EXPECT_EQ(stats.messages_sent, 7u + 1u);
        EXPECT_EQ(stats.messages_delivered, 7u + 1u);

        obs::Trace trace = observed[0]->recorder.trace();
        if (observed.size() > 1) {
          std::vector<obs::Trace> shards;
          for (const auto& o : observed) shards.push_back(o->recorder.trace());
          auto merged = obs::MergeCluster(std::move(shards));
          ASSERT_TRUE(merged.ok()) << merged.status().ToString();
          trace = std::move(merged.value());
        }
        const obs::CheckerReport report = obs::CheckTrace(trace);
        EXPECT_TRUE(report.ok()) << (report.violations.empty()
                                         ? "?"
                                         : report.violations.front());
        EXPECT_EQ(report.sends, 8u);
        EXPECT_EQ(report.delivers, 8u);
        EXPECT_EQ(report.retries, 5u);
      });
}

TEST(TcpTransportTest, EngagementNoncesAreNonzeroAndProcessBranded) {
  net::TcpTransport::Options options;
  options.node_count = 4;
  options.process_count = 2;
  options.process_index = 1;
  net::TcpTransport transport(options);  // never started: nonces only
  EXPECT_TRUE(transport.remote_dispatch());
  uint64_t a = transport.NewEngagementNonce();
  uint64_t b = transport.NewEngagementNonce();
  EXPECT_NE(a, 0u);
  EXPECT_NE(a, b);
  EXPECT_EQ(a >> 48, 2u);  // process_index + 1 brands the high bits
}

// The resident attestor (ProtocolService's AttestRequest handler) signs
// the digest a request names once the request's preimage binds it, and
// refuses a bare digest or a preimage that hashes to something else.
TEST(TcpTransportTest, ResidentAttestorSignsTheRequestDigest) {
  sim::Parameters params;
  params.n = 200;
  params.cache_size = 64;
  params.seed = 17;
  params.threads = 1;
  auto world = sim::Network::Build(params);
  ASSERT_TRUE(world.ok()) << world.status().ToString();
  const core::ProtocolContext ctx = world.value()->context();
  const dht::Directory& dir = world.value()->directory();
  auto cluster = MakeBareCluster(/*processes=*/1,
                                 static_cast<uint32_t>(dir.size()));
  core::ProtocolService service(ctx, *cluster[0]);
  const uint32_t attestor = 5;

  const std::vector<uint8_t> preimage(40, 0x5a);
  core::msg::AttestRequest request;
  request.digest = crypto::Hash256::Of(preimage.data(), preimage.size());
  request.preimage = preimage;
  net::Transport::RpcResult signed_reply =
      cluster[0]->Call(0, attestor, core::msg::Encode(request));
  ASSERT_TRUE(signed_reply.ok);
  Result<core::msg::Attestation> att =
      core::msg::Decode<core::msg::Attestation>(signed_reply.reply);
  ASSERT_TRUE(att.ok()) << att.status().ToString();
  EXPECT_EQ(att->cert.subject, dir.pub(attestor));
  EXPECT_TRUE(ctx.provider->Verify(dir.pub(attestor),
                                   request.digest.bytes().data(),
                                   request.digest.bytes().size(), att->sig));
  EXPECT_FALSE(ctx.provider->Verify(dir.pub(attestor), preimage, att->sig));

  core::msg::AttestRequest bare;
  bare.digest = request.digest;
  EXPECT_FALSE(cluster[0]->Call(0, attestor, core::msg::Encode(bare)).ok);

  core::msg::AttestRequest mismatched = request;
  mismatched.preimage.back() ^= 0x01;
  EXPECT_FALSE(
      cluster[0]->Call(0, attestor, core::msg::Encode(mismatched)).ok);

  cluster[0]->Stop();
}

// ---------------------------------------------------------------------
// Full protocol stack over sockets: one replicated world per emulated
// process, resident ProtocolService + apps, driver in "process" 0 —
// exactly what `sep2p_cli cluster` does, in-process for the harness.

struct LivePeer {
  std::unique_ptr<sim::Network> world;
  std::unique_ptr<net::TcpTransport> transport;
  core::ProtocolContext ctx;  // referenced by `service`: must not move
  std::unique_ptr<core::ProtocolService> service;
  std::vector<node::PdmsNode> pdms;
  std::unique_ptr<node::AppRuntime> runtime;
  std::unique_ptr<apps::ConceptIndex> index;
  std::unique_ptr<apps::DiffusionApp> diffusion;
  std::unique_ptr<apps::QueryApp> query;
};

std::vector<node::PdmsNode> ReplicatedPdms(size_t n) {
  // Pure function of n, like sim::Network::Build is of the seed: every
  // peer derives identical PDMS contents without any synchronization.
  std::vector<node::PdmsNode> pdms;
  for (uint32_t i = 0; i < n; ++i) pdms.emplace_back(i);
  for (uint32_t i = 0; i < pdms.size(); ++i) {
    if (i % 3 == 0) pdms[i].AddConcept("commuter");
    pdms[i].SetAttribute("km_per_day", static_cast<double>(i % 40));
  }
  return pdms;
}

std::unique_ptr<LivePeer> MakeLivePeer(const sim::Parameters& params,
                                       uint32_t processes,
                                       uint32_t process_index) {
  auto peer = std::make_unique<LivePeer>();
  auto world = sim::Network::Build(params);
  if (!world.ok()) return nullptr;
  peer->world = std::move(world.value());
  const uint32_t node_count =
      static_cast<uint32_t>(peer->world->directory().size());

  net::TcpTransport::Options topt;
  topt.node_count = node_count;
  topt.process_count = processes;
  topt.process_index = process_index;
  topt.listen_port = 0;
  topt.seed = params.seed ^ (0x7c1ULL + process_index);
  topt.retry = FastRetry();
  peer->transport = std::make_unique<net::TcpTransport>(topt);

  peer->ctx = peer->world->context();
  core::ProtocolService::Options popt;
  popt.rng_seed = params.seed ^ (0x5e21ULL + process_index * 0x9e37ULL);
  peer->service = std::make_unique<core::ProtocolService>(
      peer->ctx, *peer->transport, popt);

  peer->pdms = ReplicatedPdms(node_count);
  peer->runtime = std::make_unique<node::AppRuntime>(peer->transport.get());
  peer->index = std::make_unique<apps::ConceptIndex>(peer->world.get(),
                                                     peer->runtime.get());
  peer->diffusion = std::make_unique<apps::DiffusionApp>(
      peer->world.get(), &peer->pdms, peer->index.get(),
      peer->runtime.get());
  peer->query = std::make_unique<apps::QueryApp>(
      peer->world.get(), &peer->pdms, peer->index.get(),
      peer->runtime.get());

  if (!peer->transport->Start().ok()) return nullptr;
  return peer;
}

TEST(TcpTransportTest, CrossProcessProtocolStack) {
  sim::Parameters params;
  params.n = 400;
  params.cache_size = 128;
  params.actor_count = 4;
  params.seed = 42;
  params.threads = 1;

  const uint32_t kProcesses = 2;
  std::vector<std::unique_ptr<LivePeer>> peers;
  for (uint32_t p = 0; p < kProcesses; ++p) {
    peers.push_back(MakeLivePeer(params, kProcesses, p));
    ASSERT_NE(peers.back(), nullptr) << "peer " << p;
  }
  for (uint32_t p = 0; p < kProcesses; ++p) {
    for (uint32_t q = 0; q < kProcesses; ++q) {
      if (p == q) continue;
      peers[p]->transport->SetPeer(q, "127.0.0.1",
                                   peers[q]->transport->listen_port());
    }
  }
  for (auto& peer : peers) {
    ASSERT_TRUE(peer->transport->WaitForPeers(20000).ok());
  }

  LivePeer& driver = *peers[0];
  util::Rng rng(params.seed ^ 0xc105ULL);

  // Profiles to the metadata indexers (half of which live in the other
  // "process"), through anonymizing proxies.
  ASSERT_TRUE(driver.diffusion->PublishAllProfiles(rng).ok());

  // Attested join (§3.6): cache validators answer from the resident
  // ProtocolService in whichever process hosts them.
  node::JoinProtocol join(driver.ctx, *driver.transport);
  auto joined = join.Join(1, rng);
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();
  EXPECT_GT(joined->cache.size(), 0u);

  // Secure actor selection (§3.4–3.5): CSAR commit-reveal plus the
  // imposed-location walk, SLs spread over both transports; the VAL it
  // produces must verify exactly as a data source would check it.
  core::ProtocolContext sel_ctx = driver.ctx;
  sel_ctx.actor_count = params.actor_count;
  int restarts = 0;
  auto selected =
      driver.runtime->RunSelection(sel_ctx, 2, rng, 8, &restarts);
  ASSERT_TRUE(selected.ok()) << selected.status().ToString();
  EXPECT_EQ(selected->actor_indices.size(),
            static_cast<size_t>(params.actor_count));
  EXPECT_TRUE(core::VerifyActorList(driver.ctx, selected->val).ok());

  // Distributed query (§5): the driver deploys the round to the chosen
  // aggregators by QueryDeploy, sources contribute via proxies, and the
  // driver learns ONLY flushed aggregates (QueryFlush), never the
  // per-value stream a sim run records.
  apps::QuerySpec spec;
  spec.profile_expression = "commuter";
  spec.attribute = "km_per_day";
  spec.aggregate = apps::Aggregate::kAvg;
  auto result = driver.query->Execute(3, spec, rng);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->answer_delivered);
  EXPECT_GT(result->contributors, 0u);
  EXPECT_EQ(result->lost_contributions, 0);
  EXPECT_GE(result->value, 0.0);
  EXPECT_LT(result->value, 40.0);  // km_per_day ranges over [0, 40)
  EXPECT_TRUE(result->values_seen_by_da.empty());  // privacy: aggregates only

  for (auto& peer : peers) peer->transport->Stop();
  // Genuine cross-socket traffic happened: the non-driver peer
  // dispatched requests it received over TCP.
  EXPECT_GT(peers[1]->transport->stats().messages_delivered, 0u);
  EXPECT_EQ(peers[0]->transport->stats().rpc_failures, 0u);
}

}  // namespace
}  // namespace sep2p
