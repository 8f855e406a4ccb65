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

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "apps/concept_index.h"
#include "apps/diffusion.h"
#include "apps/proxy.h"
#include "apps/query.h"
#include "core/messages.h"
#include "core/protocol_service.h"
#include "core/selection.h"
#include "node/app_runtime.h"
#include "node/join.h"
#include "node/pdms_node.h"
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
    uint32_t processes, uint32_t nodes) {
  std::vector<std::unique_ptr<net::TcpTransport>> cluster;
  for (uint32_t p = 0; p < processes; ++p) {
    net::TcpTransport::Options options;
    options.node_count = nodes;
    options.process_count = processes;
    options.process_index = p;
    options.listen_port = 0;  // ephemeral: read back after Start
    options.seed = 1000 + p;
    options.retry = FastRetry();
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

TEST(TcpTransportTest, EngagementNoncesAreNonzeroAndProcessBranded) {
  net::TcpTransport::Options options;
  options.node_count = 4;
  options.process_count = 2;
  options.process_index = 1;
  net::TcpTransport transport(options);  // never started: nonces only
  EXPECT_TRUE(transport.remote_dispatch());
  EXPECT_FALSE(transport.SetVirtualTime(100));  // wall-clock transport
  uint64_t a = transport.NewEngagementNonce();
  uint64_t b = transport.NewEngagementNonce();
  EXPECT_NE(a, 0u);
  EXPECT_NE(a, b);
  EXPECT_EQ(a >> 48, 2u);  // process_index + 1 brands the high bits
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
  apps::EnsureProxyHandlers(*peer->runtime);
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
