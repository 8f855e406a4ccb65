// §3.6 in action: joining the network with attested node caches, and
// what the cache-validity machinery rejects.
//
// A newcomer must bootstrap a *valid* node cache — containing only
// genuine PDMSs — because SEP2P's candidate lists inherit their
// trustworthiness from it. The newcomer asks its ring neighbors for
// their caches, each attested by k legitimate nodes, verifies the
// attestations, and unions the results. A forged cache (say, stuffed
// with a Sybil identity) fails verification.

#include <cstdio>

#include "net/sim_network.h"
#include "node/churn.h"
#include "node/join.h"
#include "node/node_cache.h"
#include "sim/network.h"

using namespace sep2p;

int main() {
  sim::Parameters params;
  params.n = 1200;
  params.colluding_fraction = 0.01;
  params.cache_size = 128;
  params.seed = 99;

  auto network = sim::Network::Build(params);
  if (!network.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 network.status().ToString().c_str());
    return 1;
  }
  sim::Network& net = **network;
  core::ProtocolContext ctx = net.context();
  util::Rng rng(7);

  // --- A node joins and bootstraps its cache. The attestation requests
  // travel as messages over an in-process network with ideal links.
  net::SimNetwork simnet(
      static_cast<uint32_t>(net.directory().size()), net::kIdealLink,
      net::RetryPolicy{}, /*seed=*/0);
  const uint32_t newcomer = 321;
  node::JoinProtocol join(ctx, simnet);
  auto outcome = join.Join(newcomer, rng);
  if (!outcome.ok()) {
    std::fprintf(stderr, "join failed: %s\n",
                 outcome.status().ToString().c_str());
    return 1;
  }
  node::NodeCache truth(&net.directory(), newcomer, ctx.rs3);
  std::printf("node %u joined between predecessor %u and successor %u\n",
              newcomer, outcome->predecessor, outcome->successor);
  std::printf("bootstrapped cache: %zu validated entries (ground truth "
              "coverage: %zu)\n",
              outcome->cache.size(), truth.Entries().size());
  std::printf("join cost: %s\n\n", outcome->cost.ToString().c_str());

  // --- What the attestation machinery guarantees.
  auto attested = join.AttestCache(outcome->successor, rng);
  if (!attested.ok()) return 1;
  auto verified = node::VerifyAttestedCache(ctx, *attested);
  std::printf("successor's cache: %zu entries attested by k = %d nodes; "
              "verification: %s (%.0f asym ops)\n",
              attested->entries.size(), attested->k(),
              verified.ok() ? "OK" : "REJECTED",
              verified.ok() ? verified->crypto_work : 0.0);

  node::AttestedCache forged = *attested;
  crypto::PublicKey sybil{};
  sybil[7] = 0x77;
  forged.entries.push_back(sybil);  // smuggle a fabricated identity
  auto caught = node::VerifyAttestedCache(ctx, forged);
  std::printf("forged cache with a Sybil entry: %s (%s)\n\n",
              caught.ok() ? "ACCEPTED (!!)" : "REJECTED",
              caught.ok() ? "" : caught.status().ToString().c_str());

  // --- What keeping caches fresh costs under churn (Figure 8's model).
  std::printf("maintenance under churn (cache = %zu, k = %d):\n",
              params.cache_size, net.ktable().k_max());
  for (double mtbf_hours : {6.0, 24.0, 120.0}) {
    auto report = node::ChurnSimulator::Analytic(
        params.n, net.ktable().k_max(), params.cache_size, mtbf_hours);
    std::printf("  MTBF %5.0fh -> %.3f asym ops/node/min, %.3f msgs\n",
                mtbf_hours, report.crypto_ops_per_node_per_min,
                report.messages_per_node_per_min);
  }
  return caught.ok() ? 1 : 0;
}
