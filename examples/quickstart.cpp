// Quickstart: build a SEP2P network, run one secure actor selection, and
// verify the resulting actor list as a data source would.
//
//   $ ./quickstart
//
// Uses real Ed25519 signatures on a 500-node network.

#include <cstdio>

#include "core/selection.h"
#include "core/verification.h"
#include "sim/network.h"

using namespace sep2p;

int main() {
  // 1. Provision a network of PDMSs: each node gets an Ed25519 key pair,
  //    a device certificate from the offline CA, and the imposed DHT
  //    location hash(public key).
  sim::Parameters params;
  params.n = 500;
  params.colluding_fraction = 0.01;  // 5 covert colluders
  params.actor_count = 8;
  params.cache_size = 64;
  params.provider = sim::Parameters::ProviderKind::kEd25519;
  params.seed = 7;

  auto network = sim::Network::Build(params);
  if (!network.ok()) {
    std::fprintf(stderr, "network build failed: %s\n",
                 network.status().ToString().c_str());
    return 1;
  }
  sim::Network& net = **network;
  std::printf("network: %s\n", params.ToString().c_str());
  std::printf("k-table (k, region size):");
  for (const auto& entry : net.ktable().entries()) {
    std::printf("  (%d, %.3g)", entry.k, entry.rs);
  }
  std::printf("\n\n");

  // 2. Any node can trigger a computation; node 42 asks for 8 randomly
  //    selected data processors.
  core::ProtocolContext ctx = net.context();
  core::SelectionProtocol selection(ctx);
  util::Rng rng(123);
  auto outcome = selection.Run(/*trigger_index=*/42, rng);
  if (!outcome.ok()) {
    std::fprintf(stderr, "selection failed: %s\n",
                 outcome.status().ToString().c_str());
    return 1;
  }

  std::printf("verifiable random RND_T = %s...\n",
              outcome->val.rnd_t.ShortHex().c_str());
  std::printf("execution setter: node %u (owner of hash(RND_T))\n",
              outcome->setter_index);
  std::printf("actor list (signed by %d setter-legitimate nodes):\n",
              outcome->val.k());
  for (size_t i = 0; i < outcome->actor_indices.size(); ++i) {
    const uint32_t actor = outcome->actor_indices[i];
    std::printf("  actor %zu: node %u  id=%s...%s\n", i, actor,
                net.directory().id(actor).ShortHex().c_str(),
                ctx.Colludes(actor) ? "  [covert colluder]" : "");
  }
  std::printf("setup cost: %s\n", outcome->cost.ToString().c_str());

  // 3. A data source verifies the list before disclosing anything:
  //    exactly 2k asymmetric crypto operations.
  auto decision =
      core::VerifyBeforeDisclosure(ctx, outcome->val, nullptr, nullptr);
  std::printf("\nverifier: %s (%.0f asymmetric ops = 2k)\n",
              decision.accepted ? "ACCEPTED" : "REJECTED",
              decision.cost.crypto_work);

  // 4. Tampering is caught: swap the random the attacker would need.
  auto forged =
      core::tamper::ReplaceRandom(outcome->val, crypto::Hash256::Of("evil"));
  auto caught = core::VerifyBeforeDisclosure(ctx, forged, nullptr, nullptr);
  std::printf("forged list: %s (%s)\n",
              caught.accepted ? "ACCEPTED (!!)" : "REJECTED",
              caught.reason.ToString().c_str());
  return caught.accepted ? 1 : 0;
}
