// Use case 2: subscription / profile-based targeted data diffusion
// (paper §5.1-§5.2).
//
// A publisher wants a message delivered to exactly the nodes whose
// profile matches a logical expression of concepts, without any party
// learning the full subscriber base:
//
//   1. The publisher runs the SEP2P actor selection over the message
//      network; the actors become target finders (TFs).
//   2. For each positive concept of the expression, a TF looks up the
//      distributed concept index over the network. The metadata
//      indexers are verifiers: they check the verifiable actor list
//      (2k ops) before releasing their index slice. An unreachable MI
//      skips its concept (degraded) instead of failing the round.
//   3. The TFs send each candidate a DiffusionOffer (expression +
//      payload) in one parallel wave; the candidate evaluates the
//      expression against its own, LOCAL concepts and consents by
//      keeping the message and accepting. No party ever reads another
//      node's profile directly — the candidate's PDMS decides.
//   4. The target set is the accepted candidates.
//
// Task atomicity: each MI discloses one concept slice (or only a Shamir
// share of it), each TF sees candidate ids and accept/reject bits but
// not the users' other concepts, and the publisher never learns the
// subscriber base unless it is itself a target.

#ifndef SEP2P_APPS_DIFFUSION_H_
#define SEP2P_APPS_DIFFUSION_H_

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "apps/concept_index.h"
#include "apps/profile_expression.h"
#include "node/app_runtime.h"
#include "node/pdms_node.h"
#include "sim/network.h"

namespace sep2p::apps {

class DiffusionApp {
 public:
  // The constructor registers the candidate-side offer handler on the
  // runtime; all four pointers must outlive the app.
  DiffusionApp(sim::Network* network, std::vector<node::PdmsNode>* pdms,
               ConceptIndex* index, node::AppRuntime* runtime);

  // The registered handler holds this app's address.
  DiffusionApp(const DiffusionApp&) = delete;
  DiffusionApp& operator=(const DiffusionApp&) = delete;

  // Registers every PDMS's concepts in the index.
  Result<net::Cost> PublishAllProfiles(util::Rng& rng);

  struct DiffusionResult {
    std::vector<uint32_t> targets;        // nodes that matched + received
    std::vector<uint32_t> target_finders; // the TF actors
    int indexers_contacted = 0;
    int indexer_rejections = 0;  // MIs that refused a tampered VAL
    int candidates_contacted = 0;  // offers sent
    net::Cost selection_cost;    // the selection alone
    net::Cost cost;              // selection + measured app traffic
    // Degraded-completion accounting.
    int selection_restarts = 0;
    int indexer_failures = 0;  // unreachable MIs (concept skipped)
    int offer_failures = 0;    // candidates whose offer RPC failed
    uint64_t round_latency_us = 0;
  };

  // Diffuses `message` to every node matching `expression_text`.
  Result<DiffusionResult> Diffuse(uint32_t publisher_index,
                                  const std::string& expression_text,
                                  const std::string& message,
                                  util::Rng& rng);

 private:
  sim::Network* network_;
  std::vector<node::PdmsNode>* pdms_;
  ConceptIndex* index_;
  node::AppRuntime* runtime_;
  std::set<uint64_t> delivered_offers_;  // candidate-side dedup
};

}  // namespace sep2p::apps

#endif  // SEP2P_APPS_DIFFUSION_H_
