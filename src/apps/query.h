// Use case 3: distributed aggregate queries over profiled nodes
// (paper §5.1-§5.3).
//
// "Find the average number of sick-leave days of pilots in their
// forties": the query carries a target profile expression and an
// aggregate over a numeric attribute. Processing is use case 2 followed
// by use case 1, entirely over the message network:
//
//   1. Target finding — TFs resolve the profile expression through the
//      concept index (MIs verify the actor list before disclosing).
//      Only an unreachable TF quorum restarts target finding (fresh
//      RND_T); every later failure degrades the answer instead.
//   2. Aggregation — the matching target nodes (TNs) become data
//      sources: each verifies the actor list, then sends its attribute
//      value to a data aggregator *through a random proxy*, sealed to
//      the DA's key (apps/proxy.h): the DA gets values without
//      identities, the proxy identities without values. A crashed DA is
//      routed around by re-sealing to the next DA slot (failover); a
//      contribution that exhausts every DA is lost and the answer
//      simply counts fewer contributors.
//   3. The DAs ship per-slot partial statistics to the MDA, which
//      combines them and answers the querier only.
//
// The app registers its tags (QueryDeploy, QueryFlush, SealedDelivery,
// QueryAnswer, and the proxy relay) once, when it is constructed: one
// QueryApp per transport serves them, and it must outlive the
// transport's last dispatch. Each handler reads the current round's
// state, so only that round's DAs open sealed deliveries (any other
// node just acknowledges one) and only its MDA and querier take answers
// (any other node refuses, and so does every node before the first
// round).

#ifndef SEP2P_APPS_QUERY_H_
#define SEP2P_APPS_QUERY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "apps/concept_index.h"
#include "apps/diffusion.h"
#include "node/app_runtime.h"
#include "node/pdms_node.h"
#include "sim/network.h"

namespace sep2p::apps {

enum class Aggregate { kCount, kSum, kAvg, kMin, kMax };

struct QuerySpec {
  std::string profile_expression;  // which nodes contribute
  std::string attribute;           // which value they contribute
  Aggregate aggregate = Aggregate::kAvg;
};

class QueryApp {
 public:
  QueryApp(sim::Network* network, std::vector<node::PdmsNode>* pdms,
           ConceptIndex* index, node::AppRuntime* runtime);

  // The registered handlers hold this app's address.
  QueryApp(const QueryApp&) = delete;
  QueryApp& operator=(const QueryApp&) = delete;

  struct QueryResult {
    double value = 0;
    uint64_t contributors = 0;  // distinct contributions merged at the MDA
    std::vector<uint32_t> aggregators;
    net::Cost target_finding_cost;  // phase 1 (diffusion) alone
    net::Cost selection_cost;       // the aggregator selection alone
    net::Cost cost;                 // target finding + selection + measured
    // Knowledge-separation trace for the privacy tests.
    std::vector<double> values_seen_by_da;      // no identities attached
    std::vector<uint32_t> senders_seen_by_proxies;  // no values attached
    // Degraded-completion accounting.
    int selection_restarts = 0;       // aggregator selection restarts
    int target_finding_restarts = 0;  // TF selection restarts (phase 1)
    int da_failovers = 0;       // contributions re-routed past a dead DA
    int lost_contributions = 0; // targets no DA could receive
    bool answer_delivered = false;  // MDA -> querier answer landed
    uint64_t selection_done_us = 0;  // virtual clock after phase 2
    uint64_t round_latency_us = 0;   // whole query, virtual clock
  };

  Result<QueryResult> Execute(uint32_t querier_index, const QuerySpec& spec,
                              util::Rng& rng);

 private:
  // Per-query DA/MDA/querier message state, reset by Execute.
  struct Partial {
    uint64_t count = 0;
    double sum = 0;
    double min = 0;
    double max = 0;
  };
  struct RoundState {
    uint64_t round_id = 0;                  // 0 in sim runs (no deploy)
    uint32_t querier = 0;
    uint32_t mda = 0;
    std::map<uint32_t, size_t> slot_of;     // DA node -> slot
    std::set<uint64_t> seen_contributions;  // dedup ids (round-global)
    std::vector<Partial> partials;          // per DA slot
    std::vector<double> values_seen;        // flat DA-side value trace
    Partial merged;                         // MDA view
    std::set<uint32_t> merged_slots;        // dedup partials
    bool answered = false;                  // querier view
    Partial answer;                         // what the querier received
  };

  // Installs the round's DA/MDA/querier state, which the handlers read.
  // Execute calls it directly in sim runs (this process hosts every
  // node); in remote runs it is reached only through the QueryDeploy
  // handler, so every hosting process — the driver's own included —
  // installs its replica on the dispatch path.
  void InstallRound(uint64_t round_id, uint32_t querier_index,
                    const std::vector<uint32_t>& aggregators);

  sim::Network* network_;
  std::vector<node::PdmsNode>* pdms_;
  ConceptIndex* index_;
  node::AppRuntime* runtime_;
  DiffusionApp finder_;  // phase-1 machinery (owns the offer handler)
  std::unique_ptr<RoundState> round_;
};

}  // namespace sep2p::apps

#endif  // SEP2P_APPS_QUERY_H_
