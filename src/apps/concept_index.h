// Distributed concept index (paper §5.1 use case 2 and §5.3 metadata
// index protection).
//
// Every node stores, for each concept of its profile, a posting
// (concept -> node id) at the DHT owner of hash(concept). The imposed
// node locations randomize the association between concepts and metadata
// indexers (MIs). To keep a single corrupted MI from disclosing the
// postings it hosts, each posting can be split into `s` Shamir shares
// with threshold `p`: share i of a posting for concept c is stored at
// the owner of hash(c#i), so reconstructing any posting requires p
// colluding MIs that the attacker does not get to choose.
//
// Shares travel as typed wire messages over the node::AppRuntime
// (ConceptStore to publish, ConceptQuery/ConceptShares to look up), so
// an unreachable MI degrades a lookup (indexer_unreachable) instead of
// aborting it, and a share lost in transit merely drops its posting from
// the affected share list: postings are re-aligned across MIs by
// posting id, never mis-combined.
//
// The degenerate configuration p = s = 1 is the plaintext index.

#ifndef SEP2P_APPS_CONCEPT_INDEX_H_
#define SEP2P_APPS_CONCEPT_INDEX_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/messages.h"
#include "crypto/shamir.h"
#include "net/cost.h"
#include "node/app_runtime.h"
#include "sim/network.h"
#include "util/rng.h"
#include "util/status.h"

namespace sep2p::apps {

class ConceptIndex {
 public:
  struct Options {
    int shamir_threshold = 1;  // p
    int shamir_shares = 1;     // s (p <= s)
  };

  // `network` and `runtime` must outlive the index; the constructor
  // registers the MI-side message handlers on the runtime.
  ConceptIndex(sim::Network* network, node::AppRuntime* runtime)
      : ConceptIndex(network, runtime, Options()) {}
  ConceptIndex(sim::Network* network, node::AppRuntime* runtime,
               Options options);

  // The registered handlers hold this index's address.
  ConceptIndex(const ConceptIndex&) = delete;
  ConceptIndex& operator=(const ConceptIndex&) = delete;

  // Publishes `concepts` for `node_index`: one posting per concept,
  // sharded into s shares routed and stored at their indexers over the
  // network. A share whose store RPC fails is lost (degraded), not
  // fatal.
  Result<net::Cost> Publish(uint32_t node_index,
                            const std::set<std::string>& concepts,
                            util::Rng& rng);

  struct LookupResult {
    std::vector<uint32_t> nodes;     // postings: nodes having the concept
    std::vector<uint32_t> indexers;  // MIs contacted (p of them)
    bool indexer_unreachable = false;  // an MI exhausted its retry budget
    net::Cost cost;                  // DHT routings + MI round trips
  };

  // Resolves a concept to the nodes exposing it by gathering p share
  // lists over the network and joining them on posting id. An
  // unreachable MI yields a degraded (empty, flagged) result.
  Result<LookupResult> Lookup(uint32_t from_index,
                              const std::string& concept_name);

  // The MI hosting share `share` of `concept_name`.
  Result<uint32_t> IndexerFor(const std::string& concept_name,
                              int share) const;

  // What a single corrupted MI reconstructs from its local share store
  // for `concept_name`, decoding shares as if they were plaintext. With
  // p = 1 this equals the true postings (full disclosure); with p > 1 it
  // is noise — the privacy tests assert both.
  std::vector<uint32_t> SingleIndexerDisclosure(
      uint32_t indexer, const std::string& concept_name) const;

  const Options& options() const { return options_; }

 private:
  using StoredShare = core::msg::ConceptShares::Row;

  static std::string ShareKey(const std::string& concept_name, int share);
  static std::vector<uint8_t> EncodePosting(uint32_t node_index);
  static uint32_t DecodePosting(const std::vector<uint8_t>& bytes);

  sim::Network* network_;
  node::AppRuntime* runtime_;
  Options options_;
  // storage_[indexer][share key] = shares in publish order, each tagged
  // with its posting id (all s shares of one posting share the id).
  std::map<uint32_t, std::map<std::string, std::vector<StoredShare>>>
      storage_;
};

}  // namespace sep2p::apps

#endif  // SEP2P_APPS_CONCEPT_INDEX_H_
