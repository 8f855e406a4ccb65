#include "apps/concept_index.h"

#include <algorithm>

#include "core/messages.h"
#include "core/wire_format.h"
#include "crypto/hash256.h"

namespace sep2p::apps {

namespace msg = core::msg;

ConceptIndex::ConceptIndex(sim::Network* network, node::AppRuntime* runtime,
                           Options options)
    : network_(network), runtime_(runtime), options_(options) {
  // MI-side handlers. Any node can serve as indexer, so both answer at
  // every node. They MUST be idempotent: a store retransmission is
  // recognized by (posting id, share x) and not stored twice.
  runtime_->network()->Register(
      msg::kTagConceptStore,
      [this](uint32_t server, const std::vector<uint8_t>& request)
          -> std::optional<std::vector<uint8_t>> {
        auto store = msg::Decode<msg::ConceptStore>(request);
        if (!store.ok()) return std::nullopt;
        std::string key(store->share_key.begin(), store->share_key.end());
        std::vector<StoredShare>& list = storage_[server][key];
        const bool seen =
            std::any_of(list.begin(), list.end(), [&](const StoredShare& s) {
              return s.posting_id == store->posting_id &&
                     s.share.x == store->share_x;
            });
        if (!seen) {
          StoredShare stored;
          stored.posting_id = store->posting_id;
          stored.share.x = store->share_x;
          stored.share.data = store->share_data;
          list.push_back(std::move(stored));
        }
        return msg::Encode(msg::AppAck{});
      });
  runtime_->network()->Register(
      msg::kTagConceptQuery,
      [this](uint32_t server, const std::vector<uint8_t>& request)
          -> std::optional<std::vector<uint8_t>> {
        auto query = msg::Decode<msg::ConceptQuery>(request);
        if (!query.ok()) return std::nullopt;
        msg::ConceptShares reply;
        auto store_it = storage_.find(server);
        if (store_it != storage_.end()) {
          std::string key(query->share_key.begin(), query->share_key.end());
          auto list_it = store_it->second.find(key);
          if (list_it != store_it->second.end()) reply.rows = list_it->second;
        }
        return msg::Encode(reply);
      });
}

std::string ConceptIndex::ShareKey(const std::string& concept_name,
                                   int share) {
  return concept_name + "#" + std::to_string(share);
}

std::vector<uint8_t> ConceptIndex::EncodePosting(uint32_t node_index) {
  core::wire::Writer out;
  out.U32(node_index);
  return out.Take();
}

uint32_t ConceptIndex::DecodePosting(const std::vector<uint8_t>& bytes) {
  core::wire::Reader in(bytes);
  uint32_t node_index = 0;
  if (!in.U32(&node_index).ok() || !in.ExpectEnd().ok()) return 0xffffffffu;
  return node_index;
}

Result<uint32_t> ConceptIndex::IndexerFor(const std::string& concept_name,
                                          int share) const {
  crypto::Hash256 key = crypto::Hash256::Of(ShareKey(concept_name, share));
  std::optional<uint32_t> owner =
      network_->directory().SuccessorIndex(key.ring_pos());
  if (!owner.has_value()) return Status::Unavailable("index: empty network");
  return *owner;
}

Result<net::Cost> ConceptIndex::Publish(uint32_t node_index,
                                        const std::set<std::string>& concepts,
                                        util::Rng& rng) {
  obs::Span publish_span(runtime_->trace(), runtime_->metrics(), node_index, "ci-publish");
  const net::Cost before = runtime_->measured_cost();
  for (const std::string& concept_name : concepts) {
    Result<std::vector<crypto::SecretShare>> shares = crypto::ShamirSplit(
        EncodePosting(node_index), options_.shamir_threshold,
        options_.shamir_shares, rng);
    if (!shares.ok()) return shares.status();
    const uint64_t posting_id = runtime_->NextMessageId();

    for (int s = 0; s < options_.shamir_shares; ++s) {
      const std::string share_key = ShareKey(concept_name, s);
      crypto::Hash256 key = crypto::Hash256::Of(share_key);
      Result<dht::RouteResult> route =
          network_->overlay().RouteKey(node_index, key);
      if (!route.ok()) return route.status();
      runtime_->AdvanceRoute(route->hops);

      msg::ConceptStore store;
      store.posting_id = posting_id;
      store.share_key.assign(share_key.begin(), share_key.end());
      store.share_x = shares.value()[s].x;
      store.share_data = shares.value()[s].data;
      // A failed store loses this share (degraded): the posting drops
      // out of lookups joining through this MI, nothing else breaks.
      runtime_->Call(node_index, route->dest_index, msg::Encode(store));
    }
  }
  return net::Cost::Delta(runtime_->measured_cost(), before);
}

Result<ConceptIndex::LookupResult> ConceptIndex::Lookup(
    uint32_t from_index, const std::string& concept_name) {
  LookupResult result;
  obs::Span lookup_span(runtime_->trace(), runtime_->metrics(), from_index, "ci-lookup");
  const net::Cost before = runtime_->measured_cost();

  // Gather share lists from the first p indexers over the network.
  std::vector<msg::ConceptShares> replies;
  for (int s = 0; s < options_.shamir_threshold; ++s) {
    const std::string share_key = ShareKey(concept_name, s);
    crypto::Hash256 key = crypto::Hash256::Of(share_key);
    Result<dht::RouteResult> route =
        network_->overlay().RouteKey(from_index, key);
    if (!route.ok()) return route.status();
    runtime_->AdvanceRoute(route->hops);
    result.indexers.push_back(route->dest_index);

    msg::ConceptQuery query;
    query.share_key.assign(share_key.begin(), share_key.end());
    net::Transport::RpcResult rpc =
        runtime_->Call(from_index, route->dest_index, msg::Encode(query));
    if (!rpc.ok) {
      // Degraded completion: the MI is unreachable, so this lookup
      // yields no postings; the caller decides whether that is fatal.
      result.indexer_unreachable = true;
      result.cost = net::Cost::Delta(runtime_->measured_cost(), before);
      return result;
    }
    auto reply = msg::Decode<msg::ConceptShares>(rpc.reply);
    if (!reply.ok()) return reply.status();
    replies.push_back(std::move(reply.value()));
  }
  result.cost = net::Cost::Delta(runtime_->measured_cost(), before);
  if (replies.empty()) return result;

  // Join the p share lists on posting id: a posting reconstructs only
  // when every queried MI still holds its share. Publish order is
  // id order, so walk the first list and probe the others.
  for (const StoredShare& first : replies[0].rows) {
    std::vector<crypto::SecretShare> shares{first.share};
    for (size_t r = 1; r < replies.size(); ++r) {
      for (const StoredShare& row : replies[r].rows) {
        if (row.posting_id == first.posting_id) {
          shares.push_back(row.share);
          break;
        }
      }
    }
    if (shares.size() != replies.size()) continue;  // share lost somewhere
    Result<std::vector<uint8_t>> secret = crypto::ShamirCombine(shares);
    if (!secret.ok()) return secret.status();
    result.nodes.push_back(DecodePosting(secret.value()));
  }
  return result;
}

std::vector<uint32_t> ConceptIndex::SingleIndexerDisclosure(
    uint32_t indexer, const std::string& concept_name) const {
  std::vector<uint32_t> disclosed;
  auto store_it = storage_.find(indexer);
  if (store_it == storage_.end()) return disclosed;
  for (int s = 0; s < options_.shamir_shares; ++s) {
    auto list_it = store_it->second.find(ShareKey(concept_name, s));
    if (list_it == store_it->second.end()) continue;
    for (const StoredShare& stored : list_it->second) {
      // A lone corrupted MI can only treat its share bytes as data.
      disclosed.push_back(DecodePosting(stored.share.data));
    }
  }
  return disclosed;
}

}  // namespace sep2p::apps
