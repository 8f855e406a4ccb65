#include "apps/diffusion.h"

#include <algorithm>
#include <string>

#include "core/messages.h"
#include "core/verification.h"

namespace sep2p::apps {

namespace msg = core::msg;

namespace {

constexpr int kTargetFinders = 4;         // A for the selection
constexpr int kMaxSelectionAttempts = 8;  // fresh-RND_T restart budget

}  // namespace

DiffusionApp::DiffusionApp(sim::Network* network,
                           std::vector<node::PdmsNode>* pdms,
                           ConceptIndex* index, node::AppRuntime* runtime)
    : network_(network), pdms_(pdms), index_(index), runtime_(runtime) {
  // Candidate-side consent handler: parse the offered expression,
  // evaluate it against the candidate's OWN concepts (node-local data —
  // nobody else ever reads this profile), keep the payload on match.
  // Idempotent via the offer id.
  runtime_->network()->Register(
      msg::kTagDiffusionOffer,
      [this](uint32_t server, const std::vector<uint8_t>& request)
          -> std::optional<std::vector<uint8_t>> {
        auto offer = msg::Decode<msg::DiffusionOffer>(request);
        if (!offer.ok()) return std::nullopt;
        if (server >= pdms_->size()) return std::nullopt;
        std::string text(offer->expression.begin(), offer->expression.end());
        Result<ProfileExpression> expression = ProfileExpression::Parse(text);
        if (!expression.ok()) return std::nullopt;
        node::PdmsNode& pdms = (*pdms_)[server];
        msg::DiffusionAccept accept;
        accept.accepted = expression->Matches(pdms.concepts()) ? 1 : 0;
        if (accept.accepted &&
            delivered_offers_.insert(offer->offer_id).second) {
          pdms.Deliver(std::string(offer->message.begin(),
                                   offer->message.end()));
        }
        return msg::Encode(accept);
      });
}

Result<net::Cost> DiffusionApp::PublishAllProfiles(util::Rng& rng) {
  net::Cost cost;
  for (uint32_t i = 0; i < pdms_->size(); ++i) {
    const node::PdmsNode& pdms = (*pdms_)[i];
    if (pdms.concepts().empty()) continue;
    Result<net::Cost> published = index_->Publish(i, pdms.concepts(), rng);
    if (!published.ok()) return published.status();
    cost.Then(published.value());
  }
  return cost;
}

Result<DiffusionApp::DiffusionResult> DiffusionApp::Diffuse(
    uint32_t publisher_index, const std::string& expression_text,
    const std::string& message, util::Rng& rng) {
  Result<ProfileExpression> expression =
      ProfileExpression::Parse(expression_text);
  if (!expression.ok()) return expression.status();

  core::ProtocolContext ctx = network_->context();
  ctx.actor_count = kTargetFinders;
  obs::Span diffusion_span(runtime_->trace(), runtime_->metrics(), publisher_index, "diffusion");
  const uint64_t round_start_us = runtime_->now_us();

  // 1. Secure selection of the target finders; a TF quorum that stays
  // unreachable is the ONE condition that restarts target finding.
  DiffusionResult result;
  Result<core::SelectionProtocol::Outcome> selected =
      runtime_->RunSelection(ctx, publisher_index, rng,
                             kMaxSelectionAttempts,
                             &result.selection_restarts);
  if (!selected.ok()) return selected.status();

  result.selection_cost = selected->cost;
  result.cost = selected->cost;
  result.target_finders = selected->actor_indices;
  const net::Cost before_app = runtime_->measured_cost();

  // 2. A TF resolves each positive concept over the network; the MI
  // verifies the VAL before disclosing its slice. TFs split the lookups
  // round-robin. An unreachable MI degrades coverage of its concept.
  std::set<uint32_t> candidates;
  const std::vector<std::string>& lookups = expression->positive_concepts();
  for (size_t i = 0; i < lookups.size(); ++i) {
    uint32_t tf = result.target_finders[i % result.target_finders.size()];

    core::VerifierDecision decision = core::VerifyBeforeDisclosure(
        ctx, selected->val, /*limiter=*/nullptr, /*trigger_id=*/nullptr);
    ++result.indexers_contacted;
    if (!decision.accepted) {
      ++result.indexer_rejections;
      continue;
    }
    runtime_->Charge(net::Cost::WorkOnly(decision.cost.crypto_work, 0));

    Result<ConceptIndex::LookupResult> postings =
        index_->Lookup(tf, lookups[i]);
    if (!postings.ok()) return postings.status();
    if (postings->indexer_unreachable) ++result.indexer_failures;
    candidates.insert(postings->nodes.begin(), postings->nodes.end());
  }

  // 3. One parallel wave of offers; each candidate consents locally.
  std::vector<node::AppRuntime::Outgoing> offers;
  std::vector<uint32_t> offered_to;
  for (uint32_t candidate : candidates) {
    if (candidate >= pdms_->size()) continue;  // corrupt posting
    uint32_t tf =
        result.target_finders[offers.size() % result.target_finders.size()];
    msg::DiffusionOffer offer;
    offer.offer_id = runtime_->NextMessageId();
    offer.expression.assign(expression_text.begin(), expression_text.end());
    offer.message.assign(message.begin(), message.end());
    offers.push_back({tf, candidate, msg::Encode(offer)});
    offered_to.push_back(candidate);
  }
  result.candidates_contacted = static_cast<int>(offers.size());

  std::vector<net::Transport::RpcResult> replies =
      runtime_->CallBatch(offers);
  for (size_t i = 0; i < replies.size(); ++i) {
    if (!replies[i].ok) {
      // Degraded: this candidate is unreachable (or its accept was
      // lost); the round completes without it.
      ++result.offer_failures;
      continue;
    }
    Result<msg::DiffusionAccept> accept =
        msg::Decode<msg::DiffusionAccept>(replies[i].reply);
    if (accept.ok() && accept->accepted != 0) {
      result.targets.push_back(offered_to[i]);
    }
  }
  std::sort(result.targets.begin(), result.targets.end());

  result.cost.Then(net::Cost::Delta(runtime_->measured_cost(), before_app));
  result.round_latency_us = runtime_->now_us() - round_start_us;
  return result;
}

}  // namespace sep2p::apps
