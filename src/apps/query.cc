#include "apps/query.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "apps/proxy.h"
#include "core/messages.h"
#include "core/selection.h"
#include "core/verification.h"
#include "core/wire.h"
#include "dht/node_id.h"

namespace sep2p::apps {

namespace msg = core::msg;

namespace {

constexpr int kAggregators = 4;           // DAs (the first is the MDA)
constexpr int kMaxSelectionAttempts = 8;  // fresh-RND_T restart budget
constexpr int kProxyRetries = 3;          // per (target, DA) proxy attempts

}  // namespace

QueryApp::QueryApp(sim::Network* network, std::vector<node::PdmsNode>* pdms,
                   ConceptIndex* index, node::AppRuntime* runtime)
    : network_(network),
      pdms_(pdms),
      index_(index),
      runtime_(runtime),
      finder_(network, pdms, index, runtime) {
  RegisterProxyRelay(*runtime_->network());
  // Remote control plane (never exercised by sim runs, which install the
  // round in-process and ship partials directly): a QueryDeploy installs
  // the round in every hosting process after checking the VAL — the
  // deployment is only accepted when the claimed aggregators really are
  // this round's verifiable selection — and a QueryFlush reads a slot's
  // partial (or the MDA's merged result) back out as a QueryAnswer.
  runtime_->network()->Register(
      msg::kTagQueryDeploy,
      [this](uint32_t, const std::vector<uint8_t>& request)
          -> std::optional<std::vector<uint8_t>> {
        auto deploy = msg::Decode<msg::QueryDeploy>(request);
        if (!deploy.ok()) return std::nullopt;
        if (round_ != nullptr && round_->round_id == deploy->round_id) {
          return msg::Encode(msg::AppAck{});  // re-deploy: idempotent
        }
        Result<core::VerifiableActorList> val =
            core::wire::DecodeActorList(deploy->val);
        if (!val.ok()) return std::nullopt;
        core::ProtocolContext ctx = network_->context();
        ctx.actor_count = val->actor_count();
        if (!core::VerifyActorList(ctx, *val).ok()) return std::nullopt;
        std::vector<uint32_t> aggregators;
        const dht::Directory& dir = network_->directory();
        for (const crypto::PublicKey& key : val->actor_keys) {
          std::optional<uint32_t> idx = dir.IndexOf(dht::NodeIdForKey(key));
          if (!idx.has_value()) return std::nullopt;
          aggregators.push_back(*idx);
        }
        if (aggregators.empty()) return std::nullopt;
        InstallRound(deploy->round_id, deploy->querier, aggregators);
        return msg::Encode(msg::AppAck{});
      });
  runtime_->network()->Register(
      msg::kTagQueryFlush,
      [this](uint32_t, const std::vector<uint8_t>& request)
          -> std::optional<std::vector<uint8_t>> {
        Result<msg::QueryFlush> flush = msg::Decode<msg::QueryFlush>(request);
        if (!flush.ok()) return std::nullopt;
        if (round_ == nullptr || round_->round_id != flush->round_id) {
          return std::nullopt;
        }
        const Partial* partial = nullptr;
        if (flush->da_slot == msg::kMergedSlot) {
          partial = &round_->merged;
        } else if (flush->da_slot < round_->partials.size()) {
          partial = &round_->partials[flush->da_slot];
        } else {
          return std::nullopt;
        }
        msg::QueryAnswer answer;
        answer.da_slot = flush->da_slot;
        answer.count = partial->count;
        answer.sum = partial->sum;
        answer.min = partial->min;
        answer.max = partial->max;
        return msg::Encode(answer);
      });

  // DA side: open the proxied sealed value, fold it into this DA's
  // partial statistic. Idempotent via the contribution id; the dedup
  // set is round-global so a proxy retry landing on a failover DA can
  // never count twice. An id is recorded only once its value opened,
  // so a value the DA cannot take is refused on every attempt and no
  // retransmission acknowledges it. A node that is no DA of the round
  // holds no partial, and only acknowledges.
  runtime_->network()->Register(
      msg::kTagSealedDelivery,
      [this](uint32_t server, const std::vector<uint8_t>& request)
          -> std::optional<std::vector<uint8_t>> {
        Result<msg::SealedDelivery> delivery =
            msg::Decode<msg::SealedDelivery>(request);
        if (!delivery.ok()) return std::nullopt;
        if (round_ == nullptr) return msg::Encode(msg::AppAck{});
        auto slot_it = round_->slot_of.find(server);
        if (slot_it != round_->slot_of.end() &&
            !round_->seen_contributions.contains(delivery->contribution_id)) {
          Result<std::vector<uint8_t>> opened =
              crypto::OpenSealed(network_->provider(), delivery->sealed,
                                 network_->directory().priv(server));
          if (!opened.ok() || opened->size() != sizeof(double)) {
            return std::nullopt;
          }
          double value;
          std::memcpy(&value, opened->data(), sizeof(double));
          round_->seen_contributions.insert(delivery->contribution_id);
          Partial& partial = round_->partials[slot_it->second];
          partial.min =
              partial.count == 0 ? value : std::min(partial.min, value);
          partial.max =
              partial.count == 0 ? value : std::max(partial.max, value);
          partial.sum += value;
          partial.count += 1;
          round_->values_seen.push_back(value);
        }
        return msg::Encode(msg::AppAck{});
      });

  // MDA / querier side: merge each DA slot exactly once; the
  // kMergedSlot answer is the MDA's reply to the querier. The same
  // handler serves both, so querier == MDA needs no special case; any
  // other node refuses.
  runtime_->network()->Register(
      msg::kTagQueryAnswer,
      [this](uint32_t server, const std::vector<uint8_t>& request)
          -> std::optional<std::vector<uint8_t>> {
        if (round_ == nullptr ||
            (server != round_->querier && server != round_->mda)) {
          return std::nullopt;
        }
        Result<msg::QueryAnswer> answer =
            msg::Decode<msg::QueryAnswer>(request);
        if (!answer.ok()) return std::nullopt;
        if (answer->da_slot == msg::kMergedSlot) {
          round_->answered = true;
          round_->answer = {answer->count, answer->sum, answer->min,
                            answer->max};
          return msg::Encode(msg::AppAck{});
        }
        if (answer->da_slot >= round_->partials.size()) return std::nullopt;
        if (round_->merged_slots.insert(answer->da_slot).second &&
            answer->count > 0) {
          Partial& merged = round_->merged;
          merged.min = merged.count == 0 ? answer->min
                                         : std::min(merged.min, answer->min);
          merged.max = merged.count == 0 ? answer->max
                                         : std::max(merged.max, answer->max);
          merged.sum += answer->sum;
          merged.count += answer->count;
        }
        return msg::Encode(msg::AppAck{});
      });
}

void QueryApp::InstallRound(uint64_t round_id, uint32_t querier_index,
                            const std::vector<uint32_t>& aggregators) {
  round_ = std::make_unique<RoundState>();
  round_->round_id = round_id;
  round_->querier = querier_index;
  round_->mda = aggregators.front();
  round_->partials.assign(aggregators.size(), Partial{});
  for (size_t slot = 0; slot < aggregators.size(); ++slot) {
    round_->slot_of[aggregators[slot]] = slot;
  }
}

Result<QueryApp::QueryResult> QueryApp::Execute(uint32_t querier_index,
                                                const QuerySpec& spec,
                                                util::Rng& rng) {
  obs::TraceRecorder* rec = runtime_->trace();
  obs::Span query_span(rec, runtime_->metrics(), querier_index, "query");
  const uint64_t round_start_us = runtime_->now_us();

  // --- Phase 1: target finding (use case 2 machinery). Targets learn a
  // query wants their data, which they consent to by contributing.
  Result<DiffusionApp::DiffusionResult> targets = finder_.Diffuse(
      querier_index, spec.profile_expression, "query:" + spec.attribute, rng);
  if (!targets.ok()) return targets.status();

  QueryResult result;
  result.cost = targets->cost;
  result.target_finding_cost = targets->cost;
  result.target_finding_restarts = targets->selection_restarts;

  // --- Phase 2: secure selection of the aggregators over the network.
  core::ProtocolContext ctx = network_->context();
  ctx.actor_count = kAggregators;
  Result<core::SelectionProtocol::Outcome> selected =
      runtime_->RunSelection(ctx, querier_index, rng,
                             kMaxSelectionAttempts,
                             &result.selection_restarts);
  if (!selected.ok()) return selected.status();
  result.selection_cost = selected->cost;
  result.cost.Then(selected->cost);
  result.aggregators = selected->actor_indices;
  result.selection_done_us = runtime_->now_us();
  const size_t da_count = result.aggregators.size();

  // Fresh round state naming this round's DAs, MDA and querier. A sim
  // run installs it directly (every node is hosted here); a remote run
  // deploys the round as a message carrying the VAL, so each hosting
  // process — this one included — verifies the selection and installs
  // its own replica on its dispatch path.
  const bool remote = runtime_->network()->remote_dispatch();
  uint64_t round_id = 0;
  if (!remote) {
    InstallRound(round_id, querier_index, result.aggregators);
  } else {
    round_id = runtime_->network()->NewEngagementNonce();
    msg::QueryDeploy deploy;
    deploy.round_id = round_id;
    deploy.querier = querier_index;
    deploy.val = core::wire::EncodeActorList(selected->val);
    const std::vector<uint8_t> deploy_bytes = msg::Encode(deploy);
    std::set<uint32_t> role_nodes(result.aggregators.begin(),
                                  result.aggregators.end());
    role_nodes.insert(querier_index);
    for (uint32_t node : role_nodes) {
      net::Transport::RpcResult ack =
          runtime_->Call(querier_index, node, deploy_bytes);
      if (!ack.ok) {
        return Status::Unavailable("query: round deployment failed");
      }
    }
  }
  const uint32_t mda = result.aggregators.front();

  const net::Cost before_app = runtime_->measured_cost();

  // --- Phase 3: each target verifies the VAL, then contributes its
  // attribute value to a DA through a random proxy. A dead DA triggers
  // failover to the next slot (the value is re-sealed to that DA's
  // key); a dead proxy just gets replaced.
  // Explicit open/close (not RAII) so the span ends with phase 3; an
  // early error return is unwound by the enclosing "query" span.
  const uint64_t contribute_span =
      rec != nullptr ? rec->OpenSpan(querier_index, "query-contribute") : 0;
  uint64_t assigned = 0;  // successful deliveries, for slot round-robin
  for (uint32_t target : targets->targets) {
    std::optional<double> value =
        (*pdms_)[target].GetAttribute(spec.attribute);
    if (!value.has_value()) continue;

    core::VerifierDecision decision = core::VerifyBeforeDisclosure(
        ctx, selected->val, /*limiter=*/nullptr, /*trigger_id=*/nullptr);
    if (!decision.accepted) continue;
    runtime_->Charge(net::Cost::WorkOnly(decision.cost.crypto_work, 0));

    std::vector<uint8_t> payload(sizeof(double));
    double v = *value;
    std::memcpy(payload.data(), &v, sizeof(double));

    // One stable contribution id across every proxy/DA attempt: that is
    // what keeps retries from ever counting twice.
    const uint64_t contribution_id = runtime_->NextMessageId();
    const size_t slot_base = assigned % da_count;
    bool delivered = false;
    for (size_t off = 0; off < da_count && !delivered; ++off) {
      const crypto::PublicKey& da_pub = network_->directory().pub(
          result.aggregators[(slot_base + off) % da_count]);
      for (int attempt = 0; attempt < kProxyRetries; ++attempt) {
        Result<ProxyDelivery> delivery =
            ForwardViaProxy(*runtime_, *network_, target, da_pub, payload,
                            rng, /*relays=*/1, contribution_id);
        if (!delivery.ok()) return delivery.status();
        if (!delivery->relayed) continue;  // dead proxy: draw another
        result.senders_seen_by_proxies.push_back(target);
        delivered = delivery->delivered_ok;
        break;  // the proxy answered; a failed second leg means DA down
      }
      if (!delivered && off + 1 < da_count) ++result.da_failovers;
    }
    if (delivered) {
      ++assigned;
    } else {
      // Every DA (or every proxy) was unreachable for this target: the
      // answer completes with one contributor fewer.
      ++result.lost_contributions;
    }
  }
  if (rec != nullptr) rec->CloseSpan(contribute_span);

  // --- Phase 4: each DA ships its partial statistic to the MDA, which
  // merges and answers the querier only. In a remote run the partials
  // live in each DA's hosting process, so the driver first flushes the
  // slot out (QueryFlush) and relays the QueryAnswer bytes unchanged; a
  // DA whose process is unreachable simply contributes nothing, exactly
  // like a crashed DA in sim.
  for (size_t slot = 0; slot < da_count; ++slot) {
    std::vector<uint8_t> wire_bytes;
    if (remote) {
      msg::QueryFlush flush{round_id, static_cast<uint32_t>(slot)};
      net::Transport::RpcResult flushed = runtime_->Call(
          querier_index, result.aggregators[slot], msg::Encode(flush));
      if (!flushed.ok) continue;
      wire_bytes = std::move(flushed.reply);
    } else {
      const Partial& partial = round_->partials[slot];
      msg::QueryAnswer wire;
      wire.da_slot = static_cast<uint32_t>(slot);
      wire.count = partial.count;
      wire.sum = partial.sum;
      wire.min = partial.min;
      wire.max = partial.max;
      wire_bytes = msg::Encode(wire);
    }
    runtime_->Call(result.aggregators[slot], mda, wire_bytes);
  }
  Partial merged;
  bool answered = false;
  if (remote) {
    msg::QueryFlush flush{round_id, msg::kMergedSlot};
    net::Transport::RpcResult flushed =
        runtime_->Call(querier_index, mda, msg::Encode(flush));
    if (!flushed.ok) {
      return Status::Unavailable("query: MDA unreachable at merge");
    }
    Result<msg::QueryAnswer> final_answer =
        msg::Decode<msg::QueryAnswer>(flushed.reply);
    if (!final_answer.ok()) return final_answer.status();
    merged = {final_answer->count, final_answer->sum, final_answer->min,
              final_answer->max};
    net::Transport::RpcResult ack =
        runtime_->Call(mda, querier_index, flushed.reply);
    answered = ack.ok;
  } else {
    msg::QueryAnswer final_answer;
    final_answer.da_slot = msg::kMergedSlot;
    final_answer.count = round_->merged.count;
    final_answer.sum = round_->merged.sum;
    final_answer.min = round_->merged.min;
    final_answer.max = round_->merged.max;
    runtime_->Call(mda, querier_index, msg::Encode(final_answer));
    merged = round_->merged;
    answered = round_->answered;
  }
  result.answer_delivered = answered;

  result.contributors = merged.count;
  // The DA-side value trace exists only where the DAs live; in a remote
  // run that is other processes, and the flushed aggregates are all the
  // driver learns (the privacy property, observable).
  if (!remote) result.values_seen_by_da = round_->values_seen;
  result.cost.Then(
      net::Cost::Delta(runtime_->measured_cost(), before_app));
  result.round_latency_us = runtime_->now_us() - round_start_us;

  if (result.contributors == 0) {
    result.value = 0;
    return result;
  }
  switch (spec.aggregate) {
    case Aggregate::kCount:
      result.value = static_cast<double>(merged.count);
      break;
    case Aggregate::kSum:
      result.value = merged.sum;
      break;
    case Aggregate::kAvg:
      result.value = merged.sum / static_cast<double>(merged.count);
      break;
    case Aggregate::kMin:
      result.value = merged.min;
      break;
    case Aggregate::kMax:
      result.value = merged.max;
      break;
  }
  return result;
}

}  // namespace sep2p::apps
