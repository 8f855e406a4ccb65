#include "apps/sensing.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "core/messages.h"

namespace sep2p::apps {

namespace msg = core::msg;

uint64_t SpatialAggregate::total_count() const {
  uint64_t total = 0;
  for (const CellStat& cell : cells) total += cell.count;
  return total;
}

ParticipatorySensingApp::ParticipatorySensingApp(
    sim::Network* network, std::vector<node::PdmsNode>* pdms,
    node::AppRuntime* runtime, Config config)
    : network_(network), pdms_(pdms), runtime_(runtime), config_(config) {
  // DA side: open the sealed tuple, accumulate into this DA's partial.
  // Idempotent via the contribution id (round-global set, so a resend
  // to a spare DA can never count twice either). An id is recorded only
  // once its tuple opened and names a cell of the grid, so a tuple the
  // DA cannot take is refused on every attempt and no retransmission
  // acknowledges it. A node that is no DA of the round refuses.
  runtime_->network()->Register(
      msg::kTagSensingContribution,
      [this](uint32_t server, const std::vector<uint8_t>& request)
          -> std::optional<std::vector<uint8_t>> {
        if (round_ == nullptr) return std::nullopt;
        auto slot_it = round_->slot_of.find(server);
        if (slot_it == round_->slot_of.end()) return std::nullopt;
        Result<msg::SensingContribution> tuple =
            msg::Decode<msg::SensingContribution>(request);
        if (!tuple.ok()) return std::nullopt;
        if (!round_->seen_contributions.contains(tuple->contribution_id)) {
          const uint32_t grid = static_cast<uint32_t>(config_.grid);
          if (tuple->cell >= grid * grid) return std::nullopt;
          Result<std::vector<uint8_t>> opened =
              crypto::OpenSealed(network_->provider(), tuple->sealed,
                                 network_->directory().priv(server));
          if (!opened.ok() || opened->size() != sizeof(double)) {
            return std::nullopt;
          }
          double value;
          std::memcpy(&value, opened->data(), sizeof(double));
          round_->seen_contributions.insert(tuple->contribution_id);
          const int ix = static_cast<int>(tuple->cell % grid);
          const int iy = static_cast<int>(tuple->cell / grid);
          SpatialAggregate& partial = round_->partials[slot_it->second];
          partial.at(ix, iy).sum += value;
          partial.at(ix, iy).count += 1;
          round_->values_seen[slot_it->second].push_back(value);
        }
        return msg::Encode(msg::AppAck{});
      });

  // MDA / trigger side: merge per-slot partials exactly once; a
  // kMergedSlot partial is the MDA's publication to the trigger. The
  // same handler serves both, so trigger == MDA needs no special case;
  // any other node refuses.
  runtime_->network()->Register(
      msg::kTagSensingPartial,
      [this](uint32_t server, const std::vector<uint8_t>& request)
          -> std::optional<std::vector<uint8_t>> {
        if (round_ == nullptr ||
            (server != round_->trigger && server != round_->mda)) {
          return std::nullopt;
        }
        auto partial = msg::Decode<msg::SensingPartial>(request);
        if (!partial.ok()) return std::nullopt;
        if (partial->da_slot == msg::kMergedSlot) {
          round_->published = true;
          return msg::Encode(msg::AppAck{});
        }
        if (partial->da_slot >= round_->partials.size() ||
            partial->sums.size() != round_->merged.cells.size() ||
            partial->counts.size() != partial->sums.size()) {
          return std::nullopt;
        }
        if (round_->merged_slots.insert(partial->da_slot).second) {
          for (size_t c = 0; c < partial->sums.size(); ++c) {
            round_->merged.cells[c].sum += partial->sums[c];
            round_->merged.cells[c].count += partial->counts[c];
          }
        }
        return msg::Encode(msg::AppAck{});
      });
}

double ParticipatorySensingApp::GroundTruth(int ix, int iy) const {
  // A smooth, cell-dependent field (e.g. traffic speed in km/h).
  return 30.0 + 10.0 * ix + 3.0 * iy;
}

void ParticipatorySensingApp::GenerateWorkload(int sources,
                                               int readings_per_source,
                                               util::Rng& rng) {
  const size_t n = pdms_->size();
  std::vector<size_t> chosen =
      rng.SampleIndices(n, std::min<size_t>(sources, n));
  for (size_t idx : chosen) {
    node::PdmsNode& pdms = (*pdms_)[idx];
    for (int r = 0; r < readings_per_source; ++r) {
      node::SensorReading reading;
      reading.x = rng.NextDouble();
      reading.y = rng.NextDouble();
      int ix = std::min(config_.grid - 1,
                        static_cast<int>(reading.x * config_.grid));
      int iy = std::min(config_.grid - 1,
                        static_cast<int>(reading.y * config_.grid));
      // Noisy sample of the ground truth.
      reading.value = GroundTruth(ix, iy) + (rng.NextDouble() - 0.5) * 2.0;
      reading.time = 0;
      pdms.AddReading(reading);
    }
  }
}

Result<ParticipatorySensingApp::RoundResult>
ParticipatorySensingApp::RunRound(uint32_t trigger_index, util::Rng& rng) {
  core::ProtocolContext ctx = network_->context();
  ctx.actor_count = config_.aggregator_count;
  obs::TraceRecorder* rec = runtime_->trace();
  obs::Span round_span(rec, runtime_->metrics(), trigger_index, "sensing-round");
  const uint64_t round_start_us = runtime_->now_us();

  // 1. Secure actor selection over the message network: the DAs (first
  // doubles as MDA). Unreachable quorums restart with a fresh RND_T.
  RoundResult result;
  Result<core::SelectionProtocol::Outcome> selected =
      runtime_->RunSelection(ctx, trigger_index, rng,
                             config_.max_selection_attempts,
                             &result.selection_restarts);
  if (!selected.ok()) return selected.status();

  result.selection_cost = selected->cost;
  result.cost = selected->cost;
  result.aggregators = selected->actor_indices;
  result.main_aggregator = result.aggregators.front();
  const uint32_t mda = result.main_aggregator;
  const size_t da_count = result.aggregators.size();
  const int cells = config_.grid * config_.grid;

  // Fresh per-round message state naming this round's DAs, MDA and
  // trigger; the handlers read it.
  round_ = std::make_unique<RoundState>();
  round_->trigger = trigger_index;
  round_->mda = mda;
  round_->partials.resize(da_count);
  for (SpatialAggregate& partial : round_->partials) {
    partial.grid = config_.grid;
    partial.cells.assign(cells, CellStat{});
  }
  round_->values_seen.resize(da_count);
  round_->merged.grid = config_.grid;
  round_->merged.cells.assign(cells, CellStat{});
  for (size_t slot = 0; slot < da_count; ++slot) {
    round_->slot_of[result.aggregators[slot]] = slot;
  }

  const net::Cost before_app = runtime_->measured_cost();

  // 2-3. Every source verifies the VAL, then contributes anonymized
  // (cell, value) tuples — sealed to the cell's DA — in one parallel
  // wave over the network.
  std::vector<node::AppRuntime::Outgoing> contributions;
  for (uint32_t src = 0; src < pdms_->size(); ++src) {
    const node::PdmsNode& pdms = (*pdms_)[src];
    if (pdms.readings().empty()) continue;

    core::VerifierDecision decision = core::VerifyBeforeDisclosure(
        ctx, selected->val, /*limiter=*/nullptr, /*trigger_id=*/nullptr);
    if (!decision.accepted) {
      ++result.verifier_rejections;
      continue;
    }
    result.per_source_verification_ops = decision.cost.crypto_work;
    runtime_->Charge(net::Cost::WorkOnly(decision.cost.crypto_work, 0));
    ++result.sources;

    for (const node::SensorReading& reading : pdms.readings()) {
      int ix = std::min(config_.grid - 1,
                        static_cast<int>(reading.x * config_.grid));
      int iy = std::min(config_.grid - 1,
                        static_cast<int>(reading.y * config_.grid));
      int cell = iy * config_.grid + ix;
      size_t da = static_cast<size_t>(cell) % da_count;

      std::vector<uint8_t> payload(sizeof(double));
      double value = reading.value;
      std::memcpy(payload.data(), &value, sizeof(double));
      msg::SensingContribution tuple;
      tuple.contribution_id = runtime_->NextMessageId();
      tuple.cell = static_cast<uint32_t>(cell);
      tuple.sealed = crypto::SealForRecipient(
          network_->directory().pub(result.aggregators[da]), payload,
          rng);
      contributions.push_back(
          {src, result.aggregators[da], msg::Encode(tuple)});
    }
  }
  result.readings_sent = static_cast<int>(contributions.size());
  {
    obs::Span contribute_span(rec, runtime_->metrics(), trigger_index, "contribute");
    for (const net::Transport::RpcResult& rpc :
         runtime_->CallBatch(contributions)) {
      // A lost contribution shrinks the round instead of failing it.
      if (rpc.ok) ++result.readings_delivered;
    }
  }

  // 4. DAs ship their partials to the MDA in a parallel wave (the MDA
  // "sends to itself" too — the paper counts A partial messages)...
  std::vector<node::AppRuntime::Outgoing> partial_wave;
  for (size_t slot = 0; slot < da_count; ++slot) {
    msg::SensingPartial partial;
    partial.da_slot = static_cast<uint32_t>(slot);
    partial.grid = static_cast<uint16_t>(config_.grid);
    for (const CellStat& cell : round_->partials[slot].cells) {
      partial.sums.push_back(cell.sum);
      partial.counts.push_back(cell.count);
    }
    partial_wave.push_back(
        {result.aggregators[slot], mda, msg::Encode(partial)});
  }
  {
    obs::Span merge_span(rec, runtime_->metrics(), mda, "merge");
    runtime_->CallBatch(partial_wave);  // loss of a partial = degraded
  }
  result.partials_merged = static_cast<int>(round_->merged_slots.size());

  // ...and the MDA publishes the merged aggregate to the trigger.
  msg::SensingPartial merged;
  merged.da_slot = msg::kMergedSlot;
  merged.grid = static_cast<uint16_t>(config_.grid);
  for (const CellStat& cell : round_->merged.cells) {
    merged.sums.push_back(cell.sum);
    merged.counts.push_back(cell.count);
  }
  {
    obs::Span publish_span(rec, runtime_->metrics(), mda, "publish");
    runtime_->Call(mda, trigger_index, msg::Encode(merged));
  }
  result.published = round_->published;

  result.aggregate = round_->merged;
  result.values_seen_by_da = round_->values_seen;
  result.cost.Then(
      net::Cost::Delta(runtime_->measured_cost(), before_app));
  result.round_latency_us = runtime_->now_us() - round_start_us;
  return result;
}

Result<ParticipatorySensingApp::ContinuousResult>
ParticipatorySensingApp::RunContinuous(int rounds, util::Rng& rng) {
  ContinuousResult result;
  result.rounds = rounds;
  for (int round = 0; round < rounds; ++round) {
    uint32_t trigger =
        static_cast<uint32_t>(rng.NextUint64(pdms_->size()));
    Result<RoundResult> run = RunRound(trigger, rng);
    if (!run.ok()) return run.status();
    for (size_t da = 0; da < run->aggregators.size(); ++da) {
      const uint64_t seen = run->values_seen_by_da[da].size();
      if (seen == 0) continue;
      result.values_seen_by_node[run->aggregators[da]] += seen;
      result.total_values += seen;
    }
  }
  result.distinct_aggregators =
      static_cast<int>(result.values_seen_by_node.size());
  for (const auto& [node, seen] : result.values_seen_by_node) {
    result.max_fraction_seen_by_one_node =
        std::max(result.max_fraction_seen_by_one_node,
                 static_cast<double>(seen) /
                     static_cast<double>(result.total_values));
  }
  return result;
}

}  // namespace sep2p::apps
