#include "net/sim_network.h"

#include <algorithm>
#include <cmath>

namespace sep2p::net {

SimNetwork::SimNetwork(uint32_t node_count, const LinkModel& link,
                       const RetryPolicy& retry, uint64_t seed)
    : Transport(seed), link_(link), node_count_(node_count) {
  retry_ = retry;
}

void SimNetwork::CrashAt(uint32_t node, uint64_t at_us) {
  if (crash_at_us_.empty()) crash_at_us_.assign(node_count_, UINT64_MAX);
  crash_at_us_[node] = std::min(crash_at_us_[node], at_us);
  if (trace_ != nullptr) {
    obs::Event e;
    e.t_us = at_us;
    e.kind = obs::EventKind::kCrash;
    e.node = node;
    trace_->Record(std::move(e));
  }
}

void SimNetwork::set_trace(obs::TraceRecorder* trace) {
  trace_ = trace;
  if (trace_ != nullptr) {
    trace_->BindClock(&now_us_);
    trace_->meta().node_count = node_count();
    trace_->meta().max_attempts = retry_.max_attempts;
  }
}

void SimNetwork::FinalizeTrace() {
  if (trace_ == nullptr) return;
  trace_->Mark(obs::kNoNode, "shutdown",
               static_cast<uint64_t>(in_flight_.size()));
}

bool SimNetwork::IsUp(uint32_t node, uint64_t at_us) const {
  return crash_at_us_.empty() || at_us < crash_at_us_[node];
}

uint64_t SimNetwork::SampleLatencyUs() {
  uint64_t latency = link_.base_latency_us;
  if (link_.jitter_mean_us > 0) {
    // Exponential jitter: -mean * ln(1 - U), U in [0, 1).
    const double u = rng_.NextDouble();
    latency += static_cast<uint64_t>(
        -static_cast<double>(link_.jitter_mean_us) * std::log1p(-u));
  }
  return latency;
}

bool SimNetwork::StepCrash(uint32_t node, uint64_t at_us) {
  if (step_crash_probability_ <= 0) return false;
  if (!rng_.NextBool(step_crash_probability_)) return false;
  CrashAt(node, at_us);
  ++stats_.step_crashes;
  if (metrics_ != nullptr) metrics_->Inc(obs::Counter::kStepCrashes);
  return true;
}

void SimNetwork::AdvanceRoute(int hops) {
  const uint64_t start = now_us_;
  for (int h = 0; h < hops; ++h) {
    ++stats_.messages_sent;
    ++stats_.messages_delivered;
    now_us_ += SampleLatencyUs();
  }
  if (metrics_ != nullptr && hops > 0) {
    metrics_->Inc(obs::Counter::kRouteHops, static_cast<uint64_t>(hops));
  }
  if (trace_ != nullptr && hops > 0) {
    // Routing legs are store-and-forward overlay hops, not tracked
    // transmissions; one kRoute event keeps them visible (and gives the
    // analyzer a causal interval: start time, duration, hop count)
    // without entering the send/deliver conservation ledger.
    obs::Event e;
    e.t_us = start;
    e.kind = obs::EventKind::kRoute;
    e.seq = static_cast<uint64_t>(hops);
    e.value = now_us_ - start;
    trace_->Record(std::move(e));
  }
}

std::optional<uint64_t> SimNetwork::Transmit(uint32_t from, uint32_t to,
                                             uint64_t rpc, size_t bytes,
                                             uint64_t depart_us,
                                             uint64_t* seq_out) {
  // Every transmission gets a seq — including ones the link then drops —
  // so trace events identify the message uniquely. next_seq_ never feeds
  // the Rng, so the numbering scheme cannot perturb results.
  const uint64_t seq = next_seq_++;
  *seq_out = seq;
  RecordSend(depart_us, from, to, rpc, seq, bytes);
  if (link_.drop_probability > 0 && rng_.NextBool(link_.drop_probability)) {
    RecordDrop(depart_us, from, to, rpc, seq, "link");
    return std::nullopt;
  }
  const uint64_t at_us = depart_us + SampleLatencyUs();
  if (!IsUp(to, at_us)) {
    // Destination dead on arrival: the message evaporates like a drop.
    RecordDrop(at_us, from, to, rpc, seq, "dead-dest");
    return std::nullopt;
  }
  in_flight_.push(
      {.at_us = at_us, .seq = seq, .from = from, .to = to, .rpc = rpc});
  return at_us;
}

bool SimNetwork::AdvanceTo(uint64_t at_us, std::optional<uint64_t> awaited) {
  bool delivered = false;
  while (!in_flight_.empty() && in_flight_.top().at_us <= at_us) {
    const Delivery d = in_flight_.top();
    in_flight_.pop();
    if (!IsUp(d.to, d.at_us)) {
      // The destination crashed while the message was in flight (a step
      // crash recorded after the transmission passed its liveness
      // check): the message evaporates like a drop instead of reaching a
      // dead node.
      RecordDrop(d.at_us, d.from, d.to, d.rpc, d.seq, "dead-dest");
      continue;
    }
    RecordDeliver(d.at_us, d.from, d.to, d.rpc, d.seq);
    if (d.seq == awaited) {
      delivered = true;
    } else {
      ++stats_.late_replies;
      if (metrics_ != nullptr) metrics_->Inc(obs::Counter::kLateReplies);
    }
  }
  return delivered;
}

std::optional<std::vector<uint8_t>> SimNetwork::Attempt(
    uint32_t client, uint32_t server, uint64_t rpc,
    const std::vector<uint8_t>& request, const Handler& handler) {
  const uint64_t deadline = now_us_ + retry_.timeout_us;
  std::optional<uint64_t> reply_at;
  std::optional<std::vector<uint8_t>> reply;
  uint64_t req_seq = 0;
  uint64_t reply_seq = 0;
  std::optional<uint64_t> req_at =
      Transmit(client, server, rpc, request.size(), now_us_, &req_seq);
  if (req_at.has_value() && !StepCrash(server, *req_at)) {
    // The server reads the request at arrival...
    AdvanceTo(*req_at, req_seq);
    // ...handles it (idempotent; retransmissions re-invoke it), and
    // replies after its processing delay. The clock tracks the handling
    // instant so dispatch hooks see the arrival time; both exits below
    // overwrite it, and nothing the handler may do reads it, so this is
    // invisible outside tracing.
    now_us_ = *req_at;
    reply = handler ? handler(server, request) : Dispatch(server, request);
    if (reply.has_value()) {
      reply_at = Transmit(server, client, rpc, reply->size(),
                          *req_at + link_.process_us, &reply_seq);
    }
  }
  if (!reply_at.has_value() || *reply_at > deadline) {
    now_us_ = deadline;
    return std::nullopt;
  }
  now_us_ = *reply_at;
  if (!AdvanceTo(now_us_, reply_seq)) return std::nullopt;
  return reply;
}

std::vector<SimNetwork::RpcResult> SimNetwork::CallBatch(
    const std::vector<Outgoing>& calls, const Handler& handler) {
  const uint64_t start = now_us_;
  uint64_t end = start;
  std::vector<RpcResult> results;
  results.reserve(calls.size());
  for (const Outgoing& out : calls) {
    now_us_ = start;  // all calls depart at the same instant
    results.push_back(Call(out.client, out.server, out.request, handler));
    end = std::max(end, now_us_);
  }
  now_us_ = end;  // the wave completes with its slowest call
  return results;
}

}  // namespace sep2p::net
