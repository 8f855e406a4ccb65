#include "net/transport.h"

#include <algorithm>

#include "core/messages.h"

namespace sep2p::net {

namespace {

// Holds `mu` for one scope; holds nothing when it is null.
std::unique_lock<std::mutex> LockIf(std::mutex* mu) {
  return mu != nullptr ? std::unique_lock<std::mutex>(*mu)
                       : std::unique_lock<std::mutex>();
}

}  // namespace

void Transport::Register(uint8_t tag, Handler handler) {
  const auto lock = LockIf(obs_mu_);
  handlers_[tag] = std::move(handler);
}

std::optional<std::vector<uint8_t>> Transport::Dispatch(
    uint32_t server, const std::vector<uint8_t>& request) {
  Result<uint8_t> tag = core::msg::PeekTag(request);
  if (!tag.ok()) return std::nullopt;
  if (metrics_ != nullptr) metrics_->Inc(obs::Counter::kDispatches);
  if (trace_ != nullptr) {
    obs::Event e;
    e.t_us = trace_->now_us();  // the transport parks its clock on arrival
    e.kind = obs::EventKind::kDispatch;
    e.node = server;
    e.value = tag.value();
    trace_->Record(std::move(e));
  }
  auto it = handlers_.find(tag.value());
  if (it == handlers_.end()) return std::nullopt;
  return it->second(server, request);
}

Transport::RpcResult Transport::Call(uint32_t client, uint32_t server,
                                     const std::vector<uint8_t>& request,
                                     const Handler& handler) {
  RpcResult result;
  uint64_t rpc = 0;
  // One lifecycle event of this RPC; the caller holds the obs lock.
  auto record = [&](obs::EventKind kind, uint64_t value) {
    if (trace_ == nullptr) return;
    obs::Event e;
    e.t_us = EventTime();
    e.kind = kind;
    e.node = client;
    e.peer = server;
    e.rpc = rpc;
    e.value = value;
    trace_->Record(std::move(e));
  };
  uint64_t rpc_start = 0;
  {
    const auto lock = LockIf(obs_mu_);
    rpc = ++next_rpc_id_;
    rpc_start = EventTime();
    if (metrics_ != nullptr) metrics_->Inc(obs::Counter::kRpcsBegun);
    record(obs::EventKind::kRpcBegin, 0);
  }
  uint64_t backoff = retry_.backoff_base_us;
  for (int attempt = 1; attempt <= retry_.max_attempts; ++attempt) {
    result.attempts = attempt;
    const auto attempt_value = static_cast<uint64_t>(attempt);
    {
      const auto lock = LockIf(obs_mu_);
      if (metrics_ != nullptr) metrics_->Inc(obs::Counter::kRpcAttempts);
      record(obs::EventKind::kAttempt, attempt_value);
    }
    std::optional<std::vector<uint8_t>> reply =
        Attempt(client, server, rpc, request, handler);
    uint64_t wait = backoff;
    {
      const auto lock = LockIf(obs_mu_);
      if (reply.has_value()) {
        result.ok = true;
        result.reply = std::move(*reply);
        if (metrics_ != nullptr) {
          metrics_->Observe(obs::Hist::kRpcLatencyUs, EventTime() - rpc_start);
          metrics_->Observe(obs::Hist::kRpcAttempts, attempt_value);
        }
        record(obs::EventKind::kRpcEnd, attempt_value);
        return result;
      }
      ++stats_.timeouts;
      if (metrics_ != nullptr) metrics_->Inc(obs::Counter::kTimeouts);
      record(obs::EventKind::kTimeout, attempt_value);
      if (attempt == retry_.max_attempts) break;
      ++stats_.retries;
      if (metrics_ != nullptr) metrics_->Inc(obs::Counter::kRetries);
      if (retry_.jitter_fraction > 0) {
        wait += static_cast<uint64_t>(static_cast<double>(backoff) *
                                      retry_.jitter_fraction *
                                      rng_.NextDouble());
      }
    }
    Wait(wait);
    backoff = static_cast<uint64_t>(static_cast<double>(backoff) *
                                    retry_.backoff_factor);
    const auto lock = LockIf(obs_mu_);
    record(obs::EventKind::kRetry, attempt_value + 1);
  }
  const auto lock = LockIf(obs_mu_);
  ++stats_.rpc_failures;
  if (metrics_ != nullptr) {
    metrics_->Inc(obs::Counter::kRpcsFailed);
    metrics_->Observe(obs::Hist::kRpcAttempts,
                      static_cast<uint64_t>(retry_.max_attempts));
  }
  record(obs::EventKind::kRpcFail, static_cast<uint64_t>(retry_.max_attempts));
  return result;
}

void Transport::RecordSend(uint64_t t_us, uint32_t from, uint32_t to,
                           uint64_t rpc, uint64_t seq, size_t bytes) {
  ++stats_.messages_sent;
  stats_.bytes_sent += bytes;
  if (metrics_ != nullptr) {
    metrics_->Inc(obs::Counter::kMessagesSent);
    metrics_->Inc(obs::Counter::kBytesSent, bytes);
    metrics_->IncNode(from, obs::NodeCounter::kMessages);
  }
  if (trace_ != nullptr) {
    obs::Event e;
    e.t_us = t_us;
    e.kind = obs::EventKind::kSend;
    e.node = from;
    e.peer = to;
    e.rpc = rpc;
    e.seq = seq;
    e.value = bytes;
    trace_->Record(std::move(e));
  }
}

void Transport::RecordDeliver(uint64_t t_us, uint32_t from, uint32_t to,
                              uint64_t rpc, uint64_t seq) {
  ++stats_.messages_delivered;
  if (metrics_ != nullptr) metrics_->Inc(obs::Counter::kMessagesDelivered);
  if (trace_ != nullptr) {
    obs::Event e;
    e.t_us = t_us;
    e.kind = obs::EventKind::kDeliver;
    e.node = to;
    e.peer = from;
    e.rpc = rpc;
    e.seq = seq;
    trace_->Record(std::move(e));
  }
}

void Transport::RecordDrop(uint64_t t_us, uint32_t from, uint32_t to,
                           uint64_t rpc, uint64_t seq, const char* cause) {
  ++stats_.messages_dropped;
  if (metrics_ != nullptr) metrics_->Inc(obs::Counter::kMessagesDropped);
  if (trace_ != nullptr) {
    obs::Event e;
    e.t_us = t_us;
    e.kind = obs::EventKind::kDrop;
    e.node = from;
    e.peer = to;
    e.rpc = rpc;
    e.seq = seq;
    e.detail = cause;
    trace_->Record(std::move(e));
  }
}

std::vector<Transport::RpcResult> Transport::CallBatch(
    const std::vector<Outgoing>& calls, const Handler& handler) {
  std::vector<RpcResult> results;
  results.reserve(calls.size());
  for (const Outgoing& out : calls) {
    results.push_back(Call(out.client, out.server, out.request, handler));
  }
  return results;
}

std::vector<Transport::Outgoing> Transport::FanOut(
    uint32_t client, const std::vector<uint32_t>& servers,
    const std::vector<uint8_t>& request) {
  std::vector<Outgoing> wave;
  wave.reserve(servers.size());
  for (uint32_t server : servers) wave.push_back({client, server, request});
  return wave;
}

Transport::QuorumResult Transport::EngageQuorum(
    uint32_t client, const std::vector<uint32_t>& candidates, int k,
    const std::vector<uint8_t>& request, const Handler& handler) {
  QuorumResult q;
  if (static_cast<int>(candidates.size()) < k) return q;
  q.members.assign(candidates.begin(), candidates.begin() + k);
  q.replies.resize(k);
  size_t next = static_cast<size_t>(k);

  // Wave 1 engages the first k candidates in parallel; each later wave
  // re-engages only the slots whose member was declared failed, with
  // the next spare substituted in.
  std::vector<int> pending(k);
  for (int i = 0; i < k; ++i) pending[i] = i;
  while (!pending.empty()) {
    std::vector<Outgoing> wave;
    wave.reserve(pending.size());
    for (int slot : pending) wave.push_back({client, q.members[slot], request});
    std::vector<RpcResult> results = CallBatch(wave, handler);

    std::vector<int> still_pending;
    for (size_t i = 0; i < pending.size(); ++i) {
      const int slot = pending[i];
      if (results[i].ok) {
        q.replies[slot] = std::move(results[i].reply);
        continue;
      }
      // Declared failed: substitute the next spare, if any remains.
      if (next >= candidates.size()) {
        return q;  // quorum genuinely unreachable (ok = false)
      }
      if (trace_ != nullptr) {
        obs::Event e;
        e.t_us = now_us();
        e.kind = obs::EventKind::kMark;
        e.node = wave[i].server;
        e.peer = candidates[next];
        e.detail = "quorum-replacement";
        trace_->Record(std::move(e));
      }
      q.members[slot] = candidates[next++];
      ++q.replacements;
      ++stats_.quorum_replacements;
      if (metrics_ != nullptr) {
        metrics_->Inc(obs::Counter::kQuorumReplacements);
      }
      still_pending.push_back(slot);
    }
    pending.swap(still_pending);
  }
  q.ok = true;
  return q;
}

void Transport::AdvanceRoute(int hops) {
  if (metrics_ != nullptr && hops > 0) {
    metrics_->Inc(obs::Counter::kRouteHops, static_cast<uint64_t>(hops));
  }
}

}  // namespace sep2p::net
