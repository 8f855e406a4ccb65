#include "net/transport.h"

#include <algorithm>

#include "core/messages.h"

namespace sep2p::net {

void Transport::Register(uint8_t tag, Handler handler) {
  handlers_[tag] = std::move(handler);
}

void Transport::RegisterNode(uint32_t node, uint8_t tag, Handler handler) {
  node_handlers_[{node, tag}] = std::move(handler);
}

void Transport::UnregisterNode(uint32_t node, uint8_t tag) {
  node_handlers_.erase({node, tag});
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
  auto node_it = node_handlers_.find({server, tag.value()});
  if (node_it != node_handlers_.end()) {
    return node_it->second(server, request);
  }
  auto it = handlers_.find(tag.value());
  if (it == handlers_.end()) return std::nullopt;
  return it->second(server, request);
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
  const uint64_t retries_before = stats_.retries;
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
        q.retries = static_cast<int>(stats_.retries - retries_before);
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
  q.retries = static_cast<int>(stats_.retries - retries_before);
  return q;
}

void Transport::AdvanceRoute(int hops) {
  if (metrics_ != nullptr && hops > 0) {
    metrics_->Inc(obs::Counter::kRouteHops, static_cast<uint64_t>(hops));
  }
}

}  // namespace sep2p::net
