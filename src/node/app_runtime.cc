#include "node/app_runtime.h"

namespace sep2p::node {

net::Transport::RpcResult AppRuntime::Call(
    uint32_t client, uint32_t server, const std::vector<uint8_t>& request) {
  cost_.Then(net::Cost::Step(0, 1));
  return network_->Call(client, server, request);
}

std::vector<net::Transport::RpcResult> AppRuntime::CallBatch(
    const std::vector<Outgoing>& calls) {
  cost_.Then(net::Cost::WorkOnly(0, static_cast<double>(calls.size())));
  return network_->CallBatch(calls);
}

void AppRuntime::AdvanceRoute(int hops) {
  cost_.Then(net::Cost::Step(0, static_cast<double>(hops)));
  network_->AdvanceRoute(hops);
}

Result<core::SelectionProtocol::Outcome> AppRuntime::RunSelection(
    const core::ProtocolContext& ctx, uint32_t trigger_index, util::Rng& rng,
    int max_attempts, int* restarts) {
  core::SelectionProtocol protocol(ctx);
  core::SelectionOptions options;
  options.network = network_;
  int consumed = 0;
  Result<core::SelectionProtocol::Outcome> run = protocol.RunWithRestarts(
      trigger_index, rng, options, max_attempts, &consumed);
  if (run.ok() && restarts != nullptr) *restarts = consumed;
  if (obs::MetricsRegistry* m = network_->metrics();
      m != nullptr && consumed > 0) {
    m->Inc(obs::Counter::kRestarts, static_cast<uint64_t>(consumed));
  }
  return run;
}

}  // namespace sep2p::node
