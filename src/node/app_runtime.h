// AppRuntime: the per-node application endpoint over net::Transport.
//
// The use-case applications (apps/sensing, diffusion, concept_index,
// proxy, query) exchange data exclusively as typed wire messages
// (core/messages.h) dispatched through the transport's registered
// handler table. Each message tag maps to a handler — registered either
// for every node (Register) or for one specific node (RegisterNode,
// which wins) — so "the DA merges partials" literally means the DA
// node's handler consumed a SensingPartial that travelled the network
// (simulated or real TCP), with the same per-RPC timeout/bounded-retry/
// backoff treatment the selection protocol gets. Handlers MUST be
// idempotent: a lost reply makes the caller retransmit, which
// re-invokes the handler (deduplicate on the message's id field).
//
// Cost accounting: the runtime replaces the apps' hand-rolled Cost
// counters with measurement. Every RPC charges one LOGICAL protocol
// message (replies/acks ride free, matching the paper's figures);
// retransmissions only show up in Transport::Stats. Sequential calls
// charge Step (latency + work); batched background waves charge WorkOnly
// (work only) — mirroring how the paper composes critical-path vs
// total-work counts. Apps snapshot measured_cost() around a phase and
// take net::Cost::Delta to attribute the phase's cost.

#ifndef SEP2P_NODE_APP_RUNTIME_H_
#define SEP2P_NODE_APP_RUNTIME_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "core/context.h"
#include "core/selection.h"
#include "net/cost.h"
#include "net/transport.h"
#include "util/rng.h"
#include "util/status.h"

namespace sep2p::node {

class AppRuntime {
 public:
  // (server node, request bytes) -> reply bytes, or nullopt to refuse
  // (the caller times out).
  using Handler = net::Transport::Handler;
  using Outgoing = net::Transport::Outgoing;

  // `network` must outlive the runtime; driver-side calls stay on one
  // thread (one runtime + transport per trial / per process).
  explicit AppRuntime(net::Transport* network) : network_(network) {}

  // Installs `handler` for `tag` on EVERY node (homogeneous deployment,
  // e.g. any node can serve as metadata indexer). Last registration
  // wins.
  void Register(uint8_t tag, Handler handler);

  // Installs `handler` for `tag` on one specific node (e.g. this round's
  // data aggregators); takes precedence over the global registration.
  void RegisterNode(uint32_t node, uint8_t tag, Handler handler);
  void UnregisterNode(uint32_t node, uint8_t tag);

  // Sequential RPC on the critical path: charges Step(0, 1). The server
  // side answers through the transport's registered dispatch — in this
  // process under SimNetwork, in the server's process under
  // TcpTransport.
  net::Transport::RpcResult Call(uint32_t client, uint32_t server,
                                 const std::vector<uint8_t>& request);

  // A parallel wave of calls off the critical path (many clients at
  // once, e.g. every source contributing to its DA): charges
  // WorkOnly(0, 1) per call; the virtual clock lands on the slowest
  // call.
  std::vector<net::Transport::RpcResult> CallBatch(
      const std::vector<Outgoing>& calls);

  // DHT routing leg on the critical path: charges Step(0, hops).
  void AdvanceRoute(int hops);

  // Charges cost incurred outside the transport (e.g. the 2k asymmetric
  // operations of a VAL verification).
  void Charge(const net::Cost& cost) { cost_.Then(cost); }

  // Runs the actor selection over this runtime's transport through
  // core::SelectionProtocol::RunWithRestarts (a fresh RND_T, up to
  // `max_attempts` runs total, only when a quorum is genuinely
  // unreachable) and counts the restarts in the transport's metrics.
  // `restarts` (if non-null) receives the number of restarts consumed
  // on success.
  Result<core::SelectionProtocol::Outcome> RunSelection(
      const core::ProtocolContext& ctx, uint32_t trigger_index,
      util::Rng& rng, int max_attempts, int* restarts);

  // Monotonic id for message-level deduplication (unique per runtime).
  uint64_t NextMessageId() { return ++next_message_id_; }

  const net::Cost& measured_cost() const { return cost_; }
  net::Transport* network() { return network_; }
  uint64_t now_us() const { return network_->now_us(); }
  // The transport's attached trace recorder (nullptr = tracing off);
  // apps open obs::Span phases through this.
  obs::TraceRecorder* trace() const { return network_->trace(); }
  // The transport's attached metrics registry (nullptr = metering off);
  // handing both to obs::Span makes app phases metrics phases too.
  obs::MetricsRegistry* metrics() const { return network_->metrics(); }

 private:
  net::Transport* network_;
  net::Cost cost_;
  uint64_t next_message_id_ = 0;
};

}  // namespace sep2p::node

#endif  // SEP2P_NODE_APP_RUNTIME_H_
