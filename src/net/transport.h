// net::Transport: the message-layer interface every SEP2P protocol
// driver talks to.
//
// The protocols (CSAR verifiable randomness, imposed-location actor
// selection, attested joins, the five apps) are specified as messages
// between nodes; this interface is the contract they are written
// against. Two implementations exist:
//
//   * SimNetwork (net/sim_network.h) — the deterministic discrete-event
//     engine. Virtual clock, seeded latency/drop/crash injection,
//     virtual-parallel CallBatch. Bit-identical replay for a fixed seed.
//   * TcpTransport (net/tcp_transport.h) — real sockets between OS
//     processes. Length-prefixed frames over core/wire.h, wall-clock
//     timeouts, per-connection reconnect.
//
// The split of responsibilities:
//
//   * The base class owns the RPC state machine (Call: the RPC id, the
//     attempts, the timeouts, the backoff with jitter, and the six
//     lifecycle events with their counters), the message accounting
//     (RecordSend / RecordDeliver / RecordDrop write Stats, the metrics
//     counters and the trace event of every transmission), the seeded
//     Rng and the RPC ids. It also owns the handler registry (one
//     handler per message tag) and PeekTag dispatch, so a *remote*
//     process routes an incoming frame to the same handler a sim run
//     invokes in-process, the obs hooks, and the EngageQuorum
//     replacement-wave algorithm (pure control flow over CallBatch).
//   * Implementations own one attempt (Attempt: a request and, in time,
//     its reply), the wait before a retry (Wait), the clock and the
//     wire. Every protocol round is one CallBatch (FanOut builds the
//     same-request wave). The base CallBatch issues its calls one after
//     another through Call; SimNetwork overrides it with its
//     virtual-parallel wave, so a transport that forwards Call and
//     CallBatch forwards every message.
//
// Per-call handlers vs registered dispatch: Call takes an optional
// Handler. SimNetwork executes it in-process (this is how the protocol
// drivers model server-side behaviour with closures over driver state,
// and it keeps pre-refactor runs bit-identical); when the handler is
// empty it falls back to the registered dispatch table. TcpTransport
// ALWAYS ignores the per-call handler — the server process answers from
// its own registered table (core/protocol_service.h holds the resident
// server-side protocol state) — which is exactly the honest-execution
// assumption the closures encode. Capability probes (remote_dispatch,
// NewEngagementNonce) let shared code ask which world it is in without
// #ifdef forks. Crash injection and jumps of the virtual clock are
// SimNetwork's own: code that places work on a virtual timeline (the
// throughput engine, the churn driver) takes a SimNetwork.
//
// Thread-safety: the registry and stats are guarded by the obs lock
// only. A SimNetwork must stay on one thread and has no obs lock.
// TcpTransport hands the base class its mutex as the obs lock, which
// serializes Stats, metrics, trace writes, Register and dispatch
// against its service threads.

#ifndef SEP2P_NET_TRANSPORT_H_
#define SEP2P_NET_TRANSPORT_H_

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "util/rng.h"

namespace sep2p::net {

// Per-RPC timeout/retry/backoff policy. For SimNetwork the times are
// virtual microseconds; for TcpTransport they are wall-clock
// microseconds. Each transport declares which domain it meters in its
// traces via obs::TraceMeta::clock (obs/trace.h) so exporters and the
// analyzer label time axes instead of conflating the two.
struct RetryPolicy {
  // An attempt times out when the reply has not arrived this long after
  // the request departed.
  uint64_t timeout_us = 250'000;
  // Total attempts (1 = no retries).
  int max_attempts = 4;
  // Wait before the first retry; multiplied by `backoff_factor` after
  // each further timeout.
  uint64_t backoff_base_us = 100'000;
  double backoff_factor = 2.0;
  // Deterministic jitter: each backoff is stretched by a uniform factor
  // in [0, jitter_fraction), drawn from the transport's seeded Rng.
  double jitter_fraction = 0.2;
};

class Transport {
 public:
  struct Stats {
    uint64_t messages_sent = 0;     // transmissions attempted
    uint64_t messages_dropped = 0;  // lost to the link
    uint64_t messages_delivered = 0;
    uint64_t late_replies = 0;      // delivered after the caller gave up
    uint64_t bytes_sent = 0;
    uint64_t timeouts = 0;      // attempts that expired
    uint64_t retries = 0;       // re-sent requests
    uint64_t rpc_failures = 0;  // calls that exhausted every attempt
    uint64_t step_crashes = 0;  // nodes killed by the per-step coin
    uint64_t quorum_replacements = 0;  // members declared failed and
                                       // substituted by EngageQuorum
  };

  struct RpcResult {
    bool ok = false;
    int attempts = 0;  // attempts consumed (>= 1 once issued)
    std::vector<uint8_t> reply;
  };

  // Outcome of a quorum engagement (see EngageQuorum).
  struct QuorumResult {
    bool ok = false;  // k responsive members found
    std::vector<uint32_t> members;
    std::vector<std::vector<uint8_t>> replies;  // one per member
    int replacements = 0;  // candidates declared failed and substituted
  };

  // Server-side behaviour: given (server node, request bytes), produce
  // reply bytes, or nullopt when the server refuses to answer. Handlers
  // MUST be idempotent — a lost reply makes the caller retransmit, which
  // re-invokes the handler — and must never re-enter the transport (no
  // Call, no Register: dispatch runs under the obs lock).
  using Handler = std::function<std::optional<std::vector<uint8_t>>(
      uint32_t server, const std::vector<uint8_t>& request)>;

  // One call of a batch wave: `client` issues `request` to `server`.
  struct Outgoing {
    uint32_t client = 0;
    uint32_t server = 0;
    std::vector<uint8_t> request;
  };

  virtual ~Transport() = default;

  // ---- Capability probes -------------------------------------------

  // True when server-side behaviour executes in OTHER processes via the
  // registered dispatch table (per-call handler closures are ignored).
  // Protocol drivers branch on this for data plumbing only — e.g.
  // sending the commitment preimage on the wire instead of reading it
  // out of a closure — never for protocol logic.
  virtual bool remote_dispatch() const = 0;

  // Fresh nonzero nonce scoping one protocol engagement's server-side
  // state (core/protocol_service.h keys its per-engagement tables on
  // it). Transports that dispatch in-process return 0: the closures ARE
  // the engagement state, and a zero nonce encodes to version-1 wire
  // bytes — bit-identical to pre-refactor runs.
  virtual uint64_t NewEngagementNonce() { return 0; }

  // ---- Clock, stats, obs hooks -------------------------------------

  virtual uint64_t now_us() const = 0;
  const Stats& stats() const { return stats_; }
  const RetryPolicy& retry() const { return retry_; }

  // Attaches an observability recorder / metrics registry. Recording is
  // passive — no randomness, no clock — so a traced or metered run is
  // bit-identical to a bare one. Pass nullptr to detach.
  virtual void set_trace(obs::TraceRecorder* trace) { trace_ = trace; }
  obs::TraceRecorder* trace() const { return trace_; }
  void set_metrics(obs::MetricsRegistry* metrics) { metrics_ = metrics; }
  obs::MetricsRegistry* metrics() const { return metrics_; }

  // Records the end-of-run mark the checker's message-conservation
  // invariant closes over. Call once, after the last protocol action.
  virtual void FinalizeTrace() {}

  // ---- Registered dispatch -----------------------------------------

  // Installs `handler` for `tag` on every node; the handler decides per
  // `server` (a round's handler refuses at nodes without a role in it).
  // Last registration wins. Takes the obs lock, so a threaded transport
  // serializes it against its concurrent dispatch.
  void Register(uint8_t tag, Handler handler);

  // Routes (server, request) through the registry: peeks the tag and
  // runs its handler. Unknown tags are refused (the caller times out, as
  // against a node that does not run the app). The caller holds the
  // obs lock.
  std::optional<std::vector<uint8_t>> Dispatch(
      uint32_t server, const std::vector<uint8_t>& request);

  // ---- Messaging ---------------------------------------------------

  // Synchronous request/response from `client` to `server`: the one RPC
  // state machine. Each attempt is one Attempt; an attempt without a
  // reply is a timeout, followed (budget permitting) by a Wait of the
  // jittered exponential backoff and a retry. Records rpc-begin,
  // attempt, timeout, retry and rpc-end or rpc-fail, with their
  // counters. When `handler` is empty the server side answers via
  // Dispatch (in the server's process, wherever that is); a non-empty
  // handler models the server in-process on transports that support
  // it. Virtual only so that a wrapping transport can forward it whole.
  virtual RpcResult Call(uint32_t client, uint32_t server,
                         const std::vector<uint8_t>& request,
                         const Handler& handler = {});

  // One wave of parallel calls, from one client or many (a quorum
  // round, or every data source contributing to its aggregator at
  // once); results come back in call order. The base issues the calls
  // one after another through Call in index order (a wall-clock
  // transport overlaps real time naturally); SimNetwork overrides it
  // with its virtual-parallel wave.
  virtual std::vector<RpcResult> CallBatch(
      const std::vector<Outgoing>& calls, const Handler& handler = {});

  // The same-request wave: `client` sends `request` to every server, in
  // order. Each call carries its own copy of the request.
  static std::vector<Outgoing> FanOut(uint32_t client,
                                      const std::vector<uint32_t>& servers,
                                      const std::vector<uint8_t>& request);

  // Engages `k` responsive members out of `candidates` (in order), each
  // sent `request`: the first k are contacted in one wave; members
  // whose RPC exhausts its retry budget are declared failed and
  // replaced by the next spare candidates in a follow-up wave. Fails
  // (ok = false) only when the candidate list runs dry — the caller's
  // cue that the quorum is genuinely unreachable and a full restart is
  // warranted. Pure control flow over CallBatch, shared by every
  // transport.
  QuorumResult EngageQuorum(uint32_t client,
                            const std::vector<uint32_t>& candidates, int k,
                            const std::vector<uint8_t>& request,
                            const Handler& handler = {});

  // Models a DHT routing leg of `hops` store-and-forward messages.
  // SimNetwork advances the virtual clock; TcpTransport only meters it
  // (real routing would be the overlay's own traffic).
  virtual void AdvanceRoute(int hops);

 protected:
  // `seed` seeds the transport's Rng; RPC ids count up from
  // `rpc_id_base` + 1.
  explicit Transport(uint64_t seed = 0, uint64_t rpc_id_base = 0)
      : rng_(seed), next_rpc_id_(rpc_id_base) {}

  // One attempt of RPC `rpc`: delivers `request` to `server` and returns
  // the reply, or nullopt when none arrives in time (lost, refused, or
  // the server is down). A virtual clock is left at the end of the
  // attempt: the reply's arrival, or the deadline. Called without the
  // obs lock.
  virtual std::optional<std::vector<uint8_t>> Attempt(
      uint32_t client, uint32_t server, uint64_t rpc,
      const std::vector<uint8_t>& request, const Handler& handler) = 0;

  // The backoff before a retry: advances the clock by `us`. Called
  // without the obs lock.
  virtual void Wait(uint64_t us) = 0;

  // The time stamped on the events Call records; the caller holds the
  // obs lock. A transport whose recorder reads a clock cache refreshes
  // it here.
  virtual uint64_t EventTime() { return now_us(); }

  // Message accounting: one transmission from `from` to `to` at `t_us`,
  // numbered `seq` (0 where the transport does not number them). Each
  // writes Stats, the metrics counters and the trace event of its fate;
  // the caller holds the obs lock.
  void RecordSend(uint64_t t_us, uint32_t from, uint32_t to, uint64_t rpc,
                  uint64_t seq, size_t bytes);
  void RecordDeliver(uint64_t t_us, uint32_t from, uint32_t to, uint64_t rpc,
                     uint64_t seq);
  void RecordDrop(uint64_t t_us, uint32_t from, uint32_t to, uint64_t rpc,
                  uint64_t seq, const char* cause);

  Stats stats_;
  RetryPolicy retry_;
  obs::TraceRecorder* trace_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  // Every random decision of the transport (SimNetwork: latency, drops,
  // crash coins; both: backoff jitter) draws from this one stream.
  util::Rng rng_;
  // Serializes Stats, metrics and trace writes against the transport's
  // other threads; null on a single-threaded transport.
  std::mutex* obs_mu_ = nullptr;

 private:
  // Advances under the obs lock whether or not tracing is on (and never
  // from the Rng), so traced and untraced runs stay bit-identical.
  uint64_t next_rpc_id_;
  std::map<uint8_t, Handler> handlers_;
};

}  // namespace sep2p::net

#endif  // SEP2P_NET_TRANSPORT_H_
