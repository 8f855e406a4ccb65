// SimNetwork: a deterministic discrete-event message layer — the
// simulation implementation of net::Transport.
//
// A virtual clock in microseconds, an event queue of in-flight
// messages, a seeded latency distribution (base + exponential jitter
// per transmission), per-link drop probability, and node-crash
// schedules (explicit CrashAt, or a per-request crash coin — the
// paper's §3.6 "Failures and disconnections"). It keeps no per-node
// state until a node is scheduled to crash, so building one costs the
// same at any node count. It supplies one attempt of an RPC
// and the virtual wait before a retry; Transport::Call runs the RPC
// state machine over them — per-call timeouts with bounded retries and
// exponential backoff plus deterministic jitter — so a slow or dropped
// reply is retried, and a peer that exhausts the retry budget is
// *declared failed* instead of silently aborting the run.
//
// Determinism contract: every random decision (latency sample, drop,
// step-crash, backoff jitter) draws from the transport's single Rng,
// and the protocol drivers issue calls in a fixed order, so a
// SimNetwork seeded identically replays the exact same trace. Parallel
// experiment harnesses give each trial its OWN SimNetwork, or build a
// new protocol object, and with it a new ideal one, at each
// TrialRunner shard (sim/experiment.h); a SimNetwork must never be
// shared across threads.
//
// The cost model (net/cost.h) keeps counting the *logical* protocol
// messages of the paper's figures; SimNetwork's Stats count transport
// transmissions, so retries and drops show up there without skewing the
// paper-comparable numbers.

#ifndef SEP2P_NET_SIM_NETWORK_H_
#define SEP2P_NET_SIM_NETWORK_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <queue>
#include <vector>

#include "net/transport.h"
#include "obs/trace.h"

namespace sep2p::net {

// One-way link behaviour, identical for every (from, to) pair.
struct LinkModel {
  // Fixed propagation floor per transmission.
  uint64_t base_latency_us = 20'000;
  // Mean of the exponential jitter added on top (0 = constant latency).
  uint64_t jitter_mean_us = 10'000;
  // Probability that a given transmission is lost.
  double drop_probability = 0.0;
  // Server-side processing delay between receiving a request and the
  // reply departing.
  uint64_t process_us = 1'000;
};

// The ideal link: no latency, no jitter, no processing delay, no loss.
// Protocol objects whose caller brings no transport run on a SimNetwork
// over this link (core/vrand.h, core/selection.h, sim/churn_driver.h);
// a server that refuses still times out and is retried, so withheld
// replies stay visible in its trace.
inline constexpr LinkModel kIdealLink{.base_latency_us = 0,
                                      .jitter_mean_us = 0,
                                      .drop_probability = 0.0,
                                      .process_us = 0};

class SimNetwork : public Transport {
 public:
  SimNetwork(uint32_t node_count, const LinkModel& link,
             const RetryPolicy& retry, uint64_t seed);

  // In-process dispatch: per-call handler closures model the servers.
  bool remote_dispatch() const override { return false; }

  uint64_t now_us() const override { return now_us_; }
  const LinkModel& link() const { return link_; }
  uint32_t node_count() const { return node_count_; }

  // Schedules `node` to crash (become permanently unreachable) at
  // `at_us` on the virtual clock. The first call sizes the crash
  // schedule to the node count.
  void CrashAt(uint32_t node, uint64_t at_us);

  // Per-step crash probability: every time a request reaches a live
  // node, the node crashes with this probability before acting on it.
  // Crashes are permanent, so the failure is observable (timeouts) and
  // attributable, and the quorum engagement replaces the crashed node.
  void set_step_crash_probability(double p) { step_crash_probability_ = p; }

  bool IsUp(uint32_t node, uint64_t at_us) const;

  // Attaches an observability recorder: the network binds it to its
  // virtual clock, stamps its meta (node count, retry budget) and emits
  // send/deliver/drop/timeout/retry/crash events into it. Recording is
  // passive — no randomness is drawn and no clock is advanced for it —
  // so a traced run is bit-identical to an untraced one. Pass nullptr
  // (the default state) to disable.
  void set_trace(obs::TraceRecorder* trace) override;

  // Records the end-of-run mark the checker's message-conservation
  // invariant closes over: sends = delivers + drops + in-flight at
  // shutdown. Call once, after the last protocol action.
  void FinalizeTrace() override;

  // The virtual-parallel wave, from one client or many (every protocol
  // round: a quorum's engagement, a same-request FanOut, every data
  // source contributing to its aggregator at once): every call starts
  // at the current virtual time and the clock lands on the slowest
  // call's completion. Calls are evaluated in index order, so the trace
  // is deterministic.
  std::vector<RpcResult> CallBatch(const std::vector<Outgoing>& calls,
                                   const Handler& handler = {}) override;

  // Models a DHT routing leg of `hops` store-and-forward messages:
  // advances the clock by `hops` sampled one-way latencies and counts
  // the transmissions. Loss recovery on routing legs is the overlay's
  // business, so no drops are applied here.
  void AdvanceRoute(int hops) override;

  // Jumps the virtual clock to `at_us` (delivering anything due), used
  // by the throughput engine and the churn driver to place each task's
  // execution at its admission instant. Mirrors CallBatch's
  // virtual-parallel shape — rewinding to an earlier instant models
  // branches that ran concurrently — so monotonicity is deliberately NOT
  // required; the event queue keys on delivery time, never on the
  // current clock.
  void SetVirtualTime(uint64_t at_us) {
    AdvanceTo(at_us);
    now_us_ = at_us;
  }

 protected:
  // One attempt, advancing the virtual clock: request latency + server
  // processing + reply latency. The handler's reply is held here while
  // its header travels through the event queue, and is returned once
  // that header is delivered; without one by the deadline (lost,
  // refused, or the server crashed), the clock lands on the deadline.
  // An empty `handler` answers via the registered dispatch table
  // instead (the apps' and ProtocolService's handlers).
  std::optional<std::vector<uint8_t>> Attempt(
      uint32_t client, uint32_t server, uint64_t rpc,
      const std::vector<uint8_t>& request, const Handler& handler) override;
  void Wait(uint64_t us) override { now_us_ += us; }

 private:
  // A message in flight is its header: nothing reads its bytes after
  // they are metered, except the reply the running attempt awaits,
  // which Attempt holds itself.
  struct Delivery {
    uint64_t at_us = 0;
    uint64_t seq = 0;
    uint32_t from = 0;
    uint32_t to = 0;
    uint64_t rpc = 0;  // issuing RPC (trace attribution only)
  };
  struct Later {
    bool operator()(const Delivery& a, const Delivery& b) const {
      // Min-heap on (time, seq): seq breaks ties deterministically.
      if (a.at_us != b.at_us) return a.at_us > b.at_us;
      return a.seq > b.seq;
    }
  };

  // One-way transmission of a `bytes`-byte message, part of RPC `rpc`,
  // departing at `depart_us`; returns the delivery time, or nullopt
  // when the link drops the message or the destination is down at
  // arrival. The message is numbered `*seq_out`.
  std::optional<uint64_t> Transmit(uint32_t from, uint32_t to, uint64_t rpc,
                                   size_t bytes, uint64_t depart_us,
                                   uint64_t* seq_out);

  // Delivers every in-flight message with delivery time <= `at_us`, in
  // (time, seq) order. Returns whether message `awaited` is among them:
  // the running attempt's request on the server side, its reply on the
  // client side. Every other delivery is a reply whose attempt has ended
  // (a request is delivered only within its own attempt), so it counts
  // as a late reply.
  bool AdvanceTo(uint64_t at_us,
                 std::optional<uint64_t> awaited = std::nullopt);

  uint64_t SampleLatencyUs();
  // Samples the per-step crash coin for a live `node` handling a request
  // at `at_us`; returns true (and records the crash) on failure.
  bool StepCrash(uint32_t node, uint64_t at_us);

  LinkModel link_;
  uint32_t node_count_;
  // Crash time per node; empty until the first CrashAt.
  std::vector<uint64_t> crash_at_us_;
  std::priority_queue<Delivery, std::vector<Delivery>, Later> in_flight_;
  uint64_t now_us_ = 0;
  uint64_t next_seq_ = 0;
  double step_crash_probability_ = 0.0;
};

}  // namespace sep2p::net

#endif  // SEP2P_NET_SIM_NETWORK_H_
