// ChurnDriver: continuous Poisson join/leave/crash on the virtual clock.
//
// The paper's §3.6 argues the attested-join recurrence keeps node caches
// valid under membership change; this driver is what exercises that
// argument at scale. It superimposes three Poisson processes (join,
// graceful leave, crash) on the SimNetwork virtual clock and applies
// each event incrementally to the Directory — O(log N) per event via
// the Fenwick membership index, no rebuilds.
//
// Joins draw from two sources, in FIFO order: the pre-provisioned churn
// pool (Parameters::churn_pool — key pair and imposed location exist,
// but NO CA certificate yet, so the CA issues one at join time, exactly
// the issuance load real churn puts on the authority) and previously
// departed nodes re-joining with their existing credentials. Each join
// then runs the full §3.6 attested-join protocol (node::JoinProtocol:
// 2k signatures, 2(2k+1) verifications) over the driver's transport
// unless Options::attested_joins is off.
//
// Crashes live in the directory only: a join contacts only directory
// nodes, and its RPCs complete inside its event, so no RPC is in flight
// when a crash fires. A crashed node that re-joins is reachable again.
//
// Determinism: the driver is strictly sequential on the virtual clock
// and owns a single SplitMix64 stream (the transport's latency and
// backoff draws come from the transport's own Rng), so a run is a pure
// function of (network, options) — the digest is bit-identical for any
// thread count used to build the network.

#ifndef SEP2P_SIM_CHURN_DRIVER_H_
#define SEP2P_SIM_CHURN_DRIVER_H_

#include <cstdint>
#include <deque>

#include "net/sim_network.h"
#include "obs/metrics.h"
#include "sim/network.h"
#include "util/rng.h"

namespace sep2p::sim {

class ChurnDriver {
 public:
  struct Options {
    // Poisson event rates, per virtual second. Zero disables a process.
    double join_rate_per_s = 1.0;
    double leave_rate_per_s = 0.5;
    double crash_rate_per_s = 0.5;
    // Run the §3.6 attested-join protocol for every join (CA issuance
    // still happens regardless; this gates the attestation rounds).
    bool attested_joins = true;
    uint64_t seed = 0x636875726eULL;  // "churn"
    obs::MetricsRegistry* metrics = nullptr;
  };

  struct Stats {
    uint64_t events = 0;
    uint64_t joins = 0;
    uint64_t joins_rejected = 0;  // §3.6 ran but could not complete
    uint64_t leaves = 0;
    uint64_t crashes = 0;
    uint64_t certs_issued = 0;     // churn-pool nodes certified at join
    uint64_t ktable_refreshes = 0;
    uint64_t final_alive = 0;
    uint64_t virtual_us = 0;  // virtual time the events spanned
    // FNV-1a fold of (event kind, node handle, timestamp, outcome) for
    // every event: any divergence across runs/thread counts shows here.
    uint64_t digest = 14695981039346656037ULL;
  };

  // `network` and `transport` (non-null) must outlive the driver.
  // Clock contract: each event sets the transport's clock to its time
  // (SimNetwork::SetVirtualTime), then a join's RPCs advance it by their
  // latency, so the transport's clock is never behind now_us() and
  // equals it unless the last event was a join.
  ChurnDriver(Network* network, net::SimNetwork* transport, Options options);

  // Applies the next `count` churn events. Events that cannot proceed
  // (join with an empty standby queue, leave/crash of the last alive
  // node) are skipped but still advance the clock and count as events.
  void Run(uint64_t count);

  const Stats& stats() const { return stats_; }
  uint64_t now_us() const { return now_us_; }
  // Nodes currently waiting to (re)join, FIFO.
  size_t standby_count() const { return standby_.size(); }

 private:
  enum class Kind : uint8_t { kJoin = 1, kLeave = 2, kCrash = 3 };

  void Step();
  void DoJoin();
  void DoLeave(bool crash);
  void Fold(Kind kind, uint32_t node, uint64_t detail);

  Network* network_;
  net::SimNetwork* transport_;
  Options options_;
  util::Rng rng_;
  Stats stats_;
  uint64_t now_us_ = 0;
  std::deque<uint32_t> standby_;  // pool + departed, FIFO rejoin order
  uint64_t ktable_population_;
};

}  // namespace sep2p::sim

#endif  // SEP2P_SIM_CHURN_DRIVER_H_
