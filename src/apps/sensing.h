// Use case 1: mobile participatory sensing (paper §5.1-§5.3).
//
// Community members act as mobile probes; their PDMSs hold geo-localized
// readings (traffic speed, noise, air quality). One aggregation round:
//
//   1. The triggering node runs the SEP2P actor selection over the
//      message network; the A actors become data aggregators (DAs), the
//      first doubling as the main data aggregator (MDA). An unreachable
//      quorum restarts the selection with a fresh RND_T.
//   2. Every data source *verifies the actor list* (2k asymmetric ops)
//      before contributing — a data source is a verifier by definition.
//   3. Sources send ANONYMIZED tuples (grid cell, value) — no identity,
//      no raw position — to the DA responsible for the cell
//      (cell -> DA by hash), sealed to the DA's key, as one parallel
//      wave of SensingContribution messages. A contribution whose RPC
//      exhausts its retries is LOST: the round completes with fewer
//      readings instead of failing (degraded-but-correct).
//   4. DAs send their partial aggregates to the MDA (SensingPartial
//      messages); the MDA merges and publishes to the trigger.
//
// Task atomicity: each DA sees only its own cells' anonymized values,
// the MDA sees only per-cell partial sums, and a corrupted DA learns a
// bounded slice of anonymous data — the leakage trace in RoundResult
// lets tests assert exactly that.
//
// The app registers SensingContribution and SensingPartial once, when
// it is constructed: one ParticipatorySensingApp per transport serves
// them, and it must outlive the transport's last dispatch. Each handler
// reads the current round's state, so only that round's DAs take
// contributions and only its MDA and trigger take partials; any other
// node refuses, and so does every node before the first round.

#ifndef SEP2P_APPS_SENSING_H_
#define SEP2P_APPS_SENSING_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "core/verification.h"
#include "node/app_runtime.h"
#include "node/pdms_node.h"
#include "sim/network.h"
#include "util/rng.h"

namespace sep2p::apps {

// Average statistic per grid cell.
struct CellStat {
  double sum = 0;
  uint64_t count = 0;
  double average() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
};

struct SpatialAggregate {
  int grid = 0;  // grid x grid cells over the unit square
  std::vector<CellStat> cells;

  CellStat& at(int ix, int iy) { return cells[iy * grid + ix]; }
  const CellStat& at(int ix, int iy) const { return cells[iy * grid + ix]; }
  uint64_t total_count() const;
};

class ParticipatorySensingApp {
 public:
  struct Config {
    int grid = 4;
    int aggregator_count = 8;  // DAs per round (A for the selection)
    int max_selection_attempts = 8;  // fresh-RND_T restart budget
  };

  // `network`, `pdms` (one per directory index) and `runtime` must
  // outlive the app.
  ParticipatorySensingApp(sim::Network* network,
                          std::vector<node::PdmsNode>* pdms,
                          node::AppRuntime* runtime)
      : ParticipatorySensingApp(network, pdms, runtime, Config()) {}
  ParticipatorySensingApp(sim::Network* network,
                          std::vector<node::PdmsNode>* pdms,
                          node::AppRuntime* runtime, Config config);

  // The registered handlers hold this app's address.
  ParticipatorySensingApp(const ParticipatorySensingApp&) = delete;
  ParticipatorySensingApp& operator=(const ParticipatorySensingApp&) =
      delete;

  struct RoundResult {
    SpatialAggregate aggregate;         // the MDA's merged view
    std::vector<uint32_t> aggregators;  // DA directory indices
    uint32_t main_aggregator = 0;       // MDA
    int sources = 0;                    // contributing nodes
    int verifier_rejections = 0;        // sources that refused a bad VAL
    net::Cost selection_cost;           // the selection alone
    net::Cost cost;                     // selection + measured app traffic
    double per_source_verification_ops = 0;  // 2k
    // Degraded-completion accounting.
    int selection_restarts = 0;
    int readings_sent = 0;       // contribution RPCs issued
    int readings_delivered = 0;  // acknowledged by a DA
    int partials_merged = 0;     // DA partials that reached the MDA
    bool published = false;      // MDA -> trigger publication landed
    uint64_t round_latency_us = 0;  // virtual-clock, selection included
    // Leakage trace: values seen by each DA, without identities.
    std::vector<std::vector<double>> values_seen_by_da;
  };

  // Runs one aggregation round triggered by `trigger_index`.
  Result<RoundResult> RunRound(uint32_t trigger_index, util::Rng& rng);

  // Continuous sensing (§5.3: "aggregation is continuous in the mobile
  // sensing use case and the selected DA node will change at each
  // iteration"): runs `rounds` successive aggregations and reports, per
  // node that ever served as DA, the fraction of ALL contributed values
  // it observed. Rotation keeps every node's cumulative exposure near
  // 1/A per round served, instead of letting a fixed aggregator
  // accumulate the whole stream.
  struct ContinuousResult {
    int rounds = 0;
    uint64_t total_values = 0;
    // node -> values seen across all rounds (only nodes that served).
    std::map<uint32_t, uint64_t> values_seen_by_node;
    double max_fraction_seen_by_one_node = 0;
    int distinct_aggregators = 0;
  };
  Result<ContinuousResult> RunContinuous(int rounds, util::Rng& rng);

  // Workload generator: seeds `count` random readings across `sources`
  // random PDMSs; values drawn from a cell-dependent ground truth so the
  // aggregate is verifiable.
  void GenerateWorkload(int sources, int readings_per_source,
                        util::Rng& rng);

  // Ground truth the generator used (for test assertions).
  double GroundTruth(int ix, int iy) const;

 private:
  // Per-round DA/MDA-side message state, reset by RunRound.
  struct RoundState {
    uint32_t trigger = 0;
    uint32_t mda = 0;
    std::vector<SpatialAggregate> partials;         // per DA slot
    std::vector<std::vector<double>> values_seen;   // per DA slot
    std::map<uint32_t, size_t> slot_of;             // DA node -> slot
    std::set<uint64_t> seen_contributions;          // dedup ids
    SpatialAggregate merged;                        // MDA view
    std::set<uint32_t> merged_slots;                // dedup partials
    bool published = false;                         // trigger view
  };

  sim::Network* network_;
  std::vector<node::PdmsNode>* pdms_;
  node::AppRuntime* runtime_;
  Config config_;
  std::unique_ptr<RoundState> round_;
};

}  // namespace sep2p::apps

#endif  // SEP2P_APPS_SENSING_H_
