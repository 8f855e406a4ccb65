// Deterministic low-overhead metrics: counters, gauges and fixed-bucket
// histograms with per-protocol-phase and per-node attribution.
//
// MetricsRegistry is the always-on companion to the trace recorder
// (obs/trace.h): where a trace stores every event for later analysis, a
// registry keeps O(1)-size aggregates that are cheap enough to leave
// enabled in sweeps with millions of trials. Like tracing, metering is
// STRICTLY PASSIVE — hook points consult an optional MetricsRegistry*
// and increment plain integers only when one is attached, drawing no
// randomness and advancing no clock — so a metered run is bit-identical
// to an unmetered one for any --threads value.
//
// Determinism contract. A registry is single-threaded (one per trial or
// per shard, like a SimNetwork). Parallel harnesses give each shard its
// own registry and Merge() them in shard order; every aggregate kept
// here is merge-order independent anyway:
//  - counters merge by addition (commutative);
//  - histograms have FIXED bucket boundaries (below), so merged counts
//    and the quantiles derived from them cannot depend on which thread
//    observed which sample;
//  - phase tables merge by phase NAME, so shards that saw phases in
//    different orders still produce the identical union;
//  - gauges describe configuration and merge by last-writer-wins on
//    equal keys (harnesses set them once, serially).
//
// Histogram bucket boundaries: a 1-2-5 decade series in microseconds,
//   10, 20, 50, 100, 200, 500, 1e3, 2e3, 5e3, 1e4, 2e4, 5e4,
//   1e5, 2e5, 5e5, 1e6, 2e6, 5e6, 1e7, 2e7, 5e7, 1e8, 2e8, 5e8, 1e9
// (25 inclusive upper bounds) plus one overflow bucket — 26 buckets
// total, compile-time constant, never configurable: merging shards
// recorded by different threads can never disagree on bucket edges.

#ifndef SEP2P_OBS_METRICS_H_
#define SEP2P_OBS_METRICS_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace sep2p::obs {

class Histogram {
 public:
  static constexpr size_t kBoundCount = 25;
  static constexpr size_t kBucketCount = kBoundCount + 1;  // + overflow

  // The fixed inclusive upper bounds documented above.
  static const std::array<uint64_t, kBoundCount>& BucketBounds();

  void Observe(uint64_t value);
  void Merge(const Histogram& other);

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  uint64_t min() const { return count_ > 0 ? min_ : 0; }
  uint64_t max() const { return max_; }
  double mean() const {
    return count_ > 0
               ? static_cast<double>(sum_) / static_cast<double>(count_)
               : 0.0;
  }
  const std::array<uint64_t, kBucketCount>& buckets() const {
    return buckets_;
  }

  // Nearest-rank quantile resolved to its bucket's upper bound (the
  // recorded max for the overflow bucket): coarse by design, but
  // bit-identical under any shard merge order. q outside [0, 1] clamps.
  uint64_t Quantile(double q) const;

 private:
  std::array<uint64_t, kBucketCount> buckets_{};
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t min_ = UINT64_MAX;
  uint64_t max_ = 0;
};

// Counter identities. Fixed enum (not string-keyed) so the hot path is
// one array add; names come from CounterName.
enum class Counter : size_t {
  kMessagesSent = 0,
  kMessagesDelivered,
  kMessagesDropped,
  kBytesSent,
  kLateReplies,
  kTimeouts,
  kRetries,
  kRpcsBegun,
  kRpcAttempts,
  kRpcsFailed,
  kStepCrashes,
  kQuorumReplacements,
  kRouteHops,
  kDispatches,
  kCryptoSign,
  kCryptoVerify,
  kSelectionsCompleted,
  kRelocations,
  kRestarts,
  kTrials,
  // Throughput-engine task lifecycle (engine/throughput.h): submitted =
  // entered the mempool, admitted = passed the backpressure window,
  // completed/failed partition the admitted set (no drops — see the
  // mempool's conservation invariant).
  kTasksSubmitted,
  kTasksAdmitted,
  kTasksCompleted,
  kTasksFailed,
  // Batched-verification traffic (crypto/batch_verifier.h).
  kVerifyBatches,
  kVerifyBatchItems,
  // Continuous-churn driver events (sim/churn_driver.h). Joins split
  // into attested (§3.6 join ran and verified) vs rejected; leaves are
  // graceful departures, crashes are failures.
  kChurnJoins,
  kChurnJoinsRejected,
  kChurnLeaves,
  kChurnCrashes,
  kChurnCertsIssued,
  kCount,  // sentinel
};

constexpr size_t kCounterCount = static_cast<size_t>(Counter::kCount);
const char* CounterName(Counter c);

enum class Hist : size_t {
  kRpcLatencyUs = 0,
  kRpcAttempts,
  kTrialLatencyUs,
  // Admission-control wait (admit - arrival) and end-to-end task time
  // (complete - arrival) on the engine's virtual clock.
  kTaskQueueDelayUs,
  kTaskLatencyUs,
  kCount,  // sentinel
};

constexpr size_t kHistCount = static_cast<size_t>(Hist::kCount);
const char* HistName(Hist h);

// Per-node dimensions (opt-in via EnablePerNode; off by default so huge
// sweeps pay nothing for node ids they never report).
enum class NodeCounter : size_t {
  kMessages = 0,  // transmissions departing the node
  kCrypto,        // asymmetric ops performed by the node
  kCount,         // sentinel
};

constexpr size_t kNodeCounterCount =
    static_cast<size_t>(NodeCounter::kCount);
const char* NodeCounterName(NodeCounter c);

class MetricsRegistry {
 public:
  MetricsRegistry() = default;

  // ------------------------------------------------------- recording
  void Inc(Counter c, uint64_t delta = 1) {
    counters_[static_cast<size_t>(c)] += delta;
    if (current_phase_ != nullptr) {
      current_phase_->counters[static_cast<size_t>(c)] += delta;
    }
  }
  void Observe(Hist h, uint64_t value) {
    hists_[static_cast<size_t>(h)].Observe(value);
  }

  // Configuration gauges (node count, drop probability, ...): set once,
  // serially, by the harness; Merge keeps other's value on key clash.
  void SetGauge(const std::string& name, double value) {
    gauges_[name] = value;
  }

  // Per-node counters; EnablePerNode sizes the table (idempotent, keeps
  // the larger size). IncNode is a no-op until enabled or out of range.
  void EnablePerNode(uint32_t node_count);
  void IncNode(uint32_t node, NodeCounter c, uint64_t delta = 1) {
    const size_t idx =
        static_cast<size_t>(node) * kNodeCounterCount +
        static_cast<size_t>(c);
    if (idx < node_counters_.size()) node_counters_[idx] += delta;
  }

  // Phase attribution: counters incremented while a phase is open are
  // ALSO charged to the innermost phase's row (mirroring how the trace
  // analyzer attributes events to their direct enclosing span).
  // obs::Span pushes/pops automatically when handed a registry.
  void PushPhase(const char* name);
  void PopPhase();

  // --------------------------------------------------------- reading
  uint64_t counter(Counter c) const {
    return counters_[static_cast<size_t>(c)];
  }
  uint64_t node_counter(uint32_t node, NodeCounter c) const {
    const size_t idx =
        static_cast<size_t>(node) * kNodeCounterCount +
        static_cast<size_t>(c);
    return idx < node_counters_.size() ? node_counters_[idx] : 0;
  }
  uint64_t phase_counter(const std::string& phase, Counter c) const;
  // Phase names in deterministic (lexicographic) order.
  std::vector<std::string> PhaseNames() const;
  bool empty() const;

  // Deterministic combine: counters/histograms add, phases union by
  // name, per-node tables add element-wise (the larger table wins).
  void Merge(const MetricsRegistry& other);

  // ------------------------------------------------------ exposition
  // Prometheus text exposition: one `# TYPE` + sample per counter,
  // phase rows as {phase="..."} labels, histograms as cumulative
  // `_bucket{le="..."}` samples, top-N per-node rows by messages.
  std::string ToPrometheusText() const;
  // The same snapshot as one JSON object (deterministic key order).
  std::string ToJson() const;

 private:
  struct Phase {
    std::array<uint64_t, kCounterCount> counters{};
    uint64_t entries = 0;  // times the phase was opened
  };

  std::array<uint64_t, kCounterCount> counters_{};
  std::array<Histogram, kHistCount> hists_{};
  // std::map: deterministic iteration for exposition and merge.
  std::map<std::string, Phase> phases_;
  std::map<std::string, double> gauges_;
  std::vector<uint64_t> node_counters_;  // node-major [node][counter]
  std::vector<Phase*> phase_stack_;
  Phase* current_phase_ = nullptr;
};

}  // namespace sep2p::obs

#endif  // SEP2P_OBS_METRICS_H_
