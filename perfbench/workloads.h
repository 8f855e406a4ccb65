// The four benchmark workloads and the helpers they share.
//
// Each workload builds its inputs from Args::seed, sets up (several
// times, reporting the median), runs a closed loop for Args::seconds,
// checks its outputs and fills a Report. In a traced run the loop time
// is split: the first half runs untraced (its rate is the baseline of
// obs.trace_overhead_pct), the second half records spans, and the layer
// probes run afterwards.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/context.h"
#include "core/selection.h"
#include "report.h"
#include "sim/network.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {

using namespace sep2p;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
};

// The seed whose outputs are pinned (digests and paper invariants).
// Other seeds check the invariants that hold for every input.
inline constexpr uint64_t kDefaultSeed = 1;

void RunSelect(const Args& args, SpanRecorder& spans, Report* report);
void RunChurn(const Args& args, SpanRecorder& spans, Report* report);
void RunTaskMix(const Args& args, SpanRecorder& spans, Report* report);
void RunLive(const Args& args, SpanRecorder& spans, Report* report);

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// One phase of a closed loop: operations run and wall seconds spent,
// plus the rate of each window of about kWindowSeconds.
inline constexpr double kWindowSeconds = 1.0;
struct Phase {
  uint64_t ops = 0;
  double seconds = 0;
  std::vector<double> window_rates;

  // Median of the window rates (robust to a slow spell of the machine);
  // the mean rate when the phase spans fewer than three windows.
  double rate() const {
    if (window_rates.size() >= 3) return Median(window_rates);
    return seconds > 0 ? ops / seconds : 0;
  }
};

// Calls op(i) for i = first, first + 1, ... until `seconds` have passed
// and at least `min_ops` operations ran.
template <typename Op>
Phase RunFor(double seconds, uint64_t min_ops, uint64_t first, Op&& op) {
  const Clock::time_point start = Clock::now();
  Clock::time_point window_start = start;
  uint64_t window_ops = 0;
  Phase phase;
  while (phase.ops < min_ops || SecondsSince(start) < seconds) {
    op(first + phase.ops);
    ++phase.ops;
    ++window_ops;
    const double window_s = SecondsSince(window_start);
    if (window_s >= kWindowSeconds) {
      phase.window_rates.push_back(window_ops / window_s);
      window_start = Clock::now();
      window_ops = 0;
    }
  }
  phase.seconds = SecondsSince(start);
  return phase;
}

// Adds the self time per op of every span name to the report's extras.
void ReportSelfTimes(const SpanRecorder& spans, uint64_t traced_ops,
                     Report* report);

// Runs the untraced phase and, in a traced run, the traced one; fills
// obs.trace_overhead_pct, obs.trace_events_per_op and the self times.
// One call of `op` is `ops_per_call` workload operations. Returns the
// untraced phase, whose figures are the end-to-end metrics.
template <typename Op>
Phase RunPhases(const Args& args, uint64_t min_calls, SpanRecorder& spans,
                Report* report, Op&& op, uint64_t ops_per_call = 1) {
  const double untraced_s = args.trace ? args.seconds / 2 : args.seconds;
  const Phase untraced = RunFor(untraced_s, min_calls, 0, op);
  if (args.trace) {
    spans.set_enabled(true);
    const Phase traced = RunFor(args.seconds / 2, 1, untraced.ops, op);
    spans.set_enabled(false);
    const uint64_t traced_ops = traced.ops * ops_per_call;
    report->per_layer["obs.trace_overhead_pct"] =
        100.0 * (untraced.rate() - traced.rate()) / untraced.rate();
    report->per_layer["obs.trace_events_per_op"] =
        static_cast<double>(spans.size()) / static_cast<double>(traced_ops);
    ReportSelfTimes(spans, traced_ops, report);
  }
  return untraced;
}

// Builds the network `times` times, keeping the last one, and appends
// each build's wall seconds to `setup_s`; the previous network is freed
// first, so peak memory is one network. Null, with a failed check, when
// a build fails.
inline std::unique_ptr<sim::Network> BuildRepeatedly(
    const sim::Parameters& params, int times, std::vector<double>* setup_s,
    Report* report) {
  std::unique_ptr<sim::Network> world;
  for (int i = 0; i < times; ++i) {
    world.reset();
    const Clock::time_point start = Clock::now();
    auto built = sim::Network::Build(params);
    setup_s->push_back(SecondsSince(start));
    if (!built.ok()) {
      report->Check(false, "network build: " + built.status().ToString());
      return nullptr;
    }
    world = std::move(built.value());
  }
  return world;
}

// Per-call wall time of `fn`, in ns: the median over batches run for
// about `seconds` in total.
double TimePerCallNs(const std::function<void()>& fn, double seconds = 0.1);

// Probes the layers every world has: SHA-256 of 64 B, the world's
// signature provider, directory and Chord queries, a SetAlive pair,
// the frame codec and a SimNetwork call. Leaves `world` as it found it.
void ProbeCommonLayers(sim::Network& world, Report* report);

// Probes VAL verification and the actor-list codec on `val`.
void ProbeValLayers(const core::ProtocolContext& ctx,
                    const core::VerifiableActorList& val, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
