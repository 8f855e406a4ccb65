// churn: Poisson churn (join 2/s, leave 1/s, crash 1/s on the virtual
// clock) with attested §3.6 joins at N=10^5 with a 1% standby pool and
// SimProvider — the directory's write path, CA issuance and join
// attestation. The benchmark steps ChurnDriver::Run(1) and times each
// event; latency percentiles cover attested joins only (a leave or crash
// takes about a microsecond). The seed draws the churn stream.

#include <memory>
#include <vector>

#include "net/sim_network.h"
#include "sim/churn_driver.h"
#include "sim/network.h"
#include "sim/trial_runner.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kSetups = 5;
// The first kCheckpoint events fold into the pinned outcome;
// server_rss_mb is read right after them.
constexpr uint64_t kCheckpoint = 1000;
constexpr uint64_t kMinOps = 2000;

struct Outcome {
  uint64_t digest = 0;
  uint64_t joins = 0;
  uint64_t joins_rejected = 0;
  uint64_t certs_issued = 0;
  uint64_t ktable_refreshes = 0;

  bool operator==(const Outcome&) const = default;
};

// Recorded for kDefaultSeed.
constexpr Outcome kPinned = {0xfc7d2b1bb704b037ULL, 513, 0, 513, 0};

}  // namespace

void RunChurn(const Args& args, SpanRecorder& spans, Report* report) {
  sim::Parameters params;  // the reference network (paper Table 3)
  params.churn_pool = params.n / 100;
  params.threads = 1;

  std::vector<double> setup_s;
  std::unique_ptr<sim::Network> world =
      BuildRepeatedly(params, kSetups, &setup_s, report);
  if (world == nullptr) return;

  // The SimNetwork gives the driver its virtual clock and crash schedule.
  net::LinkModel link;
  link.jitter_mean_us = 0;
  net::SimNetwork simnet(static_cast<uint32_t>(params.n + params.churn_pool),
                         link, net::RetryPolicy{}, /*seed=*/7);
  sim::ChurnDriver::Options options;
  options.join_rate_per_s = 2.0;
  options.leave_rate_per_s = 1.0;
  options.crash_rate_per_s = 1.0;
  options.attested_joins = true;
  options.seed = sim::MixSeed(args.seed, 0x636875726eULL);
  sim::ChurnDriver driver(world.get(), &simnet, options);
  crypto::CryptoMeter& meter = world->provider().meter();
  const uint64_t signs0 = meter.signs();
  const uint64_t verifies0 = meter.verifies();

  std::vector<double> join_us;
  Outcome checkpoint;
  double server_rss_mb = 0;
  uint64_t signs = 0;
  uint64_t verifies = 0;
  auto op = [&](uint64_t i) {
    const sim::ChurnDriver::Stats& stats = driver.stats();
    const uint64_t joins_before = stats.joins + stats.joins_rejected;
    const uint64_t rejected_before = stats.joins_rejected;
    {
      ScopedSpan span(spans, "sim.ChurnDriver::Run");
      const Clock::time_point start = Clock::now();
      driver.Run(1);
      const double us = SecondsSince(start) * 1e6;
      if (!spans.enabled() &&
          stats.joins + stats.joins_rejected != joins_before) {
        join_us.push_back(us);
      }
    }
    if (!spans.enabled()) {
      report->ops.Record(stats.joins_rejected == rejected_before);
    }
    if (i + 1 == kCheckpoint) {
      checkpoint = {stats.digest, stats.joins, stats.joins_rejected,
                    stats.certs_issued, stats.ktable_refreshes};
      signs = meter.signs() - signs0;
      verifies = meter.verifies() - verifies0;
      server_rss_mb = CurrentRssMb();
    }
  };
  const Phase phase = RunPhases(args, kMinOps, spans, report, op);

  const sim::ChurnDriver::Stats& stats = driver.stats();
  report->Check(stats.joins_rejected == 0, "an attested join was rejected");
  report->Check(checkpoint.joins > 0, "no join in the first events");
  if (args.seed == kDefaultSeed) {
    report->Check(checkpoint == kPinned,
                  "churn outcome differs from the pinned default-seed one");
  }

  auto& e2e = report->end_to_end;
  e2e["setup_s"] = Median(setup_s);
  e2e["ops_per_s"] = phase.rate();
  e2e["op_p50_us"] = Percentile(join_us, 50);
  e2e["op_p99_us"] = Percentile(join_us, 99);
  e2e["peak_rss_mb"] = PeakRssMb();
  e2e["server_rss_mb"] = server_rss_mb;
  report->Extra("joins_timed", join_us.size(), "count");
  report->Extra("tail_percentile", TailPercentile(join_us.size()), "%");
  report->Note("outcome after %llu events: {0x%016llxULL, %llu, %llu, %llu, "
               "%llu}",
               ULL(kCheckpoint), ULL(checkpoint.digest), ULL(checkpoint.joins),
               ULL(checkpoint.joins_rejected), ULL(checkpoint.certs_issued),
               ULL(checkpoint.ktable_refreshes));

  if (!args.trace) return;
  const double events = kCheckpoint;
  auto& layer = report->per_layer;
  layer["crypto.signs_per_op"] = signs / events;
  layer["crypto.verifies_per_op"] = verifies / events;
  layer["net.msgs_per_op"] =
      static_cast<double>(simnet.stats().messages_sent) / stats.events;
  layer["net.bytes_per_op"] =
      static_cast<double>(simnet.stats().bytes_sent) / stats.events;
  layer["node.joins"] = checkpoint.joins;
  layer["node.joins_rejected"] = checkpoint.joins_rejected;
  layer["node.certs_issued"] = checkpoint.certs_issued;
  layer["sim.ktable_refreshes"] = checkpoint.ktable_refreshes;
  layer["sim.build_s"] = Median(setup_s);
  ProbeCommonLayers(*world, report);
}

}  // namespace perfbench
