// select: SEP2P selection followed by the data-source check
// (SelectionProtocol::Run, then VerifyActorList) on the paper's
// reference network — N=10^5, C=1%, A=32, alpha=1e-6, cache 512,
// SimProvider, Chord — with colluders reassigned every 256 ops, on one
// thread. The seed draws the triggers and the colluder placements; the
// network itself is the fixed reference one.

#include <memory>
#include <vector>

#include "core/selection.h"
#include "sim/network.h"
#include "sim/trial_runner.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kSetups = 5;
constexpr uint64_t kFnvBasis = 14695981039346656037ULL;
constexpr uint64_t kColluderEpoch = 256;
// The first kCheckpoint ops fold into the pinned paper invariants and
// the outcome digest; server_rss_mb is read right after them.
constexpr uint64_t kCheckpoint = 1024;
constexpr uint64_t kMinOps = 1024;

struct Invariants {
  uint64_t signs = 0;
  uint64_t verifies = 0;
  uint64_t crypto_work = 0;
  uint64_t msg_work = 0;
  uint64_t relocations = 0;
  uint64_t k_sum = 0;
  uint64_t digest = kFnvBasis;

  bool operator==(const Invariants&) const = default;
};

// FNV-1a fold of the selection outcomes into the digest.
void Fold(uint64_t* digest, uint64_t value) {
  *digest ^= value;
  *digest *= 1099511628211ULL;
}

// Recorded for kDefaultSeed.
constexpr Invariants kPinned = {7737,  50562, 50601, 294308,
                                 0,     3849,  0x2053b58c630a567aULL};

}  // namespace

void RunSelect(const Args& args, SpanRecorder& spans, Report* report) {
  sim::Parameters params;  // the reference network (paper Table 3)
  params.threads = 1;

  std::vector<double> setup_s;
  std::unique_ptr<sim::Network> world =
      BuildRepeatedly(params, kSetups, &setup_s, report);
  if (world == nullptr) return;

  core::ProtocolContext ctx = world->context();
  core::SelectionProtocol protocol(ctx);
  crypto::CryptoMeter& meter = world->provider().meter();
  const uint32_t n = static_cast<uint32_t>(world->directory().size());
  const uint64_t trigger_seed = sim::MixSeed(args.seed, 0x73656c656374ULL);
  const uint64_t colluder_seed = sim::MixSeed(args.seed, 0x636f6c6cULL);

  std::vector<double> latency_us;
  Invariants inv;
  double server_rss_mb = 0;
  core::VerifiableActorList last_val;
  uint64_t failures = 0;
  uint64_t malformed = 0;
  const uint64_t signs0 = meter.signs();
  const uint64_t verifies0 = meter.verifies();

  auto op = [&](uint64_t i) {
    if (i % kColluderEpoch == 0) {
      util::Rng colluder_rng(sim::StreamSeed(colluder_seed, i / kColluderEpoch));
      world->ReassignColluders(colluder_rng);
    }
    util::Rng rng(sim::StreamSeed(trigger_seed, i));
    const uint32_t trigger = static_cast<uint32_t>(rng.NextUint64(n));

    ScopedSpan op_span(spans, "op");
    const Clock::time_point start = Clock::now();
    bool ok = false;
    Result<core::SelectionProtocol::Outcome> run = [&] {
      ScopedSpan span(spans, "core.SelectionProtocol::Run");
      return protocol.Run(trigger, rng);
    }();
    if (run.ok()) {
      ScopedSpan span(spans, "core.VerifyActorList");
      Result<net::Cost> verified = core::VerifyActorList(ctx, run->val);
      ok = verified.ok();
      // Every VAL costs its verifier exactly 2k asymmetric operations
      // and names A actors.
      if (ok && (verified->crypto_work != 2.0 * run->val.k() ||
                 run->val.actor_count() != ctx.actor_count)) {
        ++malformed;
      }
    }
    const double us = SecondsSince(start) * 1e6;
    if (!ok) ++failures;
    if (!spans.enabled()) {
      report->ops.Record(ok);
      if (ok) latency_us.push_back(us);
    }
    if (!run.ok()) return;
    if (i < kCheckpoint) {
      inv.crypto_work += static_cast<uint64_t>(run->cost.crypto_work);
      inv.msg_work += static_cast<uint64_t>(run->cost.msg_work);
      inv.relocations += static_cast<uint64_t>(run->relocations);
      inv.k_sum += static_cast<uint64_t>(run->val.k());
      Fold(&inv.digest, run->setter_index);
      for (uint32_t actor : run->actor_indices) Fold(&inv.digest, actor);
    }
    if (i + 1 == kCheckpoint) {
      inv.signs = meter.signs() - signs0;
      inv.verifies = meter.verifies() - verifies0;
      server_rss_mb = CurrentRssMb();
    }
    last_val = std::move(run->val);
  };
  const Phase phase = RunPhases(args, kMinOps, spans, report, op);

  report->Check(failures == 0, "a selection or VAL check failed");
  report->Check(malformed == 0,
                "a VAL did not cost 2k verifications or name A actors");
  if (args.seed == kDefaultSeed) {
    report->Check(inv == kPinned,
                  "paper invariants differ from the pinned default-seed "
                  "values");
  }

  auto& e2e = report->end_to_end;
  e2e["setup_s"] = Median(setup_s);
  e2e["ops_per_s"] = phase.rate();
  e2e["op_p50_us"] = Percentile(latency_us, 50);
  e2e["op_p99_us"] = Percentile(latency_us, 99);
  e2e["peak_rss_mb"] = PeakRssMb();
  e2e["server_rss_mb"] = server_rss_mb;
  report->Extra("tail_percentile", TailPercentile(latency_us.size()), "%");
  report->Note("invariants over the first %llu ops: {%llu, %llu, %llu, "
               "%llu, %llu, %llu, 0x%016llxULL}",
               ULL(kCheckpoint), ULL(inv.signs), ULL(inv.verifies),
               ULL(inv.crypto_work), ULL(inv.msg_work), ULL(inv.relocations),
               ULL(inv.k_sum), ULL(inv.digest));

  if (!args.trace) return;
  const double ops = kCheckpoint;
  auto& layer = report->per_layer;
  layer["crypto.signs_per_op"] = inv.signs / ops;
  layer["crypto.verifies_per_op"] = inv.verifies / ops;
  layer["core.cost_crypto_work"] = inv.crypto_work / ops;
  layer["core.cost_msg_work"] = inv.msg_work / ops;
  layer["core.relocations_per_op"] = inv.relocations / ops;
  layer["core.k_mean"] = inv.k_sum / ops;
  layer["sim.build_s"] = Median(setup_s);
  ProbeCommonLayers(*world, report);
  ProbeValLayers(ctx, last_val, report);
}

}  // namespace perfbench
