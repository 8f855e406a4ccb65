// Ablation 4 (ROADMAP item 4): ACTIVE adversaries executed live, not in
// closed form. Every scenario of attack/scenario.h runs its malicious
// strategy through the real protocol code via the core::AttackHooks
// seams, the detection oracle (attack/oracle.h) folds the verifiers'
// rejections, attributable strikes and obs::Checker trace invariants
// into a per-trial verdict, and the table reports, per attack:
// detection rate, residual selection bias reconciled against the
// paper's security-effectiveness bound (§4.2), and cost overhead vs the
// honest baseline.
//
// C is deliberately set to 10% — far above the paper's operating point
// — so coalition opportunities (a colluding TL/SL/setter in the drawn
// quorum) occur often enough for tight rates at bench trial counts; the
// effectiveness column is what must stay ~1 regardless.
//
// Determinism: per-point FNV digests over every trial's outcome fields
// must be bit-identical for any --threads; the harness re-runs a small
// sweep at --threads 1/4/8 and exits 2 on divergence. Emits
// BENCH_adversary.json (BENCH_adversary.quick.json under --quick).

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "attack/scenario.h"
#include "attack/sweep.h"
#include "bench/bench_common.h"
#include "obs/export.h"
#include "sim/metrics.h"

using namespace sep2p;

namespace {

std::string RowJson(const attack::AdversaryPoint& p) {
  char buf[768];
  std::snprintf(
      buf, sizeof(buf),
      "    {\"scenario\": \"%s\", \"c_fraction\": %.3f, \"trials\": %d"
      ", \"attempted\": %d, \"detected\": %d, \"accepted\": %d"
      ", \"succeeded\": %d, \"detection_rate\": %.4f"
      ", \"avg_corrupted\": %.4f, \"ideal_corrupted\": %.4f"
      ", \"effectiveness\": %.4f, \"avg_strikes\": %.3f"
      ", \"avg_restarts\": %.3f, \"avg_attempts\": %.2f"
      ", \"verification_cost\": %.2f, \"cost_overhead\": %.3f"
      ", \"checker_violations\": %" PRIu64 ", \"digest\": \"%016" PRIx64
      "\"}",
      p.scenario.c_str(), p.c_fraction, p.trials, p.attempted, p.detected,
      p.accepted, p.succeeded, p.detection_rate, p.avg_corrupted,
      p.ideal_corrupted, p.effectiveness, p.avg_strikes, p.avg_restarts,
      p.avg_attempts, p.verification_cost, p.cost_overhead,
      p.checker_violations, p.digest);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = bench::QuickMode(argc, argv);
  bench::Observers obs(argc, argv);
  sim::Parameters params;
  params.threads = bench::ThreadsArg(argc, argv);
  bench::RejectUnknownFlags(argc, argv);
  params.n = quick ? 3000 : 20000;
  params.colluding_fraction = 0.10;
  params.actor_count = 32;
  params.cache_size = 512;
  const int trials = quick ? 24 : 96;

  bench::PrintHeader(
      "Ablation — live active adversaries vs the detection oracle",
      "every deviation is either detected (verifier rejection or "
      "attributable strike) or bounded by the security-effectiveness "
      "ratio",
      params);

  auto points =
      attack::RunAdversarySweep(params, attack::ScenarioNames(), trials,
                                obs.get());
  if (!points.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 points.status().ToString().c_str());
    return 1;
  }

  sim::TablePrinter table({"scenario", "attempted", "detected",
                           "accepted", "succeeded", "avg corr.", "ideal",
                           "effect.", "strikes", "restarts",
                           "cost ovh"});
  for (const attack::AdversaryPoint& p : *points) {
    table.AddRow({p.scenario, bench::Num(p.attempted, 0),
                  bench::Num(p.detected, 0), bench::Num(p.accepted, 0),
                  bench::Num(p.succeeded, 0),
                  bench::Num(p.avg_corrupted, 2),
                  bench::Num(p.ideal_corrupted, 2),
                  bench::Num(p.effectiveness, 3),
                  bench::Num(p.avg_strikes, 2),
                  bench::Num(p.avg_restarts, 2),
                  bench::Num(p.cost_overhead, 2)});
  }
  table.Print();
  std::printf(
      "\n(counts over %d trials; avg corr./ideal over ACCEPTED lists "
      "only;\n effect. = ideal/measured capped at 1 — the paper's "
      "security-effectiveness;\n cost ovh = setup work vs the honest "
      "'none' row)\n",
      trials);

  if (!obs.Write()) return 1;

  // Thread-invariance audit: the per-point digests fold every trial's
  // outcome in trial order and must not depend on worker count.
  const int audit_trials = quick ? 8 : 16;
  std::printf("\nthread invariance (n=%" PRIu64 ", %d trials):\n",
              params.n, audit_trials);
  bool digests_agree = true;
  std::vector<uint64_t> audit;
  for (int t : {1, 4, 8}) {
    sim::Parameters audit_params = params;
    audit_params.threads = t;
    auto rerun = attack::RunAdversarySweep(
        audit_params, attack::ScenarioNames(), audit_trials);
    if (!rerun.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   rerun.status().ToString().c_str());
      return 1;
    }
    uint64_t folded = 0;
    for (const attack::AdversaryPoint& p : *rerun) folded ^= p.digest;
    audit.push_back(folded);
    std::printf("  threads=%d digest=%016" PRIx64 "\n", t, folded);
    if (folded != audit.front()) digests_agree = false;
  }
  if (!digests_agree) {
    std::fprintf(stderr, "DIGEST MISMATCH across thread counts\n");
  }

  std::string json = "{\n  \"bench\": \"ablation_adversary\",\n  \"rows\": [\n";
  for (size_t i = 0; i < points->size(); ++i) {
    json += RowJson((*points)[i]);
    json += i + 1 < points->size() ? ",\n" : "\n";
  }
  json += "  ],\n  \"thread_invariance\": {\n    \"digests\": [";
  for (size_t i = 0; i < audit.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "\"%016" PRIx64 "\"", audit[i]);
    json += buf;
    if (i + 1 < audit.size()) json += ", ";
  }
  json += std::string("],\n    \"agree\": ") +
          (digests_agree ? "true" : "false") + "\n  }\n}\n";

  const std::string json_path = bench::BenchJsonPath("adversary", quick);
  Status st = obs::WriteFile(json_path, json);
  if (!st.ok()) {
    std::fprintf(stderr, "%s write failed: %s\n", json_path.c_str(),
                 st.ToString().c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", json_path.c_str());
  return digests_agree ? 0 : 2;
}
