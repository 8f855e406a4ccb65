// Figure 3: security effectiveness vs verification cost.
//
// Reproduces the paper's head-to-head of SEP2P, ES.NAV, ES.AV and M.Hash
// with C% swept from 0.001% to 10%. Expected shape: SEP2P sits at
// effectiveness ~1.0 with verification cost 2k (4-8 ops for C% <= 1%);
// ES.NAV shares the cost but collapses; ES.AV/M.Hash pay 2k+A(+1) and
// still collapse.

#include "bench/bench_common.h"
#include "sim/experiment.h"

using namespace sep2p;

int main(int argc, char** argv) {
  const bool quick = bench::QuickMode(argc, argv);
  bench::Observers obs(argc, argv);
  sim::Parameters params;
  params.threads = bench::ThreadsArg(argc, argv);
  bench::RejectUnknownFlags(argc, argv);
  params.n = quick ? 10000 : 50000;
  params.actor_count = 32;
  params.cache_size = 512;
  const int trials = quick ? 60 : 250;

  bench::PrintHeader(
      "Figure 3 — Security effectiveness vs verification cost",
      "SEP2P achieves ideal effectiveness at cost 2k; the reference "
      "strategies are far from adequate protection",
      params);

  std::vector<double> c_fractions = {0.00001, 0.0001, 0.001, 0.01, 0.1};
  std::vector<sim::StrategyPoint> all_points;
  for (double c_fraction : c_fractions) {
    // Corrupted-actor events at tiny C are rare (ideal A*C/N ~ 1e-3 per
    // run), so those points need far more trials for a stable average.
    int point_trials = trials;
    if (c_fraction <= 0.0001) point_trials = trials * 16;
    else if (c_fraction <= 0.001) point_trials = trials * 4;
    // Only the first C% point is observed: each harness call would
    // otherwise re-prepare the trace slots and clobber earlier trials.
    auto points = sim::RunStrategyComparison(
        params, {c_fraction}, {"SEP2P", "ES.NAV", "ES.AV", "M.Hash"},
        point_trials,
        c_fraction == c_fractions.front() ? obs.get() : nullptr);
    if (!points.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   points.status().ToString().c_str());
      return 1;
    }
    all_points.insert(all_points.end(), points->begin(), points->end());
  }

  sim::TablePrinter table({"strategy", "C%", "verif cost (asym ops)",
                           "A_C ideal", "A_C measured", "effectiveness"});
  for (const sim::StrategyPoint& p : all_points) {
    table.AddRow({p.strategy, bench::Num(p.c_fraction * 100, 4),
                  bench::Num(p.verification_cost, 1),
                  bench::Num(p.ideal_corrupted, 4),
                  bench::Num(p.avg_corrupted, 4),
                  bench::Num(p.effectiveness, 4)});
  }
  table.Print();
  std::printf("\n(%d base trials per point, scaled up to 16x at tiny C%%; "
              "colluders re-randomized during the sweep)\n", trials);
  if (!obs.Write()) return 1;
  return 0;
}
