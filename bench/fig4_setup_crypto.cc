// Figure 4: setup cost in asymmetric crypto-operations (latency and
// total work) vs verification cost.
//
// Expected shape: SEP2P has the highest total setup work (its security
// is paid once, at setup, by k SLs in parallel) but latency stays around
// ~20 operations; the ES.*/M.Hash references share the cheaper
// random-generation-only setup.

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
      "Figure 4 — Setup cost: asymmetric crypto-operations",
      "SEP2P pays the highest total setup work; latency stays ~20 ops "
      "because the k TLs/SLs work in parallel",
      params);

  std::vector<double> c_fractions = {0.0001, 0.001, 0.01, 0.1};
  auto points = sim::RunStrategyComparison(
      params, c_fractions, {"SEP2P", "ES.NAV", "ES.AV", "M.Hash"}, trials, obs.get());
  if (!points.ok()) {
    std::fprintf(stderr, "error: %s\n", points.status().ToString().c_str());
    return 1;
  }

  sim::TablePrinter table({"strategy", "C%", "verif cost",
                           "setup latency (ops)", "setup total work (ops)"});
  for (const sim::StrategyPoint& p : *points) {
    table.AddRow({p.strategy, bench::Num(p.c_fraction * 100, 4),
                  bench::Num(p.verification_cost, 1),
                  bench::Num(p.setup_crypto_latency, 1),
                  bench::Num(p.setup_crypto_work, 1)});
  }
  table.Print();
  if (!obs.Write()) return 1;
  return 0;
}
