// Figure 5: setup cost in exchanged messages (latency and total work)
// vs verification cost.
//
// Expected shape: M.Hash has the worst total message work (A parallel
// DHT routings); SEP2P's message latency stays around ~30; ES.NAV/ES.AV/
// M.Hash have near-identical latency (same initial verifiable-random
// phase, parallel routings).

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
      "Figure 5 — Setup cost: exchanged messages",
      "M.Hash's A DHT routings dominate total message work; latencies of "
      "the reference strategies coincide",
      params);

  std::vector<double> c_fractions = {0.0001, 0.001, 0.01, 0.1};
  auto points = sim::RunStrategyComparison(
      params, c_fractions, {"SEP2P", "ES.NAV", "ES.AV", "M.Hash"}, trials, obs.get());
  if (!points.ok()) {
    std::fprintf(stderr, "error: %s\n", points.status().ToString().c_str());
    return 1;
  }

  sim::TablePrinter table({"strategy", "C%", "verif cost",
                           "setup latency (msgs)",
                           "setup total work (msgs)"});
  for (const sim::StrategyPoint& p : *points) {
    table.AddRow({p.strategy, bench::Num(p.c_fraction * 100, 4),
                  bench::Num(p.verification_cost, 1),
                  bench::Num(p.setup_msg_latency, 1),
                  bench::Num(p.setup_msg_work, 1)});
  }
  table.Print();
  if (!obs.Write()) return 1;
  return 0;
}
