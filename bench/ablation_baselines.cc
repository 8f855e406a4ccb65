// Ablation (§3.1 "Effectiveness, Cost and Optimal Bounds"): SEP2P
// against the two bounds the paper positions it between — the idealized
// trusted server (effectiveness 1 at verification cost 1) and the CSAR
// security-optimal distributed baseline (effectiveness 1 at cost
// 2(C+1) + A, which explodes with the collusion size).

#include "bench/bench_common.h"
#include "sim/experiment.h"

using namespace sep2p;

int main(int argc, char** argv) {
  const bool quick = bench::QuickMode(argc, argv);
  bench::Observers obs(argc, argv);
  sim::Parameters params;
  params.threads = bench::ThreadsArg(argc, argv);
  bench::RejectUnknownFlags(argc, argv);
  params.n = quick ? 5000 : 20000;
  params.actor_count = 32;
  params.cache_size = 512;
  const int trials = quick ? 40 : 150;

  bench::PrintHeader(
      "Ablation — SEP2P between the optimal bounds (Ideal, CSAR)",
      "all three reach ideal effectiveness, but CSAR verification is "
      "linear in C while SEP2P stays at 2k and Ideal needs a trusted "
      "server",
      params);

  // CSAR enrolls C+1 participants, so keep C modest for the sweep.
  std::vector<double> c_fractions = {0.0005, 0.001, 0.002, 0.005, 0.01};
  auto points = sim::RunStrategyComparison(
      params, c_fractions, {"Ideal", "CSAR", "SEP2P"}, trials, obs.get());
  if (!points.ok()) {
    std::fprintf(stderr, "error: %s\n", points.status().ToString().c_str());
    return 1;
  }

  sim::TablePrinter table({"strategy", "C", "verif cost (asym ops)",
                           "effectiveness", "setup total work (ops)",
                           "setup total work (msgs)"});
  for (const sim::StrategyPoint& p : *points) {
    table.AddRow({p.strategy,
                  bench::Num(p.c_fraction * params.n, 0),
                  bench::Num(p.verification_cost, 1),
                  bench::Num(p.effectiveness, 3),
                  bench::Num(p.setup_crypto_work, 1),
                  bench::Num(p.setup_msg_work, 1)});
  }
  table.Print();
  std::printf("\n(Ideal is not deployable — it IS the central point of "
              "attack; CSAR is the paper's discarded security-optimal "
              "baseline)\n");
  if (!obs.Write()) return 1;
  return 0;
}
