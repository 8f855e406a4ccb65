// Table 3: strategies, parameters and metrics — the simulator's
// configuration surface with the paper's (bold) defaults.

#include "bench/bench_common.h"
#include "core/ktable.h"
#include "core/probability.h"

using namespace sep2p;

int main(int argc, char** argv) {
  // The table is the same at every size and thread count; the two flags
  // every harness takes are read (so the golden run's --quick --threads 2
  // is accepted) and anything else is refused.
  bench::QuickMode(argc, argv);
  bench::ThreadsArg(argc, argv);
  bench::RejectUnknownFlags(argc, argv);

  sim::Parameters defaults;
  bench::PrintHeader("Table 3 — strategies, parameters and metrics",
                     "simulator configuration with bold defaults",
                     defaults);

  sim::TablePrinter params({"parameter", "values (default in *)"});
  params.AddRow({"strategies", "*SEP2P*, ES.NAV, ES.AV, M.Hash"});
  params.AddRow({"DHT overlay", "*Chord*, CAN"});
  params.AddRow({"N (nodes)", "10K, *100K*, 1M, 10M"});
  params.AddRow({"C% (colluders)", "0.001, 0.01, 0.1, *1*, 10 (%)"});
  params.AddRow({"A (actors)", "8, *32*, 128, 256"});
  params.AddRow({"alpha", "1e-4, *1e-6*, 1e-10"});
  params.AddRow({"node cache", "16..32K entries (*512*)"});
  params.AddRow({"MTBF", "1h, 6h, *1d*, 5d"});
  params.Print();

  std::printf("\n");
  sim::TablePrinter metrics({"metric", "definition"});
  metrics.AddRow({"security effectiveness",
                  "A_C_ideal / A_C, A_C_ideal = A*C/N (Def. 1)"});
  metrics.AddRow({"verification cost",
                  "asym crypto ops per verifier node (Def. 3)"});
  metrics.AddRow({"setup latency", "critical-path crypto ops / messages"});
  metrics.AddRow({"setup total work", "cumulative crypto ops / messages"});
  metrics.AddRow({"maintenance cost", "asym ops per node per minute"});
  metrics.Print();

  // The derived security configuration for the default network.
  std::printf("\nderived for the defaults: C = %llu",
              static_cast<unsigned long long>(defaults.c()));
  core::KTable table =
      core::KTable::Build(defaults.n, defaults.c(), defaults.alpha);
  std::printf(", k-table =");
  for (const auto& entry : table.entries()) {
    std::printf(" (k=%d, rs=%.3g)", entry.k, entry.rs);
  }
  std::printf("\nverifier tolerance rs (>=1 node w.p. 1-alpha): %.3g\n",
              core::SolveRegionSizeForPopulation(1, defaults.n,
                                                 defaults.alpha));
  return 0;
}
