// Figure 6: average security degree k versus C%, for small and very
// large networks and two security thresholds, with and without the
// k-table optimization.
//
// Expected shape: (1) k identical for N=10K and N=10M at equal C%;
// (2) k <= 6 for C% <= 1% even at alpha = 1e-10; (3) alpha shifts k by a
// few units only; (4) the k-table saves up to ~9 units vs the flat k_max.

#include "bench/bench_common.h"
#include "sim/experiment.h"

using namespace sep2p;

int main(int argc, char** argv) {
  const bool quick = bench::QuickMode(argc, argv);
  const int samples = quick ? 2000 : 20000;
  const int threads = bench::ThreadsArg(argc, argv);
  bench::RejectUnknownFlags(argc, argv);

  sim::Parameters defaults;  // only for the header
  defaults.threads = threads;
  bench::PrintHeader(
      "Figure 6 — average k vs C% (N and alpha vary)",
      "k depends on C%, not on N; k <= 6 for C% <= 1%; k-tables save up "
      "to 9 units vs the no-table k_max",
      defaults);

  sim::TablePrinter table({"N", "alpha", "C%", "avg k (k-table)",
                           "k w/o k-table (k_max)"});
  const double c_fractions[] = {0.00001, 0.0001, 0.001, 0.01, 0.1};
  const uint64_t ns[] = {10000, 10000000};
  const double alphas[] = {1e-6, 1e-10};
  uint64_t seed = 1;
  for (uint64_t n : ns) {
    for (double alpha : alphas) {
      for (double c_fraction : c_fractions) {
        sim::KCurvePoint point =
            sim::ComputeAverageK(n, c_fraction, alpha, samples, seed++,
                                 threads);
        char alpha_str[32];
        std::snprintf(alpha_str, sizeof(alpha_str), "%.0e", alpha);
        table.AddRow({std::to_string(n), alpha_str,
                      bench::Num(c_fraction * 100, 4),
                      bench::Num(point.avg_k, 2),
                      std::to_string(point.k_max)});
      }
    }
  }
  table.Print();
  std::printf("\n(%d sampled node neighborhoods per point)\n", samples);
  return 0;
}
