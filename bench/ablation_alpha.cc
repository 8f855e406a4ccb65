// Ablation (§4.1 "Security threshold value"): the paper observed
// empirically that at alpha = 1e-4 an attacker never controls k or more
// nodes in an R1/R2-sized region, and chose 1e-6 for safety. This probe
// scans generated networks for the worst-case colluder concentration in
// ANY region of the k_max entry's size.

#include "bench/bench_common.h"
#include "sim/experiment.h"

using namespace sep2p;

int main(int argc, char** argv) {
  const bool quick = bench::QuickMode(argc, argv);
  sim::Parameters params;
  params.threads = bench::ThreadsArg(argc, argv);
  bench::RejectUnknownFlags(argc, argv);
  params.n = quick ? 10000 : 50000;
  params.colluding_fraction = 0.01;
  const int networks = quick ? 25 : 100;

  bench::PrintHeader(
      "Ablation — security threshold alpha",
      "even at alpha = 1e-4 no region of size rs_k ever holds k "
      "colluders; smaller alpha widens the safety margin",
      params);

  sim::TablePrinter table({"alpha", "k (k_max)", "rs_k",
                           "max colluders (centered)", "captures",
                           "networks"});
  for (double alpha : {1e-4, 1e-6, 1e-10}) {
    auto probe = sim::ProbeAlpha(params, alpha, networks);
    if (!probe.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   probe.status().ToString().c_str());
      return 1;
    }
    char alpha_str[32];
    std::snprintf(alpha_str, sizeof(alpha_str), "%.0e", alpha);
    table.AddRow({alpha_str, std::to_string(probe->k),
                  bench::Num(probe->rs, 6),
                  std::to_string(probe->max_colluders_seen),
                  std::to_string(probe->breaches),
                  std::to_string(probe->networks_tested)});
  }
  table.Print();
  std::printf("\n(a capture = a corrupted trigger with k colluding TLs in its own\n R1: the attacker then fully controls RND_T and the actor list)\n");
  return 0;
}
