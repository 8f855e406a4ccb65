// Ablation (§4.3 "Number of actors"): the paper reports — without
// showing the data — that increasing A grows the total communication
// work linearly, because the k SLs must check the availability of A
// legitimate nodes. This harness regenerates that omitted series.

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
  params.colluding_fraction = 0.01;
  params.cache_size = 1024;  // keep R3 populated for the largest A
  const int trials = quick ? 30 : 120;

  bench::PrintHeader(
      "Ablation — number of actors A (results omitted in the paper)",
      "total message work grows linearly with A; verification cost (2k) "
      "does not depend on A",
      params);

  std::vector<int> actor_counts = {8, 16, 32, 64, 128, 256};
  auto points = sim::RunActorSweep(params, actor_counts, trials, obs.get());
  if (!points.ok()) {
    std::fprintf(stderr, "error: %s\n", points.status().ToString().c_str());
    return 1;
  }

  sim::TablePrinter table({"A", "total work (msgs)", "msgs per actor",
                           "total work (ops)", "verif cost (2k)"});
  for (const sim::ActorsPoint& p : *points) {
    table.AddRow({std::to_string(p.actor_count),
                  bench::Num(p.setup_msg_work, 1),
                  bench::Num(p.setup_msg_work / p.actor_count, 2),
                  bench::Num(p.setup_crypto_work, 1),
                  bench::Num(p.verification_cost, 1)});
  }
  table.Print();
  std::printf("\n(msgs-per-actor flattening out = linear growth in A)\n");
  if (!obs.Write()) return 1;
  return 0;
}
