// Methodology check (§4.1): the paper's simulator forces each node to
// be the Execution Setter, obtaining the exhaustive set of cases, and
// reports average, maximum and standard deviation. Same here: one SEP2P
// selection per (sampled) setter node with the point p pinned to it.

#include "bench/bench_common.h"
#include "sim/experiment.h"

using namespace sep2p;

int main(int argc, char** argv) {
  const bool quick = bench::QuickMode(argc, argv);
  bench::Observers obs(argc, argv);
  sim::Parameters params;
  params.threads = bench::ThreadsArg(argc, argv);
  bench::RejectUnknownFlags(argc, argv);
  params.n = quick ? 4000 : 20000;
  params.colluding_fraction = 0.01;
  params.actor_count = 32;
  params.cache_size = 512;
  // 0 = every node as setter; sampling keeps the quick run fast.
  const size_t sample = quick ? 1000 : 0;

  bench::PrintHeader(
      "Methodology — exhaustive Execution-Setter enumeration (avg/max/sd)",
      "costs are tightly concentrated: the max stays within a few k-table "
      "steps of the average across every possible setter",
      params);

  auto stats = sim::RunExhaustiveSetters(params, sample, obs.get());
  if (!stats.ok()) {
    std::fprintf(stderr, "error: %s\n", stats.status().ToString().c_str());
    return 1;
  }

  sim::TablePrinter table({"metric", "avg", "max", "stddev"});
  table.AddRow({"verification cost (2k)", bench::Num(stats->verif_avg, 2),
                bench::Num(stats->verif_max, 0),
                bench::Num(stats->verif_stddev, 2)});
  table.AddRow({"setup crypto latency", bench::Num(stats->crypto_lat_avg, 2),
                bench::Num(stats->crypto_lat_max, 0),
                bench::Num(stats->crypto_lat_stddev, 2)});
  table.AddRow({"setup crypto work", bench::Num(stats->crypto_work_avg, 2),
                bench::Num(stats->crypto_work_max, 0),
                bench::Num(stats->crypto_work_stddev, 2)});
  table.AddRow({"setup msg latency", bench::Num(stats->msg_lat_avg, 2),
                bench::Num(stats->msg_lat_max, 0),
                bench::Num(stats->msg_lat_stddev, 2)});
  table.AddRow({"setup msg work", bench::Num(stats->msg_work_avg, 2),
                bench::Num(stats->msg_work_max, 0),
                bench::Num(stats->msg_work_stddev, 2)});
  table.Print();
  std::printf("\n(%d setter positions exercised)\n", stats->setters);
  if (!obs.Write()) return 1;
  return 0;
}
