// Figure 7: impact of the node-cache size on the SEP2P selection.
//
// Expected shape (log Y in the paper): caches smaller than A relocate
// the selection often, inflating latency and total work; once the cache
// comfortably exceeds A the query is "almost never relocated" and costs
// flatten.

#include "bench/bench_common.h"
#include "sim/experiment.h"

using namespace sep2p;

int main(int argc, char** argv) {
  const bool quick = bench::QuickMode(argc, argv);
  bench::Observers obs(argc, argv);
  sim::Parameters params;
  params.threads = bench::ThreadsArg(argc, argv);
  bench::RejectUnknownFlags(argc, argv);
  params.n = quick ? 20000 : 100000;
  params.colluding_fraction = 0.01;
  params.actor_count = 32;
  const int trials = quick ? 50 : 200;

  bench::PrintHeader(
      "Figure 7 — node-cache size vs relocation rate and setup cost",
      "cache > A stops relocations (cache ~512 never relocates); tiny "
      "caches blow up latency and total work",
      params);

  // A cache below A cannot complete a selection at all (the candidate
  // pool is bounded by the cache size); start the sweep at A.
  std::vector<size_t> cache_sizes = {32, 40, 48, 64, 96,
                                     128, 256, 512, 1024};
  auto points = sim::RunCacheSweep(params, cache_sizes, trials, obs.get());
  if (!points.ok()) {
    std::fprintf(stderr, "error: %s\n", points.status().ToString().c_str());
    return 1;
  }

  sim::TablePrinter table({"cache size", "relocations/run",
                           "runs relocated (%)", "runs failed (%)",
                           "latency (ops)", "total work (ops)",
                           "latency (msgs)", "total work (msgs)"});
  for (const sim::CachePoint& p : *points) {
    table.AddRow({std::to_string(p.cache_size),
                  bench::Num(p.relocation_rate, 3),
                  bench::Num(p.relocated_fraction * 100, 1),
                  bench::Num(p.failed_fraction * 100, 1),
                  bench::Num(p.setup_crypto_latency, 1),
                  bench::Num(p.setup_crypto_work, 1),
                  bench::Num(p.setup_msg_latency, 1),
                  bench::Num(p.setup_msg_work, 1)});
  }
  table.Print();
  std::printf("\n(A = %d; %d SEP2P executions per cache size)\n",
              params.actor_count, trials);
  if (!obs.Write()) return 1;
  return 0;
}
