// Figure 8: cache maintenance cost under churn (asymmetric crypto
// operations per node per minute, log Y) versus MTBF, for cache sizes up
// to 32K.
//
// Expected shape: cost scales with cache size and inversely with MTBF;
// a ~512-entry cache costs < 1 signature/node/min at MTBF = 1 day, while
// a 32K (full-mesh-like) cache is excessively costly even at 5 days.

#include <algorithm>

#include "bench/bench_common.h"
#include "net/sim_network.h"
#include "node/churn.h"
#include "sim/network.h"

using namespace sep2p;

int main(int argc, char** argv) {
  const bool quick = bench::QuickMode(argc, argv);
  sim::Parameters params;
  params.threads = bench::ThreadsArg(argc, argv);
  bench::RejectUnknownFlags(argc, argv);
  params.n = quick ? 4000 : 10000;
  params.colluding_fraction = 0.01;

  bench::PrintHeader(
      "Figure 8 — maintenance cost vs MTBF for several cache sizes",
      "cache ~512 costs < 1 asym op/node/min at MTBF = 1 day; a 32K "
      "cache is unmaintainable even at MTBF = 5 days",
      params);

  auto network = sim::Network::Build(params);
  if (!network.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 network.status().ToString().c_str());
    return 1;
  }
  sim::Network& net = **network;
  const int k = net.ktable().k_max();

  const double mtbf_hours[] = {1.0, 6.0, 24.0, 120.0};  // 1h .. 5 days
  const size_t cache_sizes[] = {64, 128, 512, 2048, 8192, 32768};

  sim::TablePrinter table({"cache size", "MTBF", "asym ops/node/min",
                           "msgs/node/min", "source"});
  util::Rng rng(params.seed ^ 0xf18);
  for (size_t cache : cache_sizes) {
    for (double mtbf : mtbf_hours) {
      // Event-driven simulation where affordable; exact closed form for
      // the cache sizes whose per-event region scans would dominate.
      const bool simulate = cache <= (quick ? 512u : 2048u);
      node::MaintenanceReport report;
      if (simulate) {
        node::ChurnSimulator churner(&net.directory(), k, cache);
        double hours = std::min(6.0, mtbf);  // enough cycles either way
        report = churner.Run(mtbf, hours, rng);
      } else {
        report = node::ChurnSimulator::Analytic(params.n, k, cache, mtbf);
      }
      char mtbf_str[32];
      if (mtbf < 24) {
        std::snprintf(mtbf_str, sizeof(mtbf_str), "%.0fh", mtbf);
      } else {
        std::snprintf(mtbf_str, sizeof(mtbf_str), "%.0fd", mtbf / 24);
      }
      table.AddRow({std::to_string(cache), mtbf_str,
                    bench::Num(report.crypto_ops_per_node_per_min, 4),
                    bench::Num(report.messages_per_node_per_min, 4),
                    simulate ? "simulated" : "analytic"});
    }
  }
  table.Print();
  std::printf("\n(k = %d from the network's k-table)\n", k);

  // Churn is only repaired once a dead cache entry is *noticed*. The
  // message layer's retry ladder bounds that detection time: probe a
  // crashed peer over a 2-node SimNetwork and report how long the
  // timeout/retry/backoff policy takes to declare it failed.
  net::LinkModel link;
  net::RetryPolicy retry;
  net::SimNetwork probe(2, link, retry, params.seed ^ 0xf18);
  probe.CrashAt(1, 0);
  net::SimNetwork::RpcResult rpc = probe.Call(
      0, 1, {0xbe, 0xef}, [](uint32_t, const std::vector<uint8_t>&) {
        return std::optional<std::vector<uint8_t>>();
      });
  std::printf("(failure detection: a crashed cache entry is declared "
              "failed after %d attempts\n and %.0f ms of virtual time "
              "under the default timeout/retry/backoff policy)\n",
              rpc.attempts,
              static_cast<double>(probe.now_us()) / 1000.0);
  return 0;
}
