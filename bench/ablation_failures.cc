// Ablation (§3.6 "Failures and disconnections"): a TL, SL or S failing
// mid-protocol is replaced from the spare candidates when it fails
// during engagement, and otherwise forces a restart with a fresh RND_T.
// These sweeps quantify the paper's statement that "such restarts do
// not lead to severe execution limitations" for realistic failure
// rates, message loss and latency.

#include "bench/bench_common.h"
#include "obs/export.h"
#include "sim/experiment.h"

using namespace sep2p;

int main(int argc, char** argv) {
  const bool quick = bench::QuickMode(argc, argv);
  bench::Observers obs(argc, argv);
  sim::Parameters params;
  params.threads = bench::ThreadsArg(argc, argv);
  bench::RejectUnknownFlags(argc, argv);
  params.n = quick ? 5000 : 20000;
  params.colluding_fraction = 0.01;
  params.actor_count = 32;
  params.cache_size = 512;

  bench::PrintHeader(
      "Ablation — robustness to mid-protocol participant failures",
      "restarting with a fresh RND_T absorbs realistic failure rates "
      "with few attempts",
      params);

  // Failures manifest as dropped/slow messages and crashed nodes that
  // the timeout/retry/backoff machinery has to detect and absorb.
  std::printf("Message-level sweep (SimNetwork: drops + exponential "
              "latency jitter +\nper-request crashes; per-RPC "
              "timeout/retry/backoff; failed TLs/SLs replaced\nfrom spare "
              "candidates, fresh-RND_T restart only when a quorum is "
              "unreachable)\n\n");

  std::vector<sim::MessageFailureSetting> settings;
  auto add = [&](double drop, uint64_t jitter_ms, double crash) {
    sim::MessageFailureSetting s;
    s.drop_probability = drop;
    s.jitter_mean_us = jitter_ms * 1000;
    s.step_crash_probability = crash;
    settings.push_back(s);
  };
  add(0.00, 10, 0.0);
  add(0.01, 10, 0.0);
  add(0.05, 10, 0.0);
  add(0.10, 10, 0.0);
  if (!quick) add(0.20, 10, 0.0);
  add(0.05, 50, 0.0);
  if (!quick) add(0.10, 50, 0.0);
  add(0.01, 10, 0.002);

  // Crash-only rows: a TL, SL or S failing mid-protocol on an
  // otherwise clean link, at the per-step rates of the paper's §3.6
  // discussion. Appended after the shared settings, so every earlier
  // row keeps its per-setting seed.
  std::vector<sim::MessageFailureSetting> msg_settings = settings;
  for (double crash : {0.001, 0.005, 0.01, 0.02, 0.05, 0.1}) {
    sim::MessageFailureSetting s;
    s.drop_probability = 0;
    s.jitter_mean_us = 0;
    s.step_crash_probability = crash;
    msg_settings.push_back(s);
  }

  // The message-level sweep is the observed one: --trace records its
  // first trials, --metrics meters every one of its trials.
  const int msg_trials = quick ? 25 : 100;
  auto msg_points =
      sim::RunMessageFailureSweep(params, msg_settings, msg_trials, 25,
                                  obs.get());
  if (!msg_points.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 msg_points.status().ToString().c_str());
    return 1;
  }

  sim::TablePrinter msg_table(
      {"P(drop)", "jitter (ms)", "P(crash)", "first-try (%)", "avg retries",
       "avg replaced", "restarts/ok", "gave up (%)", "p50 (ms)", "p99 (ms)"});
  for (const sim::MessageFailurePoint& p : *msg_points) {
    msg_table.AddRow(
        {bench::Num(p.setting.drop_probability, 3),
         bench::Num(static_cast<double>(p.setting.jitter_mean_us) / 1000, 0),
         bench::Num(p.setting.step_crash_probability, 3),
         bench::Num(p.first_try_success_rate * 100, 1),
         bench::Num(p.avg_retries, 2), bench::Num(p.avg_replacements, 2),
         bench::Num(p.restart_rate, 2), bench::Num(p.give_up_rate * 100, 1),
         bench::Num(p.p50_latency_ms, 1), bench::Num(p.p99_latency_ms, 1)});
  }
  msg_table.Print();
  std::printf("\n(virtual-clock latencies; identical output for any "
              "--threads value)\n");

  if (!obs.Write()) return 1;

  // Application-round sweep: one full participatory-sensing round per
  // trial (selection + sealed contribution wave + partial merge +
  // publish) through node::AppRuntime. Loss degrades the round — fewer
  // contributions aggregated — instead of failing it.
  std::printf("\nApp-round sweep (full sensing round over the same faulty "
              "network; loss\nshrinks the aggregate, never corrupts it)\n\n");

  const int app_trials = quick ? 15 : 60;
  auto app_points = sim::RunAppFailureSweep(params, settings, app_trials);
  if (!app_points.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 app_points.status().ToString().c_str());
    return 1;
  }

  sim::TablePrinter app_table(
      {"P(drop)", "jitter (ms)", "P(crash)", "first-try (%)", "avg retries",
       "avg restarts", "delivered (%)", "gave up (%)", "p50 (ms)",
       "p99 (ms)"});
  for (const sim::AppFailurePoint& p : *app_points) {
    app_table.AddRow(
        {bench::Num(p.setting.drop_probability, 3),
         bench::Num(static_cast<double>(p.setting.jitter_mean_us) / 1000, 0),
         bench::Num(p.setting.step_crash_probability, 3),
         bench::Num(p.first_try_success_rate * 100, 1),
         bench::Num(p.avg_retries, 2), bench::Num(p.avg_restarts, 2),
         bench::Num(p.avg_delivered_fraction * 100, 1),
         bench::Num(p.give_up_rate * 100, 1),
         bench::Num(p.p50_latency_ms, 1), bench::Num(p.p99_latency_ms, 1)});
  }
  app_table.Print();
  std::printf("\n(first-try = no restart, every contribution delivered, "
              "aggregate published)\n");
  return 0;
}
