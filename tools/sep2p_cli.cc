// sep2p_cli — command-line driver for the SEP2P library.
//
//   sep2p_cli select  [--n N] [--c FRAC] [--a A] [--seed S]
//                     [--overlay chord|can] [--ed25519] [--threads T]
//       Build a network, run one secure actor selection, verify it, and
//       print the verifiable actor list (also as its wire encoding).
//   sep2p_cli ktable  [--n N] [--c FRAC] [--alpha A]
//       Print the k-table for a configuration.
//   sep2p_cli probe   [--n N] [--c FRAC] [--alpha A] [--rounds R]
//       Colluder-concentration probe behind the alpha choice.
//   sep2p_cli demo [--trace FILE]
//       End-to-end run of all three paper use cases on one network.
//       --trace records the run and writes FILE (Chrome trace-event
//       JSON for Perfetto / chrome://tracing) plus FILE.jsonl (the
//       lossless log `sep2p_cli check` consumes).
//   sep2p_cli attack [--scenario NAME] [--rounds R] [--trace FILE]
//       Live adversary suite (src/attack/): per-scenario detection /
//       bias / cost-overhead table from the sweep harness, then one
//       narrated attacked execution judged by the detection oracle.
//       --trace writes that execution's trace (Chrome + JSONL).
//   sep2p_cli check PATH
//       Load a JSONL trace (or every *.jsonl in a directory, e.g. a
//       sweep's per-trial shards) and run the protocol invariant
//       checker on each; exits non-zero on a corrupt trace or any
//       violation.
//   sep2p_cli report PATH [--out FILE] [--csv FILE] [--folded FILE]
//                    [--top N]
//       Analyze one JSONL trace (or every *.jsonl in a directory, e.g. a
//       sweep's per-trial traces) into a markdown dashboard: per-phase
//       cost attribution, RPC latency percentiles, the critical path,
//       and the top retry offenders. Prints to stdout unless --out;
//       --csv writes the phase table, --folded the flamegraph stacks.
//   sep2p_cli report --cluster DIR [--merged FILE] [--out FILE] ...
//       Cluster mode: ingest the per-process trace shards of a live
//       run, merge them into ONE causally-consistent trace (HLC order,
//       obs/cluster.h), run the invariant checker on the merged whole
//       (non-zero exit on any violation), then render the same
//       dashboard with cross-process spans and critical path.
//       --merged writes the merged JSONL for later `check`/`report`.
//   sep2p_cli serve --cluster-index I --cluster-size P --port-base B
//                   [--drive] [--n N] [--seed S] [--ed25519]
//                   [--metrics FILE] [--trace FILE]
//       One node-daemon process of a live cluster: replicates the
//       deterministic world from the seed, hosts nodes i with
//       i % P == I over real TCP (net::TcpTransport), and serves the
//       identical protocol handlers a sim run dispatches in-process.
//       With --drive it also runs attested join + secure selection +
//       a distributed query against the cluster and prints CLUSTER OK.
//       Without it, the process serves until SIGTERM (graceful drain).
//   sep2p_cli cluster [--nodes P] [--n N] [--seed S] [--ed25519]
//                     [--port-base B] [--log-dir DIR] [--no-trace]
//       Spawns P local serve processes (child 0 drives), waits for the
//       driver, SIGTERMs the rest, and dumps the driver's log. Per-node
//       logs land in DIR (default cluster-logs/). Unless --no-trace,
//       every process records a trace shard DIR/shard-I.trace.jsonl —
//       merge + audit them with `sep2p_cli report --cluster DIR`.
//   sep2p_cli scrape (--port P | --port-base B --cluster-size P)
//                    [--host H] [--out FILE] [--timeout-ms T]
//       Fetch the live status document (process gauges + Prometheus
//       metrics) from running serve daemons over their control plane.
//   sep2p_cli soak [--nodes P] [--seconds D] [--n N] [--seed S]
//                  [--ed25519] [--port-base B] [--log-dir DIR]
//       Wall-clock soak harness: runs a traced cluster whose driver
//       keeps issuing queries for D seconds, scrapes every daemon once
//       a second while it runs, then merges the shards and audits the
//       merged trace. Prints SOAK OK when everything held.

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <charconv>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <system_error>
#include <thread>
#include <type_traits>

#include "apps/concept_index.h"
#include "apps/diffusion.h"
#include "apps/query.h"
#include "apps/sensing.h"
#include "attack/oracle.h"
#include "attack/scenario.h"
#include "attack/sweep.h"
#include "core/protocol_service.h"
#include "core/verification.h"
#include "core/wire.h"
#include "net/sim_network.h"
#include "net/tcp_transport.h"
#include "node/app_runtime.h"
#include "node/join.h"
#include "obs/checker.h"
#include "obs/cluster.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "sim/experiment.h"
#include "sim/metrics.h"
#include "sim/network.h"
#include "util/hex.h"

using namespace sep2p;

namespace {

// The demo/cluster PDMS population: every third node is a commuter and
// everyone records a km_per_day attribute. Pure function of N, so every
// cluster process replicates identical profiles.
std::vector<node::PdmsNode> BuildDemoPdms(size_t n) {
  std::vector<node::PdmsNode> pdms;
  for (uint32_t i = 0; i < n; ++i) pdms.emplace_back(i);
  for (uint32_t i = 0; i < pdms.size(); ++i) {
    if (i % 3 == 0) pdms[i].AddConcept("commuter");
    pdms[i].SetAttribute("km_per_day", static_cast<double>(i % 40));
  }
  return pdms;
}

// Numeric flag values are parsed whole with std::from_chars. Every
// numeric flag is non-negative; a value that is empty, negative, not a
// whole number of type T ("7x", "abc", "1.5" for an integer), out of
// range for T, or not finite is named on stderr and exits 2, like an
// unknown flag.
template <typename T>
T NumberArg(const std::string& flag, const char* value) {
  T parsed{};
  const char* end = value + std::strlen(value);
  auto [ptr, ec] = std::from_chars(value, end, parsed);
  bool ok = ec == std::errc() && ptr == end;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(parsed);
  if constexpr (std::is_signed_v<T>) ok = ok && parsed >= 0;
  if (!ok) {
    const char* want = ec == std::errc::result_out_of_range
                           ? "a value in range"
                       : std::is_floating_point_v<T>
                           ? "a non-negative number"
                           : "a non-negative integer";
    std::fprintf(stderr, "%s: expected %s, got '%s'\n", flag.c_str(), want,
                 value);
    std::exit(2);
  }
  return parsed;
}

// A probability or fraction: a number in [0, 1].
double ProbabilityArg(const std::string& flag, const char* value) {
  const double p = NumberArg<double>(flag, value);
  if (p > 1) {
    std::fprintf(stderr, "%s: expected a probability in [0, 1], got '%s'\n",
                 flag.c_str(), value);
    std::exit(2);
  }
  return p;
}

// The value after flag argv[*i], consumed; a missing value is named on
// stderr and exits 2.
const char* TakeValue(int argc, char** argv, int* i) {
  if (*i + 1 >= argc) {
    std::fprintf(stderr, "%s: missing value\n", argv[*i]);
    std::exit(2);
  }
  return argv[++*i];
}

template <typename T>
void TakeNumber(int argc, char** argv, int* i, T* out) {
  const char* flag = argv[*i];
  *out = NumberArg<T>(flag, TakeValue(argc, argv, i));
}

void TakeProbability(int argc, char** argv, int* i, double* out) {
  const char* flag = argv[*i];
  *out = ProbabilityArg(flag, TakeValue(argc, argv, i));
}

struct Flags {
  sim::Parameters params;
  double alpha = 1e-6;
  int rounds = 50;
  // Fault injection for the app rounds (demo command).
  double drop = 0;        // per-transmission loss probability
  double jitter_ms = 10;  // exponential latency jitter mean
  double crash = 0;       // per-request node-crash probability
  std::string scenario;   // attack: scenario name ("" = full table)
  std::string trace_path;  // demo: write Chrome trace here (+ .jsonl)
  std::string metrics_path;  // demo: Prometheus text here (+ .json)
};

bool ParseFlags(int argc, char** argv, int first, Flags* flags) {
  for (int i = first; i < argc; ++i) {
    std::string arg = argv[i];
    sim::Parameters& params = flags->params;
    if (arg == "--n") {
      TakeNumber(argc, argv, &i, &params.n);
    } else if (arg == "--c") {
      TakeProbability(argc, argv, &i, &params.colluding_fraction);
    } else if (arg == "--a") {
      TakeNumber(argc, argv, &i, &params.actor_count);
    } else if (arg == "--seed") {
      TakeNumber(argc, argv, &i, &params.seed);
    } else if (arg == "--cache") {
      TakeNumber(argc, argv, &i, &params.cache_size);
    } else if (arg == "--alpha") {
      TakeProbability(argc, argv, &i, &flags->alpha);
      params.alpha = flags->alpha;
    } else if (arg == "--rounds") {
      TakeNumber(argc, argv, &i, &flags->rounds);
    } else if (arg == "--drop") {
      TakeProbability(argc, argv, &i, &flags->drop);
    } else if (arg == "--jitter-ms") {
      TakeNumber(argc, argv, &i, &flags->jitter_ms);
    } else if (arg == "--crash") {
      TakeProbability(argc, argv, &i, &flags->crash);
    } else if (arg == "--scenario") {
      if (i + 1 >= argc) return false;
      flags->scenario = argv[++i];
    } else if (arg == "--threads") {
      TakeNumber(argc, argv, &i, &params.threads);
    } else if (arg == "--trace") {
      if (i + 1 >= argc) return false;
      flags->trace_path = argv[++i];
    } else if (arg == "--metrics") {
      if (i + 1 >= argc) return false;
      flags->metrics_path = argv[++i];
    } else if (arg == "--ed25519") {
      flags->params.provider = sim::Parameters::ProviderKind::kEd25519;
    } else if (arg == "--overlay") {
      const std::string overlay = TakeValue(argc, argv, &i);
      if (overlay == "chord") {
        params.overlay = sim::Parameters::OverlayKind::kChord;
      } else if (overlay == "can") {
        params.overlay = sim::Parameters::OverlayKind::kCan;
      } else {
        std::fprintf(stderr, "--overlay: expected chord or can, got '%s'\n",
                     overlay.c_str());
        std::exit(2);
      }
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

int CmdSelect(const Flags& flags) {
  auto network = sim::Network::Build(flags.params);
  if (!network.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 network.status().ToString().c_str());
    return 1;
  }
  sim::Network& net = **network;
  std::printf("network: %s\n", flags.params.ToString().c_str());

  core::ProtocolContext ctx = net.context();
  core::SelectionProtocol selection(ctx);
  util::Rng rng(flags.params.seed ^ 0xc11);
  uint32_t trigger =
      static_cast<uint32_t>(rng.NextUint64(net.directory().size()));
  auto outcome = selection.Run(trigger, rng);
  if (!outcome.ok()) {
    std::fprintf(stderr, "selection failed: %s\n",
                 outcome.status().ToString().c_str());
    return 1;
  }

  std::printf("trigger: node %u\nRND_T: %s\nsetter: node %u (k = %d, "
              "relocations = %d)\n",
              trigger, outcome->val.rnd_t.ToHex().c_str(),
              outcome->setter_index, outcome->val.k(),
              outcome->relocations);
  std::printf("actors:");
  for (uint32_t actor : outcome->actor_indices) std::printf(" %u", actor);
  std::printf("\nsetup: %s\n", outcome->cost.ToString().c_str());

  auto decision =
      core::VerifyBeforeDisclosure(ctx, outcome->val, nullptr, nullptr);
  std::printf("verification: %s (%.0f asymmetric ops)\n",
              decision.accepted ? "ACCEPTED" : "REJECTED",
              decision.cost.crypto_work);

  std::vector<uint8_t> encoded = core::wire::EncodeActorList(outcome->val);
  std::printf("wire encoding (%zu bytes): %s...\n", encoded.size(),
              util::ToHex(encoded.data(), std::min<size_t>(32, encoded.size()))
                  .c_str());
  auto decoded = core::wire::DecodeActorList(encoded);
  std::printf("decode + re-verify: %s\n",
              decoded.ok() && core::VerifyActorList(ctx, *decoded).ok()
                  ? "OK"
                  : "FAILED");
  return decision.accepted ? 0 : 1;
}

int CmdKtable(const Flags& flags) {
  uint64_t c = std::max<uint64_t>(
      1, static_cast<uint64_t>(flags.params.n *
                               flags.params.colluding_fraction));
  core::KTable table = core::KTable::Build(flags.params.n, c, flags.alpha);
  std::printf("N = %llu, C = %llu, alpha = %g\n",
              static_cast<unsigned long long>(flags.params.n),
              static_cast<unsigned long long>(c), flags.alpha);
  sim::TablePrinter printer({"k", "region size rs", "E[nodes in region]"});
  for (const core::KTable::Entry& entry : table.entries()) {
    printer.AddRow({std::to_string(entry.k),
                    sim::TablePrinter::Num(entry.rs, 9),
                    sim::TablePrinter::Num(entry.rs * flags.params.n, 1)});
  }
  printer.Print();
  return 0;
}

int CmdProbe(const Flags& flags) {
  auto probe = sim::ProbeAlpha(flags.params, flags.alpha, flags.rounds);
  if (!probe.ok()) {
    std::fprintf(stderr, "probe failed: %s\n",
                 probe.status().ToString().c_str());
    return 1;
  }
  std::printf("alpha = %g: k = %d, rs = %g\n", flags.alpha, probe->k,
              probe->rs);
  std::printf("max colluders in any colluder-centered region: %d "
              "(capture needs %d)\n",
              probe->max_colluders_seen, probe->k + 1);
  std::printf("captures: %d / %d colluder assignments\n", probe->breaches,
              probe->networks_tested);
  return 0;
}

int CmdDemo(const Flags& flags) {
  sim::Parameters params = flags.params;
  if (params.n > 5000) params.n = 2000;  // demo-sized
  auto network = sim::Network::Build(params);
  if (!network.ok()) {
    std::fprintf(stderr, "build failed\n");
    return 1;
  }
  sim::Network& net = **network;
  util::Rng rng(params.seed ^ 0xde40);

  std::vector<node::PdmsNode> pdms = BuildDemoPdms(net.directory().size());

  // All three use cases exchange data over one simulated message
  // network; --drop/--jitter-ms/--crash inject faults into it.
  net::LinkModel link;
  link.drop_probability = flags.drop;
  link.jitter_mean_us = static_cast<uint64_t>(flags.jitter_ms * 1000);
  net::SimNetwork simnet(net.directory().size(), link, net::RetryPolicy{},
                         params.seed ^ 0x5e7);
  simnet.set_step_crash_probability(flags.crash);
  obs::TraceRecorder recorder;
  if (!flags.trace_path.empty()) simnet.set_trace(&recorder);
  obs::MetricsRegistry metrics;
  if (!flags.metrics_path.empty()) {
    metrics.EnablePerNode(static_cast<uint32_t>(net.directory().size()));
    simnet.set_metrics(&metrics);
  }
  node::AppRuntime runtime(&simnet);
  std::printf("message network: drop=%.3f jitter=%.1fms crash=%.4f\n\n",
              flags.drop, flags.jitter_ms, flags.crash);

  std::printf("== use case 1: participatory sensing ==\n");
  apps::ParticipatorySensingApp sensing(&net, &pdms, &runtime);
  sensing.GenerateWorkload(200, 5, rng);
  auto round = sensing.RunRound(1, rng);
  if (!round.ok()) {
    std::fprintf(stderr, "sensing round failed: %s\n",
                 round.status().ToString().c_str());
    return 1;
  }
  std::printf("aggregated %llu readings from %d sources via %zu DAs "
              "(%d of %d delivered, %.1f virtual s)\n\n",
              static_cast<unsigned long long>(
                  round->aggregate.total_count()),
              round->sources, round->aggregators.size(),
              round->readings_delivered, round->readings_sent,
              round->round_latency_us / 1e6);

  std::printf("== use case 2: targeted diffusion ==\n");
  apps::ConceptIndex index(&net, &runtime);
  apps::DiffusionApp diffusion(&net, &pdms, &index, &runtime);
  auto published = diffusion.PublishAllProfiles(rng);
  if (!published.ok()) {
    std::fprintf(stderr, "publish failed: %s\n",
                 published.status().ToString().c_str());
    return 1;
  }
  auto diffused = diffusion.Diffuse(2, "commuter", "carpool offer", rng);
  if (!diffused.ok()) {
    std::fprintf(stderr, "diffusion failed: %s\n",
                 diffused.status().ToString().c_str());
    return 1;
  }
  std::printf("delivered to %zu matching nodes (%d offer failures, "
              "%.1f virtual s)\n\n",
              diffused->targets.size(), diffused->offer_failures,
              diffused->round_latency_us / 1e6);

  std::printf("== use case 3: distributed query ==\n");
  apps::QueryApp query(&net, &pdms, &index, &runtime);
  apps::QuerySpec spec;
  spec.profile_expression = "commuter";
  spec.attribute = "km_per_day";
  spec.aggregate = apps::Aggregate::kAvg;
  auto result = query.Execute(3, spec, rng);
  if (!result.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  std::printf("AVG(km_per_day) over commuters = %.2f (%llu contributors, "
              "%d lost, %d DA failovers, %.1f virtual s)\n",
              result->value,
              static_cast<unsigned long long>(result->contributors),
              result->lost_contributions, result->da_failovers,
              result->round_latency_us / 1e6);

  const net::SimNetwork::Stats& stats = simnet.stats();
  std::printf("\nnetwork totals: %llu messages, %llu dropped, %llu "
              "retries, %llu timeouts, %llu step crashes\n",
              static_cast<unsigned long long>(stats.messages_sent),
              static_cast<unsigned long long>(stats.messages_dropped),
              static_cast<unsigned long long>(stats.retries),
              static_cast<unsigned long long>(stats.timeouts),
              static_cast<unsigned long long>(stats.step_crashes));

  if (!flags.trace_path.empty()) {
    simnet.FinalizeTrace();
    Status st = obs::WriteTraceFiles(flags.trace_path, recorder.trace());
    if (!st.ok()) {
      std::fprintf(stderr, "trace write failed: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("trace: %zu events -> %s (Chrome/Perfetto) + %s.jsonl\n",
                recorder.size(), flags.trace_path.c_str(),
                flags.trace_path.c_str());
  }
  if (!flags.metrics_path.empty()) {
    metrics.SetGauge("demo_n", static_cast<double>(net.directory().size()));
    Status st = obs::WriteMetricsFiles(flags.metrics_path, metrics);
    if (!st.ok()) {
      std::fprintf(stderr, "metrics write failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    std::printf("metrics: %s (Prometheus text) + %s.json\n",
                flags.metrics_path.c_str(), flags.metrics_path.c_str());
  }
  return 0;
}

// Prints checker findings; returns whether every invariant held.
bool PrintCheckerReport(const obs::CheckerReport& report) {
  for (const std::string& violation : report.violations) {
    std::fprintf(stderr, "VIOLATION: %s\n", violation.c_str());
  }
  if (report.suppressed > 0) {
    std::fprintf(stderr, "(%llu further violations suppressed)\n",
                 static_cast<unsigned long long>(report.suppressed));
  }
  return report.ok();
}

int CmdReport(int argc, char** argv) {
  std::string path, cluster_dir, merged_path;
  std::string out_path, csv_path, folded_path;
  obs::AnalyzerOptions options;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--cluster" && i + 1 < argc) {
      cluster_dir = argv[++i];
    } else if (arg == "--merged" && i + 1 < argc) {
      merged_path = argv[++i];
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--csv" && i + 1 < argc) {
      csv_path = argv[++i];
    } else if (arg == "--folded" && i + 1 < argc) {
      folded_path = argv[++i];
    } else if (arg == "--top") {
      TakeNumber(argc, argv, &i, &options.top_n);
    } else if (arg.rfind("--", 0) != 0 && path.empty()) {
      path = arg;
    } else {
      std::fprintf(stderr, "report: unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }
  if (path.empty() == cluster_dir.empty()) {
    std::fprintf(stderr,
                 "report: need exactly one of a trace PATH or "
                 "--cluster DIR\n");
    return 2;
  }

  obs::Report report;
  if (!cluster_dir.empty()) {
    // Cluster mode: merge the per-process shards into one causal trace,
    // audit it whole, then analyze the merged result.
    auto merged = obs::LoadClusterTrace(cluster_dir);
    if (!merged.ok()) {
      std::fprintf(stderr, "report: %s\n",
                   merged.status().ToString().c_str());
      return 1;
    }
    const bool invariants_ok = PrintCheckerReport(obs::CheckTrace(*merged));
    std::printf("cluster: merged %s into %zu events "
                "(%u processes, digest %016llx), invariants %s\n",
                cluster_dir.c_str(), merged->events.size(),
                merged->meta.process_count,
                static_cast<unsigned long long>(obs::CausalDigest(*merged)),
                invariants_ok ? "OK" : "VIOLATED");
    if (!merged_path.empty()) {
      Status st = obs::WriteFile(merged_path, obs::ToJsonl(*merged));
      if (!st.ok()) {
        std::fprintf(stderr, "report: %s\n", st.ToString().c_str());
        return 1;
      }
      std::printf("cluster: merged trace -> %s\n", merged_path.c_str());
    }
    if (!invariants_ok) return 1;
    Status st = obs::AddTrace(report, *merged, cluster_dir, options);
    if (!st.ok()) {
      std::fprintf(stderr, "report: %s\n", st.ToString().c_str());
      return 1;
    }
  } else {
    Result<obs::Report> built = obs::BuildReport(path, options);
    if (!built.ok()) {
      std::fprintf(stderr, "report: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    report = std::move(built).value();
  }
  std::string markdown = report.ToMarkdown(options);
  if (out_path.empty()) {
    std::fwrite(markdown.data(), 1, markdown.size(), stdout);
  } else {
    Status st = obs::WriteFile(out_path, markdown);
    if (!st.ok()) {
      std::fprintf(stderr, "report: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("report: %zu trace(s) -> %s\n", report.trace_count,
                out_path.c_str());
  }
  if (!csv_path.empty()) {
    Status st = obs::WriteFile(csv_path, report.ToCsv());
    if (!st.ok()) {
      std::fprintf(stderr, "report: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  if (!folded_path.empty()) {
    Status st = obs::WriteFile(folded_path, report.ToFolded());
    if (!st.ok()) {
      std::fprintf(stderr, "report: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  return 0;
}

int CheckOneTrace(const std::string& path) {
  auto trace = obs::LoadTrace(path);
  if (!trace.ok()) {
    const bool unreadable = trace.status().code() == StatusCode::kNotFound;
    std::fprintf(stderr, "check: %s%s\n", unreadable ? "" : "rejected: ",
                 trace.status().ToString().c_str());
    return 1;
  }
  obs::CheckerReport report = obs::CheckTrace(*trace);
  std::printf("trace: %zu events, %llu sends, %llu delivers, %llu drops, "
              "%llu rpcs, %llu spans, %llu selections completed\n",
              trace->events.size(),
              static_cast<unsigned long long>(report.sends),
              static_cast<unsigned long long>(report.delivers),
              static_cast<unsigned long long>(report.drops),
              static_cast<unsigned long long>(report.rpcs),
              static_cast<unsigned long long>(report.spans),
              static_cast<unsigned long long>(report.selections_completed));
  const bool ok = PrintCheckerReport(report);
  std::printf("invariants: %s\n", ok ? "OK" : "VIOLATED");
  return ok ? 0 : 1;
}

int CmdCheck(const char* path) {
  // One file or every *.jsonl in a directory (same globbing as report);
  // any rejected trace or violated invariant fails the whole run.
  auto files = obs::ListTraceFiles(path);
  if (!files.ok()) {
    std::fprintf(stderr, "check: %s\n", files.status().ToString().c_str());
    return 1;
  }
  int rc = 0;
  for (const std::string& file : files.value()) {
    if (files->size() > 1) std::printf("== %s ==\n", file.c_str());
    if (CheckOneTrace(file) != 0) rc = 1;
  }
  if (files->size() > 1) {
    std::printf("checked %zu traces: %s\n", files->size(),
                rc == 0 ? "all OK" : "FAILURES");
  }
  return rc;
}

// ---------------------------------------------------------------------
// Live cluster: `serve` runs one daemon process, `cluster` launches P
// of them on loopback.
// ---------------------------------------------------------------------

volatile std::sig_atomic_t g_stop = 0;
net::TcpTransport* g_transport = nullptr;

void OnStopSignal(int) {
  g_stop = 1;
  if (g_transport != nullptr) g_transport->RequestStop();
}

struct ServeFlags {
  sim::Parameters params;
  uint32_t cluster_index = 0;
  uint32_t cluster_size = 1;
  uint16_t port_base = 0;
  bool drive = false;
  // Soak mode: after the protocol pass, the driver keeps issuing live
  // queries until this much wall clock elapsed (0 = single pass).
  double drive_seconds = 0;
  std::string metrics_path;
  std::string trace_path;
};

bool ParseServeFlags(int argc, char** argv, int first, ServeFlags* flags) {
  for (int i = first; i < argc; ++i) {
    std::string arg = argv[i];
    sim::Parameters& params = flags->params;
    if (arg == "--n") {
      TakeNumber(argc, argv, &i, &params.n);
    } else if (arg == "--seed") {
      TakeNumber(argc, argv, &i, &params.seed);
    } else if (arg == "--cache") {
      TakeNumber(argc, argv, &i, &params.cache_size);
    } else if (arg == "--a") {
      TakeNumber(argc, argv, &i, &params.actor_count);
    } else if (arg == "--ed25519") {
      params.provider = sim::Parameters::ProviderKind::kEd25519;
    } else if (arg == "--cluster-index") {
      TakeNumber(argc, argv, &i, &flags->cluster_index);
    } else if (arg == "--cluster-size") {
      TakeNumber(argc, argv, &i, &flags->cluster_size);
    } else if (arg == "--port-base") {
      TakeNumber(argc, argv, &i, &flags->port_base);
    } else if (arg == "--drive") {
      flags->drive = true;
    } else if (arg == "--drive-seconds") {
      TakeNumber(argc, argv, &i, &flags->drive_seconds);
    } else if (arg == "--metrics") {
      if (i + 1 >= argc) return false;
      flags->metrics_path = argv[++i];
    } else if (arg == "--trace") {
      if (i + 1 >= argc) return false;
      flags->trace_path = argv[++i];
    } else {
      std::fprintf(stderr, "serve: unknown flag: %s\n", arg.c_str());
      return false;
    }
  }
  return flags->port_base != 0 &&
         flags->cluster_index < flags->cluster_size;
}

int CmdServe(int argc, char** argv) {
  ServeFlags flags;
  flags.params.n = 400;
  flags.params.cache_size = 128;
  flags.params.actor_count = 4;
  if (!ParseServeFlags(argc, argv, 2, &flags)) {
    std::fprintf(stderr,
                 "serve: need --port-base and --cluster-index < "
                 "--cluster-size\n");
    return 2;
  }

  // Every process replicates the whole deterministic world from the
  // seed — keys, certificates, directory, CA — so only messages need to
  // cross sockets.
  auto network = sim::Network::Build(flags.params);
  if (!network.ok()) {
    std::fprintf(stderr, "serve: build failed: %s\n",
                 network.status().ToString().c_str());
    return 1;
  }
  sim::Network& net = **network;
  const uint32_t node_count =
      static_cast<uint32_t>(net.directory().size());

  net::TcpTransport::Options topt;
  topt.node_count = node_count;
  topt.process_count = flags.cluster_size;
  topt.process_index = flags.cluster_index;
  topt.listen_port =
      static_cast<uint16_t>(flags.port_base + flags.cluster_index);
  topt.seed = flags.params.seed ^ (0x7c1ULL + flags.cluster_index);
  net::TcpTransport transport(topt);
  for (uint32_t p = 0; p < flags.cluster_size; ++p) {
    if (p == flags.cluster_index) continue;
    transport.SetPeer(p, "127.0.0.1",
                      static_cast<uint16_t>(flags.port_base + p));
  }

  obs::MetricsRegistry metrics;
  transport.set_metrics(&metrics);
  obs::TraceRecorder recorder;
  if (!flags.trace_path.empty()) transport.set_trace(&recorder);

  // The resident server side: selection-protocol participants plus the
  // same app handlers a sim run registers — the identical translation
  // units answer on both transports.
  core::ProtocolContext ctx = net.context();
  core::ProtocolService::Options popt;
  popt.rng_seed =
      flags.params.seed ^ (0x5e21ULL + flags.cluster_index * 0x9e37ULL);
  core::ProtocolService service(ctx, transport, popt);

  std::vector<node::PdmsNode> pdms = BuildDemoPdms(node_count);
  node::AppRuntime runtime(&transport);
  apps::ConceptIndex index(&net, &runtime);
  apps::DiffusionApp diffusion(&net, &pdms, &index, &runtime);
  apps::QueryApp query(&net, &pdms, &index, &runtime);

  g_transport = &transport;
  std::signal(SIGTERM, OnStopSignal);
  std::signal(SIGINT, OnStopSignal);

  Status started = transport.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "serve: %s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("serve: process %u/%u hosting %u nodes on port %u (%s)\n",
              flags.cluster_index, flags.cluster_size, node_count,
              transport.listen_port(),
              flags.params.provider == sim::Parameters::ProviderKind::kEd25519
                  ? "ed25519"
                  : "toy provider");
  std::fflush(stdout);

  Status peers = transport.WaitForPeers(30000);
  // A resident daemon stopped inside the barrier (a driver can finish
  // between two of its polls) still drains; a driver, or a barrier
  // that timed out, fails.
  if (!peers.ok() && (flags.drive || !transport.stop_requested())) {
    std::fprintf(stderr, "serve: peers: %s\n", peers.ToString().c_str());
    transport.Stop();
    return 1;
  }
  if (peers.ok()) {
    std::printf("serve: all %u peers reachable\n", flags.cluster_size);
    std::fflush(stdout);
  }

  if (!flags.drive) {
    // Resident participant: serve until SIGTERM, then drain in-flight
    // work and exit cleanly.
    while (g_stop == 0 && !transport.stop_requested()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    transport.Stop();
    // Shard outputs are written only AFTER Stop() joined every service
    // thread — the recorder is single-threaded by contract and the
    // exporter must not race late dispatches.
    if (!flags.trace_path.empty()) {
      transport.FinalizeTrace();
      if (!obs::WriteTraceFiles(flags.trace_path, recorder.trace()).ok()) {
        std::fprintf(stderr, "trace write failed\n");
        return 1;
      }
      std::printf("trace: %zu events -> %s (+ .jsonl)\n", recorder.size(),
                  flags.trace_path.c_str());
    }
    if (!flags.metrics_path.empty() &&
        !obs::WriteMetricsFiles(flags.metrics_path, metrics).ok()) {
      std::fprintf(stderr, "metrics write failed\n");
      return 1;
    }
    const net::Transport::Stats& stats = transport.stats();
    std::printf("serve: drained; %llu delivered, %llu sent\n",
                static_cast<unsigned long long>(stats.messages_delivered),
                static_cast<unsigned long long>(stats.messages_sent));
    return 0;
  }

  // --- Driver: the full protocol stack against the live cluster, the
  // same calls CmdDemo makes against the simulator.
  util::Rng rng(flags.params.seed ^ 0xc105ULL);
  int failures = 0;

  std::printf("== profiles ==\n");
  auto published = diffusion.PublishAllProfiles(rng);
  if (!published.ok()) {
    std::fprintf(stderr, "publish failed: %s\n",
                 published.status().ToString().c_str());
    ++failures;
  } else {
    std::printf("published every profile to its metadata indexers\n");
  }

  std::printf("== attested join (§3.6) ==\n");
  node::JoinProtocol join(ctx, transport);
  auto joined = join.Join(1, rng);
  if (!joined.ok()) {
    std::fprintf(stderr, "join failed: %s\n",
                 joined.status().ToString().c_str());
    ++failures;
  } else {
    std::printf("node 1 joined: %zu validated cache entries "
                "(successor %u, predecessor %u)\n",
                joined->cache.size(), joined->successor,
                joined->predecessor);
  }

  std::printf("== secure selection (§3.4-3.5) ==\n");
  core::ProtocolContext sel_ctx = ctx;
  sel_ctx.actor_count = flags.params.actor_count;
  int restarts = 0;
  auto selected = runtime.RunSelection(sel_ctx, 2, rng, 8, &restarts);
  if (!selected.ok()) {
    std::fprintf(stderr, "selection failed: %s\n",
                 selected.status().ToString().c_str());
    ++failures;
  } else {
    std::printf("selected %zu actors (k = %d, %d restarts):",
                selected->actor_indices.size(), selected->val.k(), restarts);
    for (uint32_t actor : selected->actor_indices) {
      std::printf(" %u", actor);
    }
    std::printf("\n");
  }

  std::printf("== distributed query (§5) ==\n");
  apps::QuerySpec spec;
  spec.profile_expression = "commuter";
  spec.attribute = "km_per_day";
  spec.aggregate = apps::Aggregate::kAvg;
  auto result = query.Execute(3, spec, rng);
  if (!result.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 result.status().ToString().c_str());
    ++failures;
  } else {
    std::printf("AVG(km_per_day) over commuters = %.2f "
                "(%llu contributors, %d lost, %d DA failovers, answer "
                "delivered: %s)\n",
                result->value,
                static_cast<unsigned long long>(result->contributors),
                result->lost_contributions, result->da_failovers,
                result->answer_delivered ? "yes" : "no");
    if (!result->answer_delivered || result->contributors == 0) ++failures;
  }

  if (flags.drive_seconds > 0) {
    // Soak: keep the cluster under live load for the requested wall
    // time so periodic scrapes observe a working system, not an idle
    // one.
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(
            static_cast<int64_t>(flags.drive_seconds * 1000));
    uint64_t soak_rounds = 0;
    uint64_t soak_failures = 0;
    while (std::chrono::steady_clock::now() < deadline && g_stop == 0) {
      const uint32_t trigger =
          static_cast<uint32_t>(3 + soak_rounds % 5) % node_count;
      auto again = query.Execute(trigger, spec, rng);
      if (!again.ok() || !again->answer_delivered) ++soak_failures;
      ++soak_rounds;
    }
    std::printf("soak: %llu extra query rounds over %.1fs (%llu failed)\n",
                static_cast<unsigned long long>(soak_rounds),
                flags.drive_seconds,
                static_cast<unsigned long long>(soak_failures));
    if (soak_rounds == 0 || soak_failures > 0) ++failures;
  }

  const net::Transport::Stats& stats = transport.stats();
  std::printf("\nnetwork totals: %llu messages, %llu delivered, %llu "
              "retries, %llu timeouts, %llu rpc failures\n",
              static_cast<unsigned long long>(stats.messages_sent),
              static_cast<unsigned long long>(stats.messages_delivered),
              static_cast<unsigned long long>(stats.retries),
              static_cast<unsigned long long>(stats.timeouts),
              static_cast<unsigned long long>(stats.rpc_failures));

  // Stop FIRST: exporting the recorder while service threads can still
  // dispatch would race the single-threaded obs contract.
  transport.Stop();

  if (!flags.metrics_path.empty()) {
    metrics.SetGauge("cluster_nodes", static_cast<double>(node_count));
    metrics.SetGauge("cluster_processes",
                     static_cast<double>(flags.cluster_size));
    if (!obs::WriteMetricsFiles(flags.metrics_path, metrics).ok()) {
      std::fprintf(stderr, "metrics write failed\n");
      ++failures;
    } else {
      std::printf("metrics: %s (+ .json)\n", flags.metrics_path.c_str());
    }
  }
  if (!flags.trace_path.empty()) {
    transport.FinalizeTrace();
    if (!obs::WriteTraceFiles(flags.trace_path, recorder.trace()).ok()) {
      std::fprintf(stderr, "trace write failed\n");
      ++failures;
    } else {
      std::printf("trace: %zu events -> %s (+ .jsonl)\n", recorder.size(),
                  flags.trace_path.c_str());
    }
  }

  if (failures == 0) std::printf("CLUSTER OK\n");
  std::fflush(stdout);
  return failures == 0 ? 0 : 1;
}

// The daemons `cluster` and `soak` launch: `processes` serve processes
// on 127.0.0.1 ports from `port_base`, process 0 driving. Each logs to
// LOG_DIR/node-I.log and, with `trace_shards`, records its own trace
// shard LOG_DIR/shard-I.trace (the .jsonl twin the exporter writes is
// what `report --cluster` globs and merges).
struct ServeCluster {
  const char* name;  // prefixes the launcher's error messages
  int processes;
  std::string log_dir;
  uint16_t port_base = 0;  // 0: derived from the launcher's pid
  bool trace_shards = true;
  std::vector<std::string> driver_args = {};  // process 0, after --drive
  std::vector<std::string> passthrough = {};  // every process
  std::vector<pid_t> pids = {};                // the driver first

  // Creates LOG_DIR and forks the daemons; returns false after printing
  // why.
  bool Start() {
    if (port_base == 0) {
      // Deterministic per launcher instance, unlikely to collide across
      // concurrent CI jobs.
      port_base = static_cast<uint16_t>(18000 + getpid() % 10000);
    }
    if (mkdir(log_dir.c_str(), 0755) != 0 && errno != EEXIST) {
      std::fprintf(stderr, "%s: mkdir %s: %s\n", name, log_dir.c_str(),
                   std::strerror(errno));
      return false;
    }
    std::fflush(stdout);
    for (int i = 0; i < processes; ++i) {
      pid_t pid = fork();
      if (pid < 0) {
        std::fprintf(stderr, "%s: fork: %s\n", name, std::strerror(errno));
        for (pid_t child : pids) kill(child, SIGKILL);
        return false;
      }
      if (pid == 0) Exec(i);
      pids.push_back(pid);
    }
    return true;
  }

  // Once the driver has exited: SIGTERMs the other daemons and reaps
  // them.
  void StopServers() const {
    for (size_t i = 1; i < pids.size(); ++i) kill(pids[i], SIGTERM);
    for (size_t i = 1; i < pids.size(); ++i) {
      int status = 0;
      waitpid(pids[i], &status, 0);
    }
  }

 private:
  // Child i: log to its own file, exec serve.
  [[noreturn]] void Exec(int i) const {
    const std::string index = std::to_string(i);
    int fd = open((log_dir + "/node-" + index + ".log").c_str(),
                  O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      dup2(fd, STDOUT_FILENO);
      dup2(fd, STDERR_FILENO);
      close(fd);
    }
    std::vector<std::string> args = {
        "/proc/self/exe",  "serve",
        "--cluster-index", index,
        "--cluster-size",  std::to_string(processes),
        "--port-base",     std::to_string(port_base)};
    if (i == 0) {
      args.push_back("--drive");
      args.insert(args.end(), driver_args.begin(), driver_args.end());
    }
    if (trace_shards) {
      args.push_back("--trace");
      args.push_back(log_dir + "/shard-" + index + ".trace");
    }
    args.insert(args.end(), passthrough.begin(), passthrough.end());
    std::vector<char*> argv_exec;
    for (std::string& a : args) argv_exec.push_back(a.data());
    argv_exec.push_back(nullptr);
    execv("/proc/self/exe", argv_exec.data());
    std::fprintf(stderr, "%s: exec: %s\n", name, std::strerror(errno));
    _exit(127);
  }
};

int CmdCluster(int argc, char** argv) {
  ServeCluster cluster{.name = "cluster",
                       .processes = 5,
                       .log_dir = "cluster-logs"};
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--nodes") {
      TakeNumber(argc, argv, &i, &cluster.processes);
    } else if (arg == "--port-base") {
      TakeNumber(argc, argv, &i, &cluster.port_base);
    } else if (arg == "--log-dir" && i + 1 < argc) {
      cluster.log_dir = argv[++i];
    } else if (arg == "--no-trace") {
      cluster.trace_shards = false;
    } else if (arg == "--ed25519") {
      cluster.passthrough.push_back(arg);
    } else if (arg == "--n" || arg == "--seed" || arg == "--cache" ||
               arg == "--a" || arg == "--drive-seconds") {
      // Checked once here rather than by every daemon.
      const char* value = TakeValue(argc, argv, &i);
      if (arg == "--drive-seconds") {
        NumberArg<double>(arg, value);
      } else {
        NumberArg<uint64_t>(arg, value);
      }
      cluster.passthrough.insert(cluster.passthrough.end(), {arg, value});
    } else {
      std::fprintf(stderr, "cluster: unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }
  if (cluster.processes < 1 || cluster.processes > 64) {
    std::fprintf(stderr, "cluster: --nodes must be in [1, 64]\n");
    return 2;
  }
  if (!cluster.Start()) return 1;
  const std::string& log_dir = cluster.log_dir;
  std::printf("cluster: %d processes on 127.0.0.1:%d.., logs in %s/\n",
              cluster.processes, cluster.port_base, log_dir.c_str());
  std::fflush(stdout);

  // The driver (child 0) finishes the protocol run; the rest serve
  // until told to drain.
  int driver_status = 0;
  waitpid(cluster.pids[0], &driver_status, 0);
  cluster.StopServers();

  // Surface the driver's log on the launcher's stdout.
  std::string driver_log = log_dir + "/node-0.log";
  if (FILE* f = std::fopen(driver_log.c_str(), "r")) {
    char buffer[4096];
    size_t got;
    while ((got = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
      std::fwrite(buffer, 1, got, stdout);
    }
    std::fclose(f);
  }

  const int exit_code =
      WIFEXITED(driver_status) ? WEXITSTATUS(driver_status) : 1;
  std::printf("cluster: driver exited %d; per-node logs in %s/\n",
              exit_code, log_dir.c_str());
  if (cluster.trace_shards) {
    std::printf("cluster: trace shards in %s/ — merge + audit with "
                "`sep2p_cli report --cluster %s`\n",
                log_dir.c_str(), log_dir.c_str());
  }
  return exit_code;
}

int CmdScrape(int argc, char** argv) {
  std::string host = "127.0.0.1";
  std::string out_path;
  uint16_t port = 0;
  uint16_t port_base = 0;
  int cluster_size = 0;
  uint64_t timeout_ms = 3000;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--host" && i + 1 < argc) {
      host = argv[++i];
    } else if (arg == "--port") {
      TakeNumber(argc, argv, &i, &port);
    } else if (arg == "--port-base") {
      TakeNumber(argc, argv, &i, &port_base);
    } else if (arg == "--cluster-size") {
      TakeNumber(argc, argv, &i, &cluster_size);
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--timeout-ms") {
      TakeNumber(argc, argv, &i, &timeout_ms);
    } else {
      std::fprintf(stderr, "scrape: unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }
  if (port == 0 && (port_base == 0 || cluster_size <= 0)) {
    std::fprintf(stderr,
                 "scrape: need --port P or --port-base B --cluster-size P\n");
    return 2;
  }
  std::string all;
  int failures = 0;
  auto scrape_one = [&](int p) {
    auto text = net::ScrapeStatus(host, static_cast<uint16_t>(p), timeout_ms);
    if (!text.ok()) {
      std::fprintf(stderr, "scrape: %s:%d: %s\n", host.c_str(), p,
                   text.status().ToString().c_str());
      ++failures;
      return;
    }
    all += "# target " + host + ":" + std::to_string(p) + "\n";
    all += *text;
    all += "\n";
  };
  if (port != 0) {
    scrape_one(port);
  } else {
    for (int p = 0; p < cluster_size; ++p) scrape_one(port_base + p);
  }
  if (out_path.empty()) {
    std::fwrite(all.data(), 1, all.size(), stdout);
  } else {
    Status st = obs::WriteFile(out_path, all);
    if (!st.ok()) {
      std::fprintf(stderr, "scrape: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("scrape: -> %s\n", out_path.c_str());
  }
  return failures == 0 ? 0 : 1;
}

// Wall-clock soak: a traced cluster under continuous query load, with
// one status scrape of every daemon per second, closed out by a merged
// causal audit — the live analogue of the sim sweep's checker gate.
int CmdSoak(int argc, char** argv) {
  ServeCluster soak{.name = "soak", .processes = 3, .log_dir = "soak-logs"};
  double seconds = 5;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--nodes") {
      TakeNumber(argc, argv, &i, &soak.processes);
    } else if (arg == "--seconds") {
      TakeNumber(argc, argv, &i, &seconds);
    } else if (arg == "--port-base") {
      TakeNumber(argc, argv, &i, &soak.port_base);
    } else if (arg == "--log-dir" && i + 1 < argc) {
      soak.log_dir = argv[++i];
    } else if (arg == "--ed25519") {
      soak.passthrough.push_back(arg);
    } else if (arg == "--n" || arg == "--seed" || arg == "--cache" ||
               arg == "--a") {
      // Checked once here rather than by every daemon.
      const char* value = TakeValue(argc, argv, &i);
      NumberArg<uint64_t>(arg, value);
      soak.passthrough.insert(soak.passthrough.end(), {arg, value});
    } else {
      std::fprintf(stderr, "soak: unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }
  if (soak.processes < 1 || soak.processes > 64 || seconds <= 0) {
    std::fprintf(stderr, "soak: --nodes in [1, 64], --seconds > 0\n");
    return 2;
  }
  soak.driver_args = {"--drive-seconds", std::to_string(seconds)};
  if (!soak.Start()) return 1;
  const std::string& log_dir = soak.log_dir;
  std::printf("soak: %d processes on 127.0.0.1:%d.. for %.1fs, logs in "
              "%s/\n",
              soak.processes, soak.port_base, seconds, log_dir.c_str());
  std::fflush(stdout);

  // Scrape every daemon roughly once a second while the driver runs.
  uint64_t scrapes_attempted = 0;
  uint64_t scrapes_ok = 0;
  int driver_status = 0;
  for (;;) {
    const pid_t done = waitpid(soak.pids[0], &driver_status, WNOHANG);
    if (done == soak.pids[0]) break;
    std::this_thread::sleep_for(std::chrono::seconds(1));
    for (int p = 0; p < soak.processes; ++p) {
      ++scrapes_attempted;
      auto text = net::ScrapeStatus(
          "127.0.0.1", static_cast<uint16_t>(soak.port_base + p), 2000);
      if (text.ok() && text->find("sep2p_health") != std::string::npos) {
        ++scrapes_ok;
        // Keep the freshest snapshot per daemon next to its shard (the
        // CI artifact of what the status plane served while under load).
        (void)obs::WriteFile(
            log_dir + "/scrape-" + std::to_string(p) + ".prom", text.value());
      }
    }
  }
  soak.StopServers();
  const int driver_rc =
      WIFEXITED(driver_status) ? WEXITSTATUS(driver_status) : 1;
  std::printf("soak: driver exited %d; scrapes %llu/%llu ok\n", driver_rc,
              static_cast<unsigned long long>(scrapes_ok),
              static_cast<unsigned long long>(scrapes_attempted));

  // Final audit: merge the shards and run the checker on the whole.
  auto merged = obs::LoadClusterTrace(log_dir);
  if (!merged.ok()) {
    std::fprintf(stderr, "soak: merge failed: %s\n",
                 merged.status().ToString().c_str());
    return 1;
  }
  const bool invariants_ok = PrintCheckerReport(obs::CheckTrace(*merged));
  std::printf("soak: merged %zu events, digest %016llx, invariants %s\n",
              merged->events.size(),
              static_cast<unsigned long long>(obs::CausalDigest(*merged)),
              invariants_ok ? "OK" : "VIOLATED");
  const bool ok = driver_rc == 0 && invariants_ok && scrapes_ok > 0;
  if (ok) std::printf("SOAK OK\n");
  return ok ? 0 : 1;
}

// Live adversary suite (ROADMAP item 4): runs the attack scenarios of
// src/attack/ against one network, prints the detection-oracle report,
// then narrates one traced attacked execution (--trace writes it out
// for `sep2p_cli check` / `report`).
int CmdAttack(const Flags& flags) {
  std::vector<std::string> names;
  if (flags.scenario.empty()) {
    names = attack::ScenarioNames();
  } else {
    bool known = false;
    for (const std::string& name : attack::ScenarioNames()) {
      known |= name == flags.scenario;
    }
    if (!known) {
      std::fprintf(stderr, "unknown scenario: %s\nknown:",
                   flags.scenario.c_str());
      for (const std::string& name : attack::ScenarioNames()) {
        std::fprintf(stderr, " %s", name.c_str());
      }
      std::fprintf(stderr, "\n");
      return 2;
    }
    // Keep the honest baseline in front so cost overhead stays defined.
    if (flags.scenario != "none") names.push_back("none");
    names.push_back(flags.scenario);
  }

  const int trials = flags.rounds;
  std::printf("network: %s\nattack sweep: %d trials per scenario\n\n",
              flags.params.ToString().c_str(), trials);
  auto points =
      attack::RunAdversarySweep(flags.params, names, trials, nullptr);
  if (!points.ok()) {
    std::fprintf(stderr, "attack sweep failed: %s\n",
                 points.status().ToString().c_str());
    return 1;
  }
  sim::TablePrinter table({"scenario", "attempted", "detected",
                           "accepted", "succeeded", "avg corr.", "ideal",
                           "effect.", "cost ovh"});
  for (const attack::AdversaryPoint& p : *points) {
    table.AddRow({p.scenario, std::to_string(p.attempted),
                  std::to_string(p.detected), std::to_string(p.accepted),
                  std::to_string(p.succeeded),
                  sim::TablePrinter::Num(p.avg_corrupted, 2),
                  sim::TablePrinter::Num(p.ideal_corrupted, 2),
                  sim::TablePrinter::Num(p.effectiveness, 3),
                  sim::TablePrinter::Num(p.cost_overhead, 2)});
  }
  table.Print();

  // One narrated attacked execution, traced for the checker tooling.
  const std::string focus =
      flags.scenario.empty() ? "csar-grind" : flags.scenario;
  auto network = sim::Network::Build(flags.params);
  if (!network.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 network.status().ToString().c_str());
    return 1;
  }
  sim::Network& net = **network;
  core::ProtocolContext ctx = net.context();
  auto scenario = attack::MakeScenario(focus, ctx);
  obs::TraceRecorder recorder;
  recorder.meta().node_count =
      static_cast<uint32_t>(net.directory().size());
  util::Rng rng(flags.params.seed ^ 0xa77ac4);
  const uint32_t trigger =
      static_cast<uint32_t>(rng.NextUint64(net.directory().size()));
  auto outcome = scenario->Run(trigger, rng, &recorder, nullptr);
  if (!outcome.ok()) {
    std::fprintf(stderr, "scenario failed: %s\n",
                 outcome.status().ToString().c_str());
    return 1;
  }
  attack::Verdict verdict = attack::Judge(*outcome, &recorder.trace());
  std::printf("\nlive run of '%s' (trigger node %u):\n", focus.c_str(),
              trigger);
  std::printf("  coalition deviated: %s\n",
              outcome->attempted ? "yes" : "no opportunity");
  std::printf("  detected:           %s%s%s\n",
              verdict.detected ? "YES" : "no",
              verdict.signal.empty() ? "" : " — ",
              verdict.signal.c_str());
  std::printf("  verdict:            %s accepted, %d/%d colluders among "
              "accepted entries\n",
              outcome->accepted ? "list" : "nothing",
              outcome->corrupted_actors, outcome->actor_count);
  std::printf("  strikes=%d restarts=%d attempts=%d checker "
              "violations=%llu\n",
              outcome->strikes, outcome->restarts, outcome->attempts,
              static_cast<unsigned long long>(verdict.checker_violations));

  if (!flags.trace_path.empty()) {
    if (!obs::WriteTraceFiles(flags.trace_path, recorder.trace()).ok()) {
      std::fprintf(stderr, "trace write failed\n");
      return 1;
    }
    std::printf("  trace: %zu events -> %s (+ .jsonl)\n", recorder.size(),
                flags.trace_path.c_str());
  }
  return 0;
}

void Usage() {
  std::fprintf(stderr,
               "usage: sep2p_cli "
               "<select|ktable|probe|demo|attack|check|report|serve|"
               "cluster|scrape|soak> [flags]\n"
               "flags: --n N --c FRAC --a A --seed S --cache SIZE\n"
               "       --alpha A --rounds R --overlay chord|can --ed25519\n"
               "       --threads T (0 = one per hardware thread)\n"
               "       --drop P --jitter-ms M --crash P (demo fault "
               "injection)\n"
               "       --trace FILE (demo: Chrome trace to FILE, JSONL to "
               "FILE.jsonl)\n"
               "       --metrics FILE (demo: Prometheus text to FILE, "
               "JSON to FILE.json)\n"
               "attack: sep2p_cli attack [--scenario NAME] [--rounds R]\n"
               "        [--trace FILE]  (live adversary suite + detection "
               "oracle;\n        omit --scenario for the full table)\n"
               "check: sep2p_cli check PATH (run the invariant checker "
               "on one\n"
               "       trace.jsonl or every *.jsonl in a directory)\n"
               "report: sep2p_cli report PATH [--out FILE] [--csv FILE]\n"
               "        [--folded FILE] [--top N]  (PATH = trace.jsonl or "
               "a directory of them)\n"
               "        sep2p_cli report --cluster DIR [--merged FILE] "
               "merges the\n"
               "        per-process shards of a live run, audits the "
               "merged trace,\n        and reports on the whole cluster\n"
               "serve: sep2p_cli serve --cluster-index I --cluster-size P\n"
               "       --port-base B [--drive] [--drive-seconds D] "
               "[--n N]\n"
               "       [--seed S] [--ed25519] [--trace FILE] "
               "[--metrics FILE]\n"
               "cluster: sep2p_cli cluster [--nodes P] [--n N] [--seed S]\n"
               "         [--ed25519] [--port-base B] [--log-dir DIR] "
               "[--no-trace]\n"
               "scrape: sep2p_cli scrape (--port P | --port-base B "
               "--cluster-size P)\n"
               "        [--host H] [--out FILE] [--timeout-ms T]\n"
               "soak: sep2p_cli soak [--nodes P] [--seconds D] [--n N]\n"
               "      [--seed S] [--ed25519] [--port-base B] "
               "[--log-dir DIR]\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    Usage();
    return 2;
  }
  std::string command = argv[1];
  // `check` and `report` take a file path, not the network flags.
  if (command == "check") {
    if (argc != 3) {
      Usage();
      return 2;
    }
    return CmdCheck(argv[2]);
  }
  if (command == "report") {
    if (argc < 3) {
      Usage();
      return 2;
    }
    return CmdReport(argc, argv);
  }
  if (command == "serve") return CmdServe(argc, argv);
  if (command == "cluster") return CmdCluster(argc, argv);
  if (command == "scrape") return CmdScrape(argc, argv);
  if (command == "soak") return CmdSoak(argc, argv);

  Flags flags;
  flags.params.n = 2000;
  flags.params.cache_size = 128;
  flags.params.actor_count = 8;
  if (!ParseFlags(argc, argv, 2, &flags)) {
    Usage();
    return 2;
  }

  if (command == "select") return CmdSelect(flags);
  if (command == "ktable") return CmdKtable(flags);
  if (command == "probe") return CmdProbe(flags);
  if (command == "demo") return CmdDemo(flags);
  if (command == "attack") return CmdAttack(flags);
  Usage();
  return 2;
}
