// perfbench: runs one benchmark workload and prints its metrics.
//
//   perfbench --workload select|churn|task_mix|live --seed N --seconds S
//             --trace 0|1 [--out-dir DIR]
//
// Prints a readable report, then one JSON line as the last line of
// stdout. Exits 1 when a correctness check failed, 2 on bad arguments.
// A traced run writes its spans to DIR/spans-<workload>-<seed>.jsonl.
// perfbench/run.py builds this program and is the usual entry point.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "report.h"
#include "spans.h"
#include "workloads.h"

namespace {

using namespace perfbench;

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (args->seconds <= 0) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      args->trace = value[0] == '1';
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload select|churn|task_mix|live "
                 "--seed N --seconds S --trace 0|1 [--out-dir DIR]\n");
    return 2;
  }
  // A daemon that dies mid-call must fail the call, not the benchmark.
  std::signal(SIGPIPE, SIG_IGN);

  Report report;
  report.workload = args.workload;
  report.seed = args.seed;
  report.trace = args.trace;
  SpanRecorder spans;
  if (args.workload == "select") {
    RunSelect(args, spans, &report);
  } else if (args.workload == "churn") {
    RunChurn(args, spans, &report);
  } else if (args.workload == "task_mix") {
    RunTaskMix(args, spans, &report);
  } else if (args.workload == "live") {
    RunLive(args, spans, &report);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }

  if (args.trace) {
    const std::string path = args.out_dir + "/spans-" + args.workload + "-" +
                             std::to_string(args.seed) + ".jsonl";
    report.Check(spans.WriteJsonl(path), "could not write " + path);
  }
  report.Check(report.ops.attempted() > 0, "no operation ran");
  for (const MetricSpec& spec : EndToEndMetrics()) {
    report.Check(report.end_to_end.count(spec.name) > 0,
                 std::string("no value for ") + spec.name);
  }
  report.Print();
  return report.correct() ? 0 : 1;
}
