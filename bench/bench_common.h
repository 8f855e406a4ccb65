// Shared plumbing for the per-figure benchmark binaries.

#ifndef SEP2P_BENCH_BENCH_COMMON_H_
#define SEP2P_BENCH_BENCH_COMMON_H_

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <system_error>
#include <vector>

#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/experiment.h"
#include "sim/metrics.h"
#include "sim/parameters.h"

namespace sep2p::bench {

// Every flag name the harness has looked up so far, mapped to whether
// it takes a value; RejectUnknownFlags checks argv against it.
inline std::map<std::string, bool>& ReadFlags() {
  static std::map<std::string, bool> names;
  return names;
}

// --quick shrinks sweeps so a full `for b in build/bench/*` run stays
// fast; the defaults reproduce the paper-scale series.
inline bool QuickMode(int argc, char** argv) {
  ReadFlags()["--quick"] = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) return true;
  }
  return false;
}

// The file a harness writes its results to: BENCH_<name>.json, or
// BENCH_<name>.quick.json under --quick, so a smoke run never rewrites
// the checked-in full-run results.
inline std::string BenchJsonPath(const char* name, bool quick) {
  return std::string("BENCH_") + name + (quick ? ".quick.json" : ".json");
}

// The value of flag NAME=V / NAME V (the first one given): nullptr when
// the flag is absent, "" when it comes last with no value.
inline const char* FlagValue(int argc, char** argv, const char* name) {
  ReadFlags()[name] = true;
  const size_t name_len = std::strlen(name);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], name, name_len) != 0) continue;
    if (argv[i][name_len] == '=') return argv[i] + name_len + 1;
    if (argv[i][name_len] == '\0') return i + 1 < argc ? argv[i + 1] : "";
  }
  return nullptr;
}

// The value of the integer flag NAME=V / NAME V (the first one given),
// or `fallback` when it is absent. A value that is missing, not a whole
// number or negative is reported on stderr and exits 2, as sep2p_cli
// does for bad flags.
inline int NonNegativeIntArg(int argc, char** argv, const char* name,
                             int fallback) {
  const char* value = FlagValue(argc, argv, name);
  if (value == nullptr) return fallback;
  const char* end = value + std::strlen(value);
  int parsed = 0;
  auto [ptr, ec] = std::from_chars(value, end, parsed);
  if (ec != std::errc() || ptr != end || parsed < 0) {
    std::fprintf(stderr, "%s: expected a non-negative integer, got '%s'\n",
                 name, value);
    std::exit(2);
  }
  return parsed;
}

// The file named by NAME=FILE / NAME FILE (the first one given), or ""
// when the flag is absent. A missing or empty name is reported on
// stderr and exits 2, so an output the caller asked for is never
// silently skipped.
inline std::string PathArg(int argc, char** argv, const char* name) {
  const char* value = FlagValue(argc, argv, name);
  if (value == nullptr) return "";
  if (*value == '\0') {
    std::fprintf(stderr, "%s: missing file name\n", name);
    std::exit(2);
  }
  return value;
}

// Exits 2 naming the first argument that is not a flag the harness has
// read (with its value, for a flag that takes one), as sep2p_cli does
// for unknown flags: a misspelled --metrics or --trace-trials must not
// run the harness without the output it asked for. Call it once every
// flag has been read.
inline void RejectUnknownFlags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const char* eq = std::strchr(argv[i], '=');
    const std::string name =
        eq != nullptr ? std::string(argv[i], eq - argv[i]) : argv[i];
    auto it = ReadFlags().find(name);
    if (it == ReadFlags().end() || (eq != nullptr && !it->second)) {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      std::exit(2);
    }
    if (it->second && eq == nullptr) ++i;  // NAME VALUE: skip the value
  }
}

// --threads=N / --threads N caps the worker count for network build and
// trial execution; 0 (the default) means one per hardware thread.
// Results are bit-identical for every value — only wall-clock changes.
inline int ThreadsArg(int argc, char** argv) {
  return NonNegativeIntArg(argc, argv, "--threads", 0);
}

// --trace=FILE / --trace FILE: record the first --trace-trials trials
// of the harness's first sweep point. Trial 0 writes FILE (Chrome
// trace-event JSON) plus FILE.jsonl; trial N writes FILE.trialN.jsonl
// (deterministic names, so `sep2p_cli report <dir>` aggregates a
// sweep's traces without a manifest).
inline std::string TraceArg(int argc, char** argv) {
  return PathArg(argc, argv, "--trace");
}

// --trace-trials=N / --trace-trials N caps how many trials --trace
// records (default 1, the historical single representative trial).
inline int TraceTrialsArg(int argc, char** argv) {
  return NonNegativeIntArg(argc, argv, "--trace-trials", 1);
}

// --metrics=FILE / --metrics FILE: write the sweep's merged
// obs::MetricsRegistry snapshot as Prometheus text to FILE and JSON to
// FILE.json.
inline std::string MetricsArg(int argc, char** argv) {
  return PathArg(argc, argv, "--metrics");
}

// One bundle per bench main: owns the recorders + registry and binds
// them into a sim::SweepObservers. Pass Observers::get() (nullptr when
// neither flag is set — sweeps skip all observer work) to the harness,
// then Write() after it returns.
struct Observers {
  std::string trace_path;
  std::string metrics_path;
  std::vector<obs::TraceRecorder> recorders;
  obs::MetricsRegistry metrics;
  sim::SweepObservers sweep;

  Observers(int argc, char** argv)
      : trace_path(TraceArg(argc, argv)),
        metrics_path(MetricsArg(argc, argv)) {
    sweep.trace_trials = TraceTrialsArg(argc, argv);
    if (!trace_path.empty()) sweep.recorders = &recorders;
    if (!metrics_path.empty()) sweep.metrics = &metrics;
  }

  const sim::SweepObservers* get() const {
    return trace_path.empty() && metrics_path.empty() ? nullptr : &sweep;
  }

  // Writes every recorded trace and the metrics snapshot; returns false
  // (after printing to stderr) on any I/O failure.
  bool Write() const {
    for (size_t t = 0; t < recorders.size(); ++t) {
      const obs::Trace& trace = recorders[t].trace();
      const std::string trial_path =
          trace_path + ".trial" + std::to_string(t) + ".jsonl";
      Status st = t == 0 ? obs::WriteTraceFiles(trace_path, trace)
                         : obs::WriteFile(trial_path, obs::ToJsonl(trace));
      if (!st.ok()) {
        std::fprintf(stderr, "trace write failed: %s\n",
                     st.ToString().c_str());
        return false;
      }
    }
    if (!recorders.empty()) {
      std::printf("\ntrace: %zu trial(s) -> %s (+ .jsonl%s)\n",
                  recorders.size(), trace_path.c_str(),
                  recorders.size() > 1 ? ", .trialN.jsonl" : "");
    }
    if (!metrics_path.empty()) {
      Status st = obs::WriteMetricsFiles(metrics_path, metrics);
      if (!st.ok()) {
        std::fprintf(stderr, "metrics write failed: %s\n",
                     st.ToString().c_str());
        return false;
      }
      std::printf("metrics: %s (Prometheus text) + %s.json\n",
                  metrics_path.c_str(), metrics_path.c_str());
    }
    return true;
  }
};

inline void PrintHeader(const char* figure, const char* claim,
                        const sim::Parameters& params) {
  std::printf("==============================================================\n");
  std::printf("%s\n", figure);
  std::printf("paper claim: %s\n", claim);
  std::printf("defaults: %s\n", params.ToString().c_str());
  std::printf("==============================================================\n\n");
}

inline std::string Num(double v, int precision = 3) {
  return sim::TablePrinter::Num(v, precision);
}

}  // namespace sep2p::bench

#endif  // SEP2P_BENCH_BENCH_COMMON_H_
