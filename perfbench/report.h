// What one benchmark run reports, and how it is printed.
//
// A workload fills three sets of named metrics: the end-to-end metrics
// (every workload reports all of them), per-layer metrics (traced run
// only; a layer the workload does not reach reads 0) and extra figures
// that only apply to some workloads. Print() writes them as a readable
// table, then the one-line JSON result as the last line of stdout: the
// end-to-end metrics in an untraced run, the per-layer metrics in a
// traced one.

#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The metric lists BENCHMARK.json declares, in its order.
const std::vector<MetricSpec>& EndToEndMetrics();
const std::vector<MetricSpec>& PerLayerMetrics();

struct Report {
  std::string workload;
  uint64_t seed = 0;
  bool trace = false;

  // Operations of the measured (untraced) phase.
  Tally ops;
  // Correctness checks: each failed check adds one line.
  std::vector<std::string> check_failures;

  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;
  // Workload-specific figures: name -> (value, unit).
  std::vector<std::pair<std::string, std::pair<double, std::string>>> extra;

  void Check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
  void Extra(const std::string& name, double value, const std::string& unit) {
    extra.push_back({name, {value, unit}});
  }
  // A free-form line printed with the workload figures.
  void Note(const char* format, ...) __attribute__((format(printf, 2, 3)));
  std::vector<std::string> notes;
  bool correct() const { return check_failures.empty(); }

  // Prints the table and the JSON line; an absent metric reads 0.
  void Print() const;
};

inline unsigned long long ULL(uint64_t v) { return v; }

// Machine description printed with every run: nproc, CPU model, build
// type and compiler.
std::string MachineInfo();

// Resident set of the calling process now / at its peak, in MB.
double CurrentRssMb();
double PeakRssMb();
// Resident set of process `pid` now, in MB (0 if unreadable).
double ProcessRssMb(int pid);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
