#include "report.h"

#include <sys/resource.h>

#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

namespace perfbench {

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kSpecs = {
      {"setup_s", "s"},         {"ops_per_s", "1/s"},
      {"op_p50_us", "us"},      {"op_p99_us", "us"},
      {"peak_rss_mb", "MB"},    {"server_rss_mb", "MB"},
  };
  return kSpecs;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kSpecs = {
      {"crypto.sha256_64b_ns", "ns"},
      {"crypto.sign_ns", "ns"},
      {"crypto.verify_ns", "ns"},
      {"crypto.coalesced_ratio", "ratio"},
      {"crypto.signs_per_op", "count"},
      {"crypto.verifies_per_op", "count"},
      {"dht.successor_ns", "ns"},
      {"dht.route_us", "us"},
      {"dht.route_hops", "count"},
      {"dht.region_query_us", "us"},
      {"dht.set_alive_ns", "ns"},
      {"core.verify_val_us", "us"},
      {"core.val_codec_us", "us"},
      {"core.cost_crypto_work", "count"},
      {"core.cost_msg_work", "count"},
      {"core.relocations_per_op", "count"},
      {"core.k_mean", "count"},
      {"core.service_kb_per_op", "KB"},
      {"net.msgs_per_op", "count"},
      {"net.bytes_per_op", "B"},
      {"net.sim_call_us", "us"},
      {"net.tcp_call_us", "us"},
      {"net.frame_codec_ns", "ns"},
      {"net.retries_per_op", "count"},
      {"net.rpc_failures", "count"},
      {"node.joins", "count"},
      {"node.joins_rejected", "count"},
      {"node.certs_issued", "count"},
      {"apps.publish_s", "s"},
      {"engine.queue_p99_ms", "ms"},
      {"engine.virtual_p50_ms", "ms"},
      {"sim.build_s", "s"},
      {"sim.ktable_refreshes", "count"},
      {"obs.trace_overhead_pct", "%"},
      {"obs.trace_events_per_op", "count"},
  };
  return kSpecs;
}

namespace {

std::string JsonMetrics(const std::vector<MetricSpec>& specs,
                        const std::map<std::string, double>& values) {
  std::string out = "{";
  for (size_t i = 0; i < specs.size(); ++i) {
    const auto it = values.find(specs[i].name);
    // JSON has no NaN or infinity; a probe that divided by zero reads 0.
    const double value =
        it == values.end() || !std::isfinite(it->second) ? 0.0 : it->second;
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, "
                  "\"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", specs[i].name, value, specs[i].unit);
    out += buf;
  }
  return out + "}";
}

void PrintRows(const char* title, const std::vector<MetricSpec>& specs,
               const std::map<std::string, double>& values) {
  std::printf("%s\n", title);
  for (const MetricSpec& spec : specs) {
    const auto it = values.find(spec.name);
    std::printf("  %-26s %16.6g %s\n", spec.name,
                it == values.end() ? 0.0 : it->second, spec.unit);
  }
}

}  // namespace

void Report::Note(const char* format, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, format);
  std::vsnprintf(buf, sizeof(buf), format, ap);
  va_end(ap);
  notes.push_back(buf);
}

void Report::Print() const {
  std::printf("== perfbench %s (seed %llu, %s) ==\n%s", workload.c_str(),
              static_cast<unsigned long long>(seed),
              trace ? "traced" : "untraced", MachineInfo().c_str());
  PrintRows("end-to-end:", EndToEndMetrics(), end_to_end);
  std::printf("workload figures:\n");
  std::printf("  %-26s %16llu count\n", "attempted",
              static_cast<unsigned long long>(ops.attempted()));
  std::printf("  %-26s %16.6g ratio\n", "failed_ratio", ops.failed_ratio());
  for (const auto& [name, value_unit] : extra) {
    std::printf("  %-26s %16.6g %s\n", name.c_str(), value_unit.first,
                value_unit.second.c_str());
  }
  for (const std::string& note : notes) std::printf("  %s\n", note.c_str());
  if (trace) PrintRows("per-layer (traced run):", PerLayerMetrics(), per_layer);
  for (const std::string& failure : check_failures) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct() ? "true" : "false",
      static_cast<unsigned long long>(ops.attempted()),
      static_cast<unsigned long long>(ops.failed()),
      trace ? JsonMetrics(PerLayerMetrics(), per_layer).c_str()
            : JsonMetrics(EndToEndMetrics(), end_to_end).c_str());
  std::fflush(stdout);
}

std::string MachineInfo() {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) cpu = line.substr(colon + 2);
      break;
    }
  }
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "machine: nproc=%u cpu=\"%s\" build=%s compiler=\"%s\"\n",
                std::thread::hardware_concurrency(), cpu.c_str(),
                PERFBENCH_BUILD_TYPE, __VERSION__);
  return buf;
}

namespace {

double VmRssMb(const std::string& status_path) {
  std::ifstream status(status_path);
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0;
}

}  // namespace

double CurrentRssMb() { return VmRssMb("/proc/self/status"); }

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // kB on Linux
}

double ProcessRssMb(int pid) {
  return VmRssMb("/proc/" + std::to_string(pid) + "/status");
}

}  // namespace perfbench
