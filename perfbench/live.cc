// live: a 3-process loopback cluster. The benchmark process is process 0
// and drives; processes 1 and 2 are `sep2p_cli serve` daemons reached
// over net::TcpTransport. Ed25519, N=400, A=4, cache 128. The loop runs
// AppRuntime::RunSelection + VerifyActorList and times each op. The
// seed is the cluster's world seed and draws the triggers.
//
// Daemon hygiene: ports are chosen free at start and a daemon that lost
// its port to another process restarts the set-up; daemons die with the
// benchmark (PR_SET_PDEATHSIG) and are reaped with SIGTERM, then
// SIGKILL after a timeout, on every exit path. server_rss_mb is read
// after a fixed op count, so a faster program does not read as more
// memory.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/messages.h"
#include "core/protocol_service.h"
#include "net/tcp_transport.h"
#include "node/app_runtime.h"
#include "sim/network.h"
#include "sim/trial_runner.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kSetups = 5;
constexpr int kSetupAttempts = 5;
constexpr uint32_t kProcesses = 3;
constexpr int kMaxSelectionAttempts = 8;
// Daemon RSS is read after kRssEarly and kRssLate ops; the slope between
// the two is core.service_kb_per_op.
constexpr uint64_t kRssEarly = 250;
constexpr uint64_t kRssLate = 1000;
constexpr uint64_t kMinOps = kRssLate;
constexpr auto kStopTimeout = std::chrono::seconds(10);
constexpr auto kReadyTimeout = std::chrono::seconds(30);

sim::Parameters WorldParams(uint64_t seed) {
  sim::Parameters params;
  params.n = 400;
  params.cache_size = 128;
  params.actor_count = 4;
  params.seed = seed;
  params.provider = sim::Parameters::ProviderKind::kEd25519;
  params.threads = 1;
  return params;
}

bool PortFree(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const bool ok =
      ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  ::close(fd);
  return ok;
}

// A base port B with B .. B + kProcesses - 1 free on loopback now. Drawn
// at random so concurrent runs start apart; a port taken between this
// check and the daemon's bind fails that daemon and restarts the set-up.
int PickPortBase() {
  std::random_device entropy;
  std::mt19937 gen(entropy() ^ static_cast<unsigned>(::getpid()));
  std::uniform_int_distribution<int> pick(20000, 60000);
  for (int attempt = 0; attempt < 200; ++attempt) {
    const int base = pick(gen);
    bool free = true;
    for (uint32_t p = 0; p < kProcesses && free; ++p) free = PortFree(base + p);
    if (free) return base;
  }
  return 0;
}

bool FileContains(const std::string& path, const std::string& needle) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str().find(needle) != std::string::npos;
}

// The serve daemons of one cluster (processes 1 .. kProcesses - 1).
class Daemons {
 public:
  Daemons() = default;
  ~Daemons() { Stop(); }
  Daemons(const Daemons&) = delete;
  Daemons& operator=(const Daemons&) = delete;

  // Forks and execs one `serve` per daemon process; output goes to
  // `log_prefix`-<index>.log. False if a fork failed.
  bool Spawn(uint64_t seed, int port_base, const std::string& log_prefix) {
    const pid_t parent = ::getpid();
    for (uint32_t index = 1; index < kProcesses; ++index) {
      const std::string log = log_prefix + "-" + std::to_string(index) + ".log";
      std::vector<std::string> args = {
          PERFBENCH_SERVE_BIN, "serve",
          "--cluster-index",   std::to_string(index),
          "--cluster-size",    std::to_string(kProcesses),
          "--port-base",       std::to_string(port_base),
          "--n",               "400",
          "--cache",           "128",
          "--a",               "4",
          "--seed",            std::to_string(seed),
          "--ed25519"};
      std::vector<char*> argv;
      for (std::string& arg : args) argv.push_back(arg.data());
      argv.push_back(nullptr);
      const pid_t pid = ::fork();
      if (pid < 0) return false;
      if (pid == 0) {
        // Only async-signal-safe calls until exec.
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (::getppid() != parent) ::_exit(127);
        const int out = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
        const int in = ::open("/dev/null", O_RDONLY);
        if (out < 0 || in < 0) ::_exit(127);
        ::dup2(in, STDIN_FILENO);
        ::dup2(out, STDOUT_FILENO);
        ::dup2(out, STDERR_FILENO);
        ::execv(argv[0], argv.data());
        ::_exit(127);
      }
      children_.push_back(Child{pid, log, false, 0});
    }
    return true;
  }

  // Waits until every daemon reports all peers reachable. False if one
  // exited or the timeout passed.
  bool WaitReady() {
    const auto deadline = Clock::now() + kReadyTimeout;
    for (Child& child : children_) {
      while (!FileContains(child.log, "peers reachable")) {
        if (Reaped(child) || Clock::now() > deadline) return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
    return true;
  }

  std::vector<pid_t> pids() const {
    std::vector<pid_t> out;
    for (const Child& child : children_) out.push_back(child.pid);
    return out;
  }

  // SIGTERM, then SIGKILL after kStopTimeout. True iff every daemon
  // exited with status 0 on SIGTERM. Logs of clean exits are removed.
  bool Stop() {
    for (Child& child : children_) {
      if (!child.reaped) ::kill(child.pid, SIGTERM);
    }
    const auto deadline = Clock::now() + kStopTimeout;
    bool clean = true;
    for (Child& child : children_) {
      while (!Reaped(child) && Clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      if (!child.reaped) {
        ::kill(child.pid, SIGKILL);
        ::waitpid(child.pid, &child.status, 0);
        child.reaped = true;
        clean = false;
      }
      if (WIFEXITED(child.status) && WEXITSTATUS(child.status) == 0) {
        std::remove(child.log.c_str());
      } else {
        clean = false;
      }
    }
    children_.clear();
    return clean;
  }

 private:
  struct Child {
    pid_t pid;
    std::string log;
    bool reaped;
    int status;
  };

  static bool Reaped(Child& child) {
    if (!child.reaped && ::waitpid(child.pid, &child.status, WNOHANG) > 0) {
      child.reaped = true;
    }
    return child.reaped;
  }

  std::vector<Child> children_;
};

// Process 0 of the cluster plus the daemons it drives.
struct Cluster {
  Cluster() = default;
  ~Cluster() {
    // Stop dispatch before the service the handlers point into goes.
    if (transport != nullptr) transport->Stop();
  }
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  std::unique_ptr<sim::Network> world;
  core::ProtocolContext ctx;
  std::unique_ptr<net::TcpTransport> transport;
  std::unique_ptr<core::ProtocolService> service;
  std::unique_ptr<node::AppRuntime> runtime;
  Daemons daemons;
};

// Starts a cluster: daemons first, so their world builds overlap ours.
Result<std::unique_ptr<Cluster>> StartCluster(const Args& args,
                                              const std::string& log_prefix) {
  const sim::Parameters params = WorldParams(args.seed);
  for (int attempt = 0; attempt < kSetupAttempts; ++attempt) {
    const int base = PickPortBase();
    if (base == 0) return Status::Unavailable("no free loopback ports");
    auto cluster = std::make_unique<Cluster>();
    if (!cluster->daemons.Spawn(args.seed, base, log_prefix)) {
      return Status::Internal("fork failed");
    }
    auto built = sim::Network::Build(params);
    if (!built.ok()) return built.status();
    cluster->world = std::move(built.value());
    cluster->ctx = cluster->world->context();

    net::TcpTransport::Options options;
    options.node_count =
        static_cast<uint32_t>(cluster->world->directory().size());
    options.process_count = kProcesses;
    options.process_index = 0;
    options.listen_port = static_cast<uint16_t>(base);
    options.seed = args.seed ^ 0x7c1ULL;
    cluster->transport = std::make_unique<net::TcpTransport>(options);
    for (uint32_t p = 1; p < kProcesses; ++p) {
      cluster->transport->SetPeer(p, "127.0.0.1",
                                  static_cast<uint16_t>(base + p));
    }
    core::ProtocolService::Options service_options;
    service_options.rng_seed = args.seed ^ 0x5e21ULL;
    cluster->service = std::make_unique<core::ProtocolService>(
        cluster->ctx, *cluster->transport, service_options);
    cluster->runtime =
        std::make_unique<node::AppRuntime>(cluster->transport.get());
    // A daemon that reports every peer reachable holds its own port, so
    // the driver's connections cannot reach another process.
    if (cluster->transport->Start().ok() && cluster->daemons.WaitReady() &&
        cluster->transport->WaitForPeers(30000).ok()) {
      return cluster;
    }
  }
  return Status::Unavailable("cluster did not come up");
}

}  // namespace

void RunLive(const Args& args, SpanRecorder& spans, Report* report) {
  if (args.seed >= (uint64_t{1} << 53)) {
    // The daemons parse --seed as a double.
    report->Check(false, "live needs a seed below 2^53");
    return;
  }
  const std::string log_prefix =
      args.out_dir + "/live-" + std::to_string(::getpid());
  std::vector<double> setup_s;
  std::unique_ptr<Cluster> cluster;
  for (int i = 0; i < kSetups; ++i) {
    if (cluster != nullptr) {
      cluster->transport->Stop();
      report->Check(cluster->daemons.Stop(), "a daemon did not exit cleanly");
      cluster.reset();
    }
    const Clock::time_point start = Clock::now();
    auto started = StartCluster(args, log_prefix + "-" + std::to_string(i));
    setup_s.push_back(SecondsSince(start));
    if (!started.ok()) {
      report->Check(false, "cluster set-up: " + started.status().ToString());
      return;
    }
    cluster = std::move(started.value());
  }

  net::TcpTransport& transport = *cluster->transport;
  const core::ProtocolContext& ctx = cluster->ctx;
  crypto::CryptoMeter& meter = cluster->world->provider().meter();
  const uint32_t n = static_cast<uint32_t>(cluster->world->directory().size());
  const uint64_t trigger_seed = sim::MixSeed(args.seed, 0x6c697665ULL);
  const net::Transport::Stats net0 = transport.stats();
  const uint64_t signs0 = meter.signs();
  const uint64_t verifies0 = meter.verifies();

  std::vector<double> latency_us;
  uint64_t failures = 0;
  std::vector<double> rss_early;
  std::vector<double> rss_late;
  net::Transport::Stats net_late;
  uint64_t signs = 0;
  uint64_t verifies = 0;
  double cost_crypto_work = 0;
  double cost_msg_work = 0;
  double relocations = 0;
  double k_sum = 0;
  core::VerifiableActorList last_val;
  auto op = [&](uint64_t i) {
    util::Rng rng(sim::StreamSeed(trigger_seed, i));
    const uint32_t trigger = static_cast<uint32_t>(rng.NextUint64(n));
    ScopedSpan op_span(spans, "op");
    const Clock::time_point start = Clock::now();
    int restarts = 0;
    auto run = [&] {
      ScopedSpan span(spans, "node.AppRuntime::RunSelection");
      return cluster->runtime->RunSelection(ctx, trigger, rng,
                                            kMaxSelectionAttempts, &restarts);
    }();
    bool ok = false;
    if (run.ok()) {
      ScopedSpan span(spans, "core.VerifyActorList");
      ok = core::VerifyActorList(ctx, run->val).ok();
    }
    const double us = SecondsSince(start) * 1e6;
    if (!ok) ++failures;
    if (!spans.enabled()) {
      report->ops.Record(ok);
      if (ok) latency_us.push_back(us);
    }
    if (run.ok() && i < kRssLate) {
      cost_crypto_work += run->cost.crypto_work;
      cost_msg_work += run->cost.msg_work;
      relocations += run->relocations;
      k_sum += run->val.k();
      last_val = run->val;
    }
    if (i + 1 == kRssEarly || i + 1 == kRssLate) {
      std::vector<double>& rss = i + 1 == kRssEarly ? rss_early : rss_late;
      for (pid_t pid : cluster->daemons.pids()) {
        rss.push_back(ProcessRssMb(pid));
      }
    }
    if (i + 1 == kRssLate) {
      net_late = transport.stats();
      signs = meter.signs() - signs0;
      verifies = meter.verifies() - verifies0;
    }
  };
  const Phase phase = RunPhases(args, kMinOps, spans, report, op);

  double server_rss_mb = 0;
  double service_kb_per_op = 0;
  for (size_t d = 0; d < rss_late.size(); ++d) {
    server_rss_mb = std::max(server_rss_mb, rss_late[d]);
    service_kb_per_op =
        std::max(service_kb_per_op, (rss_late[d] - rss_early[d]) * 1024.0 /
                                        (kRssLate - kRssEarly));
  }

  if (args.trace) {
    auto& layer = report->per_layer;
    const double ops = kRssLate;
    layer["crypto.signs_per_op"] = signs / ops;
    layer["crypto.verifies_per_op"] = verifies / ops;
    layer["core.cost_crypto_work"] = cost_crypto_work / ops;
    layer["core.cost_msg_work"] = cost_msg_work / ops;
    layer["core.relocations_per_op"] = relocations / ops;
    layer["core.k_mean"] = k_sum / ops;
    layer["core.service_kb_per_op"] = service_kb_per_op;
    layer["net.msgs_per_op"] = (net_late.messages_sent - net0.messages_sent) / ops;
    layer["net.bytes_per_op"] = (net_late.bytes_sent - net0.bytes_sent) / ops;
    layer["net.retries_per_op"] = (net_late.retries - net0.retries) / ops;
    layer["net.rpc_failures"] = net_late.rpc_failures - net0.rpc_failures;
    // A request the daemons answer without signing: the vrand invite a
    // trusted-list member commits to.
    core::msg::VrandInvite invite;
    invite.rs1 = 0.01;
    invite.timestamp = ctx.now;
    layer["net.tcp_call_us"] =
        TimePerCallNs([&] {
          invite.nonce = transport.NewEngagementNonce();
          transport.Call(/*client=*/0, /*server=*/1, core::msg::Encode(invite));
        }) /
        1e3;
    ProbeCommonLayers(*cluster->world, report);
    ProbeValLayers(ctx, last_val, report);
  }

  cluster->transport->Stop();
  report->Check(cluster->daemons.Stop(), "a daemon did not exit cleanly");
  report->Check(failures == 0, "a live selection or VAL check failed");

  auto& e2e = report->end_to_end;
  e2e["setup_s"] = Median(setup_s);
  e2e["ops_per_s"] = phase.rate();
  e2e["op_p50_us"] = Percentile(latency_us, 50);
  e2e["op_p99_us"] = Percentile(latency_us, 99);
  e2e["peak_rss_mb"] = PeakRssMb();
  e2e["server_rss_mb"] = server_rss_mb;
  report->Extra("tail_percentile", TailPercentile(latency_us.size()), "%");
  report->Extra("service_kb_per_op", service_kb_per_op, "KB");
}

}  // namespace perfbench
