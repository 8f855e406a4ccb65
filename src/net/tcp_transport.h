// TcpTransport: net::Transport over real TCP sockets between OS
// processes.
//
// Deployment model: P processes jointly host N logical nodes; node i
// lives in process (i % P). Every process replicates the deterministic
// world (sim::Network::Build is a pure function of the parameter seed:
// keys, certificates, directory, CA), registers the same protocol
// handlers, and only MESSAGES cross sockets — the same honest-execution
// assumption the simulator's in-process closures encode. A request for
// a locally-hosted node short-circuits through the registered dispatch
// table without touching a socket, with the same accounting as a remote
// one (request and reply are each one send and one deliver, as on
// SimNetwork), so a 1-process cluster degenerates to a slower
// SimNetwork-like run and a P-process cluster exchanges exactly the
// inter-host traffic.
//
// Wire: length-prefixed frames (net/frame.h) carrying core/messages.h
// payloads. Connections: one lazily-opened outgoing connection per peer
// process (requests multiplexed by rpc id, a reader thread demuxes
// responses) plus one service thread per accepted connection (requests
// dispatched through Transport::Dispatch, responses written back on the
// same connection). Reconnect: an outgoing connection that dies is
// re-established on the next attempt; in-flight calls on it time out
// and retry per RetryPolicy (wall-clock here, virtual in sim).
// Transport::Call runs the retry loop; this class supplies one attempt
// (local dispatch, or one request frame and its response) and the
// backoff sleep.
//
// Threading: Call and CallBatch are driver-side and may be used from one
// driver thread; service threads run concurrently with it. ONE mutex
// (mu_) serializes every dispatch, registration, stats update and obs
// emission, and the base class takes it as its obs lock — TraceRecorder
// and MetricsRegistry are single-threaded by contract, so correctness
// beats parallel handler execution here. Handlers neither call nor
// register, so a thread that holds mu_ never asks for it again.
//
// Shutdown: RequestStop() (safe from a SIGTERM handler via the flag it
// sets) makes the accept loop exit; Stop() closes the listener, drains
// in-flight service work, joins every thread and closes all sockets.
//
// Observability: with a TraceRecorder attached, every frame carries the
// caller's open span id and an HLC stamp (version-2 frames, net/frame.h)
// and the recorder stamps every event with a strictly-increasing HLC —
// the per-process trace shards a cluster run writes merge into ONE
// causally-consistent trace (obs/cluster.h) the checker audits whole.
// t_us is wall-clock unix microseconds here (TraceMeta::clock = kWall).
// Independently of tracing, the listen port doubles as a status plane:
// a control frame (type 3) is answered with BuildStatusText() — process
// gauges + Prometheus metrics — which ScrapeStatus() fetches remotely.

#ifndef SEP2P_NET_TCP_TRANSPORT_H_
#define SEP2P_NET_TCP_TRANSPORT_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/frame.h"
#include "net/transport.h"
#include "util/status.h"

namespace sep2p::net {

class TcpTransport : public Transport {
 public:
  struct Options {
    uint32_t node_count = 0;
    uint32_t process_count = 1;
    uint32_t process_index = 0;
    // 0 = ephemeral: the OS picks; read it back via listen_port().
    uint16_t listen_port = 0;
    std::string listen_host = "127.0.0.1";
    RetryPolicy retry;
    // Seeds the backoff-jitter Rng (wall-clock runs need no global
    // determinism, but jitter should still differ across processes).
    uint64_t seed = 1;
  };

  explicit TcpTransport(const Options& options);
  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  // Binds + listens and starts the accept thread. Call before any RPC.
  Status Start();

  // Requests shutdown without blocking (async-signal-safe: only sets an
  // atomic flag the accept/service loops poll).
  void RequestStop() { stopping_.store(true, std::memory_order_relaxed); }

  // True once RequestStop/Stop ran — the daemon's idle loop polls this.
  bool stop_requested() const {
    return stopping_.load(std::memory_order_relaxed);
  }

  // Full graceful drain: stops accepting, waits for in-flight service
  // work, joins all threads, closes every socket. Idempotent.
  void Stop();

  uint16_t listen_port() const { return listen_port_; }

  // The live status document a control frame is answered with: process
  // gauges (obs/status.h) followed by the MetricsRegistry Prometheus
  // text when one is attached. Safe from any thread.
  std::string BuildStatusText();

  // Declares where peer process `process` listens. All peers must be
  // set before the first cross-process call to them.
  void SetPeer(uint32_t process, const std::string& host, uint16_t port);

  // Retries connecting to every peer process until all accept or the
  // timeout lapses — a startup barrier, so the first protocol RPC does
  // not burn its retry budget on peers that have not bound yet.
  Status WaitForPeers(uint64_t timeout_ms);

  uint32_t ProcessOf(uint32_t node) const { return node % process_count_; }
  uint32_t process_index() const { return process_index_; }

  // ---- Transport interface ----
  bool remote_dispatch() const override { return true; }
  uint64_t NewEngagementNonce() override {
    // Nonzero and unique across the cluster: high bits brand the
    // issuing process, low bits count.
    return ((static_cast<uint64_t>(process_index_) + 1) << 48) |
           (next_nonce_.fetch_add(1, std::memory_order_relaxed) + 1);
  }
  uint64_t now_us() const override;
  void set_trace(obs::TraceRecorder* trace) override;
  void FinalizeTrace() override;

 protected:
  // One attempt: a locally-hosted server answers through the dispatch
  // table, any other through AttemptRemote. Ignores `handler`: the
  // server process answers from its registered table.
  std::optional<std::vector<uint8_t>> Attempt(
      uint32_t client, uint32_t server, uint64_t rpc,
      const std::vector<uint8_t>& request, const Handler& handler) override;
  void Wait(uint64_t us) override;
  // Refreshes now_cache_, the clock the recorder is bound to.
  uint64_t EventTime() override;

 private:
  struct PendingReply {
    bool done = false;
    uint8_t status = kFrameRefused;
    uint64_t span = 0;  // correlation fields echoed by the response
    uint64_t hlc = 0;   // frame; the DRIVER thread turns them into the
                        // deliver event (the reader only copies them)
    std::vector<uint8_t> payload;
  };
  // One outgoing connection to a peer process: the caller writes
  // requests under write_mu; a dedicated reader thread demuxes
  // responses into pending_ by rpc id.
  struct PeerConn {
    std::string host;
    uint16_t port = 0;
    int fd = -1;
    bool up = false;
    bool ever_up = false;  // a later connect is a reconnect (gauge)
    std::mutex write_mu;
    std::thread reader;
  };

  // Returns the connected fd for peer `process` (reconnecting if the
  // previous connection died), or -1.
  int EnsureConn(uint32_t process);
  void ReaderLoop(uint32_t process, int fd);
  void AcceptLoop();
  void ServiceLoop(int fd);
  void CloseConnLocked(PeerConn& conn);

  // One attempt of a remote call: stamp + write the request frame, wait
  // for the response until the timeout. Returns the reply payload, or
  // nullopt on timeout or refusal.
  std::optional<std::vector<uint8_t>> AttemptRemote(uint32_t process,
                                                    Frame& request);

  uint32_t node_count_;
  uint32_t process_count_;
  uint32_t process_index_;
  std::string listen_host_;
  uint16_t listen_port_;
  int listen_fd_ = -1;
  std::atomic<bool> stopping_{false};
  bool started_ = false;

  std::vector<std::unique_ptr<PeerConn>> peers_;
  std::mutex conn_mu_;  // guards PeerConn fd/up/host/port + reconnects

  std::thread accept_thread_;
  std::vector<std::thread> service_threads_;
  std::mutex service_mu_;  // guards service_threads_

  std::mutex wait_mu_;
  std::condition_variable wait_cv_;
  std::map<uint64_t, PendingReply> pending_;

  // Serializes dispatch + registration + stats + trace/metrics (single-
  // threaded obs contract); the base class's obs lock. Never held while
  // blocking on a socket.
  std::mutex mu_;
  uint64_t now_cache_ = 0;  // wall clock mirror for BindClock

  std::atomic<uint64_t> next_nonce_{0};
  // Status-plane gauges (lock-free: scraped from service threads).
  std::atomic<uint64_t> reconnects_{0};
  std::atomic<int64_t> service_conns_{0};
  std::chrono::steady_clock::time_point epoch_;  // uptime gauge base
};

// Fetches the status document of the daemon listening at host:port by
// sending one control frame over a throwaway connection. `timeout_ms`
// bounds the whole exchange.
Result<std::string> ScrapeStatus(const std::string& host, uint16_t port,
                                 uint64_t timeout_ms);

}  // namespace sep2p::net

#endif  // SEP2P_NET_TCP_TRANSPORT_H_
