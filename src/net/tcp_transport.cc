#include "net/tcp_transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "obs/status.h"

namespace sep2p::net {

namespace {

// Writes the whole buffer, absorbing partial writes and EINTR. Returns
// false when the connection is gone.
bool WriteAll(int fd, const uint8_t* data, size_t len) {
  size_t off = 0;
  while (off < len) {
    const ssize_t n = ::send(fd, data + off, len - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

int ConnectTo(const std::string& host, uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return -1;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

}  // namespace

TcpTransport::TcpTransport(const Options& options)
    // Brand rpc ids with the issuing process (same scheme as engagement
    // nonces) so merged cluster traces never see two processes reuse one
    // id.
    : Transport(options.seed,
                (static_cast<uint64_t>(options.process_index) + 1) << 48),
      node_count_(options.node_count),
      process_count_(options.process_count == 0 ? 1 : options.process_count),
      process_index_(options.process_index),
      listen_host_(options.listen_host),
      listen_port_(options.listen_port),
      epoch_(std::chrono::steady_clock::now()) {
  retry_ = options.retry;
  obs_mu_ = &mu_;
  peers_.reserve(process_count_);
  for (uint32_t p = 0; p < process_count_; ++p) {
    peers_.push_back(std::make_unique<PeerConn>());
  }
}

TcpTransport::~TcpTransport() { Stop(); }

uint64_t TcpTransport::now_us() const {
  // Unix microseconds, not a per-process steady offset: every process
  // of a cluster run stamps the SAME wall domain, so merged trace
  // shards share one time axis (skew between hosts is tolerated — the
  // merge orders by HLC, not t_us). The steady epoch_ stays for the
  // uptime gauge, which must not jump with clock adjustments.
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

void TcpTransport::set_trace(obs::TraceRecorder* trace) {
  trace_ = trace;
  if (trace_ != nullptr) {
    // The recorder samples a bound clock pointer; a wall transport has
    // no single "current virtual time", so bind a cache refreshed under
    // mu_ right before every emission.
    // Prime the cache: spans opened by protocol code before the first
    // RPC read it directly, and a zero there would put those events
    // 56 years before the rest of the wall-clock trace.
    now_cache_ = now_us();
    trace_->BindClock(&now_cache_);
    trace_->meta().node_count = node_count_;
    trace_->meta().max_attempts = retry_.max_attempts;
    trace_->meta().clock = obs::ClockDomain::kWall;
    trace_->meta().process = process_index_;
    trace_->meta().process_count = process_count_;
    trace_->EnableHlc();
    // Span ids count up from a per-process base so shards never collide
    // when merged (obs/cluster.h).
    trace_->set_span_base((static_cast<uint64_t>(process_index_) + 1) << 48);
  }
}

uint64_t TcpTransport::EventTime() {
  now_cache_ = now_us();
  return now_cache_;
}

void TcpTransport::FinalizeTrace() {
  std::lock_guard<std::mutex> lock(mu_);
  if (trace_ == nullptr) return;
  now_cache_ = now_us();
  // This shard's residual: sends it recorded that it never saw land
  // (timed-out RPCs whose replies were late or lost). Server shards
  // deliver more than they send and report 0; the cluster merge drops
  // every per-shard mark and re-synthesizes the cluster-wide residual.
  const std::vector<obs::Event>& events = trace_->trace().events;
  auto count = [&events](obs::EventKind kind) {
    return std::count_if(events.begin(), events.end(),
                         [kind](const obs::Event& e) { return e.kind == kind; });
  };
  const auto sends = count(obs::EventKind::kSend);
  const auto delivers = count(obs::EventKind::kDeliver);
  trace_->Mark(obs::kNoNode, "shutdown",
               sends > delivers ? static_cast<uint64_t>(sends - delivers) : 0);
}

Status TcpTransport::Start() {
  if (started_) return Status::Ok();
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Status::Internal("tcp: socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(listen_port_);
  if (::inet_pton(AF_INET, listen_host_.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("tcp: bad listen host");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal("tcp: bind() failed");
  }
  if (::listen(listen_fd_, 64) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal("tcp: listen() failed");
  }
  // Ephemeral port: read back what the OS picked.
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) ==
      0) {
    listen_port_ = ntohs(addr.sin_port);
  }
  started_ = true;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

void TcpTransport::Stop() {
  stopping_.store(true, std::memory_order_relaxed);
  // Closing an fd another thread is blocked on is a race (the number
  // could be reused under it) — so every fd is shutdown() first, which
  // only wakes the blocked call, and close()d after the owning thread
  // has been joined.
  if (accept_thread_.joinable()) {
    if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
    accept_thread_.join();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (auto& peer : peers_) CloseConnLocked(*peer);  // shutdown + mark down
  }
  for (auto& peer : peers_) {
    if (peer->reader.joinable()) peer->reader.join();
  }
  {
    // Reader-less leftovers (a reader closes its own fd on exit).
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (auto& peer : peers_) {
      if (peer->fd >= 0) {
        ::close(peer->fd);
        peer->fd = -1;
      }
    }
  }
  std::vector<std::thread> workers;
  {
    std::lock_guard<std::mutex> lock(service_mu_);
    workers.swap(service_threads_);
  }
  for (std::thread& t : workers) {
    if (t.joinable()) t.join();
  }
  started_ = false;
}

void TcpTransport::SetPeer(uint32_t process, const std::string& host,
                           uint16_t port) {
  std::lock_guard<std::mutex> lock(conn_mu_);
  peers_[process]->host = host;
  peers_[process]->port = port;
}

Status TcpTransport::WaitForPeers(uint64_t timeout_ms) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  for (uint32_t p = 0; p < process_count_; ++p) {
    if (p == process_index_) continue;
    while (EnsureConn(p) < 0) {
      if (std::chrono::steady_clock::now() >= deadline) {
        return Status::Unavailable("tcp: peer never came up");
      }
      if (stopping_.load(std::memory_order_relaxed)) {
        return Status::Unavailable("tcp: stopping");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  return Status::Ok();
}

void TcpTransport::CloseConnLocked(PeerConn& conn) {
  // Marks the connection dead and wakes its reader; the close() itself
  // belongs to the reader thread (it may be blocked in recv on this fd
  // — closing here would race, ReaderLoop's exit path does it instead).
  if (conn.fd >= 0) ::shutdown(conn.fd, SHUT_RDWR);
  conn.up = false;
}

int TcpTransport::EnsureConn(uint32_t process) {
  std::unique_lock<std::mutex> lock(conn_mu_);
  PeerConn& conn = *peers_[process];
  if (conn.up) return conn.fd;
  if (conn.port == 0) return -1;  // peer address not declared yet
  // A dead reader thread from the previous connection must be joined
  // before its slot is reused.
  if (conn.reader.joinable()) {
    std::thread dead;
    dead.swap(conn.reader);
    lock.unlock();
    dead.join();
    lock.lock();
    if (conn.up) return conn.fd;  // raced with another reconnect
  }
  const int fd = ConnectTo(conn.host, conn.port);
  if (fd < 0) return -1;
  if (conn.ever_up) reconnects_.fetch_add(1, std::memory_order_relaxed);
  conn.ever_up = true;
  conn.fd = fd;
  conn.up = true;
  conn.reader = std::thread([this, process, fd] { ReaderLoop(process, fd); });
  return fd;
}

void TcpTransport::ReaderLoop(uint32_t process, int fd) {
  FrameParser parser;
  uint8_t buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // closed or error: pending calls will time out
    std::vector<Frame> frames;
    if (!parser.Feed(buf, static_cast<size_t>(n), &frames).ok()) break;
    std::lock_guard<std::mutex> lock(wait_mu_);
    for (Frame& f : frames) {
      if (f.type != kFrameResponse) continue;  // protocol violation
      auto it = pending_.find(f.rpc_id);
      if (it == pending_.end()) {
        // Reply to an attempt the caller already abandoned.
        std::lock_guard<std::mutex> slock(mu_);
        ++stats_.late_replies;
        if (metrics_ != nullptr) {
          metrics_->Inc(obs::Counter::kLateReplies);
        }
        continue;
      }
      it->second.done = true;
      it->second.status = f.status;
      it->second.span = f.span;
      it->second.hlc = f.hlc;
      it->second.payload = std::move(f.payload);
    }
    wait_cv_.notify_all();
  }
  std::lock_guard<std::mutex> lock(conn_mu_);
  PeerConn& conn = *peers_[process];
  if (conn.fd == fd) {
    ::close(conn.fd);
    conn.fd = -1;
    conn.up = false;
  }
}

void TcpTransport::AcceptLoop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int r = ::poll(&pfd, 1, 200);
    if (r < 0 && errno != EINTR) break;
    if (r <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener closed by Stop()
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    std::lock_guard<std::mutex> lock(service_mu_);
    service_threads_.emplace_back([this, fd] { ServiceLoop(fd); });
  }
}

void TcpTransport::ServiceLoop(int fd) {
  service_conns_.fetch_add(1, std::memory_order_relaxed);
  FrameParser parser;
  uint8_t buf[4096];
  for (;;) {
    pollfd pfd{fd, POLLIN, 0};
    const int r = ::poll(&pfd, 1, 200);
    if (r < 0 && errno != EINTR) break;
    if (r == 0) {
      if (stopping_.load(std::memory_order_relaxed)) break;
      continue;
    }
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    std::vector<Frame> frames;
    if (!parser.Feed(buf, static_cast<size_t>(n), &frames).ok()) {
      break;  // malformed stream: drop the connection
    }
    bool write_failed = false;
    for (Frame& f : frames) {
      if (f.type == kFrameControl) {
        // Status plane: answered outside mu_ and outside stats/traces —
        // a scrape must never perturb what it observes.
        Frame resp;
        resp.type = kFrameControl;
        resp.rpc_id = f.rpc_id;
        resp.src = f.dst;
        resp.dst = f.src;
        resp.status = kFrameOk;
        const std::string text = BuildStatusText();
        resp.payload.assign(text.begin(), text.end());
        const std::vector<uint8_t> bytes = EncodeFrame(resp);
        if (!WriteAll(fd, bytes.data(), bytes.size())) {
          write_failed = true;
          break;
        }
        continue;
      }
      if (f.type != kFrameRequest) continue;
      Frame resp;
      resp.type = kFrameResponse;
      resp.rpc_id = f.rpc_id;
      resp.src = f.dst;
      resp.dst = f.src;
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (trace_ != nullptr) {
          // Merge the caller's stamp first so every event this request
          // causes orders after its send, then adopt the caller's span:
          // while it is set, everything recorded here (this deliver,
          // Dispatch's event, the response send) attributes to the
          // CLIENT's span tree — the server opens no spans of its own.
          trace_->ObserveHlc(f.hlc);
          trace_->set_remote_span(f.span);
        }
        RecordDeliver(EventTime(), f.src, f.dst, f.rpc_id, 0);
        std::optional<std::vector<uint8_t>> reply = Dispatch(f.dst, f.payload);
        if (reply.has_value()) {
          resp.status = kFrameOk;
          resp.payload = std::move(*reply);
          RecordSend(EventTime(), f.dst, f.src, f.rpc_id, 0,
                     resp.payload.size());
          if (trace_ != nullptr) {
            // The response frame carries the caller's span back plus
            // this send's stamp, so the client's deliver orders after
            // every server-side event.
            resp.span = f.span;
            resp.hlc = trace_->last_hlc();
          }
        } else {
          // Refused: no response payload crosses the wire as a protocol
          // message, so neither side records send/deliver for it —
          // mirrors the stats convention.
          resp.status = kFrameRefused;
        }
        if (trace_ != nullptr) trace_->set_remote_span(0);
      }
      const std::vector<uint8_t> bytes = EncodeFrame(resp);
      if (!WriteAll(fd, bytes.data(), bytes.size())) {
        write_failed = true;
        break;
      }
    }
    if (write_failed) break;
  }
  ::close(fd);
  service_conns_.fetch_sub(1, std::memory_order_relaxed);
}

std::optional<std::vector<uint8_t>> TcpTransport::AttemptRemote(
    uint32_t process, Frame& request) {
  const int fd = EnsureConn(process);
  if (fd < 0) return std::nullopt;
  {
    // Count + trace the send BEFORE encoding so the frame carries the
    // very span and HLC stamp of its own kSend event.
    std::lock_guard<std::mutex> lock(mu_);
    RecordSend(EventTime(), request.src, request.dst, request.rpc_id, 0,
               request.payload.size());
    if (trace_ != nullptr) {
      request.span = trace_->CurrentSpan();
      request.hlc = trace_->last_hlc();
    }
  }
  {
    std::lock_guard<std::mutex> lock(wait_mu_);
    pending_[request.rpc_id] = PendingReply{};
  }
  const std::vector<uint8_t> bytes = EncodeFrame(request);
  bool sent;
  {
    std::lock_guard<std::mutex> lock(peers_[process]->write_mu);
    sent = WriteAll(fd, bytes.data(), bytes.size());
  }
  if (!sent) {
    std::lock_guard<std::mutex> lock(conn_mu_);
    CloseConnLocked(*peers_[process]);
  }

  std::optional<std::vector<uint8_t>> reply;
  uint64_t resp_hlc = 0;
  {
    std::unique_lock<std::mutex> lock(wait_mu_);
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::microseconds(retry_.timeout_us);
    wait_cv_.wait_until(lock, deadline, [this, &request] {
      auto it = pending_.find(request.rpc_id);
      return it == pending_.end() || it->second.done;
    });
    auto it = pending_.find(request.rpc_id);
    if (it != pending_.end()) {
      if (it->second.done && it->second.status == kFrameOk) {
        reply = std::move(it->second.payload);
        resp_hlc = it->second.hlc;
      }
      pending_.erase(it);
    }
  }
  if (reply.has_value()) {
    // The response deliver is recorded HERE, on the driver thread — the
    // reader thread never touches the recorder (protocol code records
    // on it without mu_). A reply that arrives after the timeout is
    // counted by stats_.late_replies only and stays out of the trace;
    // the shutdown mark's residual accounts for it.
    std::lock_guard<std::mutex> lock(mu_);
    if (trace_ != nullptr) trace_->ObserveHlc(resp_hlc);
    RecordDeliver(EventTime(), request.dst, request.src, request.rpc_id, 0);
  }
  return reply;
}

std::optional<std::vector<uint8_t>> TcpTransport::Attempt(
    uint32_t client, uint32_t server, uint64_t rpc,
    const std::vector<uint8_t>& request, const Handler& handler) {
  // Per-call handlers model servers in-process; a remote transport
  // always answers from the server process's registered table.
  (void)handler;
  const uint32_t target = ProcessOf(server);
  if (target != process_index_) {
    Frame f;
    f.type = kFrameRequest;
    f.rpc_id = rpc;
    f.src = client;
    f.dst = server;
    f.payload = request;
    return AttemptRemote(target, f);
  }
  // Locally-hosted server: no socket, the same dispatch and accounting.
  std::lock_guard<std::mutex> lock(mu_);
  RecordSend(EventTime(), client, server, rpc, 0, request.size());
  RecordDeliver(EventTime(), client, server, rpc, 0);
  std::optional<std::vector<uint8_t>> reply = Dispatch(server, request);
  if (reply.has_value()) {
    RecordSend(EventTime(), server, client, rpc, 0, reply->size());
    RecordDeliver(EventTime(), server, client, rpc, 0);
  }
  return reply;
}

void TcpTransport::Wait(uint64_t us) {
  std::this_thread::sleep_for(std::chrono::microseconds(us));
}

std::string TcpTransport::BuildStatusText() {
  obs::ProcessStatus ps;
  ps.process = process_index_;
  ps.process_count = process_count_;
  ps.node_count = node_count_;
  ps.listen_port = listen_port_;
  ps.uptime_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
  ps.rss_bytes = obs::ReadRssBytes();
  uint64_t peers_up = 0;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (const auto& peer : peers_) {
      if (peer->up) ++peers_up;
    }
  }
  ps.open_connections =
      static_cast<uint64_t>(std::max<int64_t>(
          0, service_conns_.load(std::memory_order_relaxed))) +
      peers_up;
  ps.reconnects = reconnects_.load(std::memory_order_relaxed);
  std::string metrics_text;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ps.rpc_failures = stats_.rpc_failures;
    ps.messages_sent = stats_.messages_sent;
    ps.messages_delivered = stats_.messages_delivered;
    if (metrics_ != nullptr) metrics_text = metrics_->ToPrometheusText();
  }
  return obs::RenderProcessStatus(ps) + metrics_text;
}

Result<std::string> ScrapeStatus(const std::string& host, uint16_t port,
                                 uint64_t timeout_ms) {
  const int fd = ConnectTo(host, port);
  if (fd < 0) {
    return Status::Unavailable("scrape: cannot connect to " + host + ":" +
                               std::to_string(port));
  }
  Frame req;
  req.type = kFrameControl;
  req.rpc_id = 1;
  const std::vector<uint8_t> bytes = EncodeFrame(req);
  if (!WriteAll(fd, bytes.data(), bytes.size())) {
    ::close(fd);
    return Status::Unavailable("scrape: write failed");
  }
  FrameParser parser;
  uint8_t buf[4096];
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) {
      ::close(fd);
      return Status::Unavailable("scrape: timed out");
    }
    const auto left =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
            .count();
    pollfd pfd{fd, POLLIN, 0};
    const int r = ::poll(&pfd, 1, left > 0 ? static_cast<int>(left) : 1);
    if (r < 0 && errno == EINTR) continue;
    if (r < 0) {
      ::close(fd);
      return Status::Unavailable("scrape: poll failed");
    }
    if (r == 0) continue;  // loop re-checks the deadline
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      ::close(fd);
      return Status::Unavailable("scrape: connection closed");
    }
    std::vector<Frame> frames;
    if (!parser.Feed(buf, static_cast<size_t>(n), &frames).ok()) {
      ::close(fd);
      return Status::InvalidArgument("scrape: malformed response");
    }
    for (Frame& f : frames) {
      if (f.type != kFrameControl) continue;
      ::close(fd);
      return std::string(f.payload.begin(), f.payload.end());
    }
  }
}

}  // namespace sep2p::net
