#include "net/server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <utility>

#include "ingest/mutable_corpus.h"
#include "shard/sharded_database.h"
#include "util/logging.h"

namespace approxql::net {

namespace {

int64_t MicrosSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

/// Everything the loop thread needs per socket, plus the one field
/// worker threads touch: the mutex-guarded outbox of encoded response
/// frames. `closed` flips before the fd is closed so a late completion
/// appends into a connection object that is about to die rather than
/// into a recycled fd.
struct Server::Connection {
  int fd = -1;
  FrameDecoder decoder;
  std::chrono::steady_clock::time_point last_active;
  bool want_read = true;
  bool want_write = false;
  std::string write_buffer;  // loop-thread staging, partially written

  /// Set by a subscribing kManifestFetch; the loop pushes every later
  /// kManifestDelta here.
  bool subscribed = false;

  std::atomic<int64_t> in_flight{0};
  std::atomic<bool> closed{false};
  util::Mutex out_mu;
  std::string outbox GUARDED_BY(out_mu);  // workers append complete frames

  explicit Connection(size_t max_frame_bytes)
      : decoder(max_frame_bytes),
        last_active(std::chrono::steady_clock::now()) {}
};

Server::Server(service::QueryService& service, ingest::MutableCorpus& corpus,
               ServerOptions options)
    : Server(service, std::move(options)) {
  corpus_ = &corpus;
}

Server::Server(service::QueryService& service, ServerOptions options)
    : service_(service),
      options_(std::move(options)),
      connections_open_(metrics_.RegisterGauge("net_connections_open")),
      connections_accepted_(
          metrics_.RegisterCounter("net_connections_accepted")),
      connections_rejected_(
          metrics_.RegisterCounter("net_connections_rejected")),
      requests_(metrics_.RegisterCounter("net_requests")),
      protocol_errors_(metrics_.RegisterCounter("net_protocol_errors")),
      bytes_read_(metrics_.RegisterCounter("net_bytes_read")),
      bytes_written_(metrics_.RegisterCounter("net_bytes_written")),
      wire_latency_us_(metrics_.RegisterHistogram("net_wire_latency_us")) {}

Server::~Server() { Shutdown(/*drain=*/false); }

util::Status Server::Start() {
  {
    util::MutexLock lock(&lifecycle_mu_);
    APPROXQL_CHECK(!started_) << "Server::Start called twice";
  }
  if (options_.shard.enabled && corpus_ != nullptr &&
      corpus_->snapshot()->num_shards() != 1) {
    // A cluster shard server's local ids are ITS tree's preorders; a
    // corpus internally partitioned again would need two translation
    // layers. One cluster shard = one corpus shard, by construction.
    return util::Status::InvalidArgument(
        "a mutable shard server requires a single-shard corpus (got " +
        std::to_string(corpus_->snapshot()->num_shards()) + ")");
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (listen_fd_ < 0) {
    return util::Status::IoError(std::string("socket: ") + strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return util::Status::InvalidArgument("bad bind address " +
                                         options_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    util::Status st = util::Status::IoError(
        "bind " + options_.bind_address + ":" +
        std::to_string(options_.port) + ": " + strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  socklen_t addr_len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &addr_len);
  port_ = ntohs(addr.sin_port);
  if (::listen(listen_fd_, 128) < 0) {
    util::Status st =
        util::Status::IoError(std::string("listen: ") + strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }

  epoll_fd_ = ::epoll_create1(0);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    util::Status st = util::Status::IoError("epoll_create1/eventfd failed");
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    if (wake_fd_ >= 0) ::close(wake_fd_);
    ::close(listen_fd_);
    epoll_fd_ = wake_fd_ = listen_fd_ = -1;
    return st;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.fd = wake_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);

  // Spawn before publishing started_: a concurrent JoinLoop that
  // observes started_ must find a joinable thread.
  loop_thread_ = std::thread([this] { Loop(); });
  {
    util::MutexLock lock(&lifecycle_mu_);
    started_ = true;
  }
  return util::Status::OK();
}

void Server::RequestDrain() {
  drain_.store(true, std::memory_order_release);
  uint64_t one = 1;
  // Only async-signal-safe calls here; a failed wake is recovered by
  // the loop's periodic timeout.
  [[maybe_unused]] ssize_t ignored = ::write(wake_fd_, &one, sizeof(one));
}

void Server::JoinLoop() {
  lifecycle_mu_.Lock();
  if (!started_ || joined_) {
    lifecycle_mu_.Unlock();
    return;
  }
  if (joining_) {
    // Someone else owns the join; wait for it rather than calling
    // join() twice on the same thread.
    while (!joined_) lifecycle_cv_.Wait(&lifecycle_mu_);
    lifecycle_mu_.Unlock();
    return;
  }
  joining_ = true;
  // Join with lifecycle_mu_ released: a concurrent Shutdown must be
  // able to store stop_/drain_ (it does so without the lock) and a
  // concurrent Wait must be able to park on lifecycle_cv_.
  lifecycle_mu_.Unlock();
  loop_thread_.join();
  lifecycle_mu_.Lock();
  joined_ = true;
  lifecycle_cv_.NotifyAll();
  lifecycle_mu_.Unlock();
}

void Server::Wait() { JoinLoop(); }

void Server::Shutdown(bool drain) {
  {
    // Only the stop-flag store and a non-blocking eventfd wake happen
    // under lifecycle_mu_ — never the join itself — so a thread parked
    // in Wait() can no longer deadlock a concurrent Shutdown.
    util::MutexLock lock(&lifecycle_mu_);
    if (!started_) return;
    if (drain) {
      drain_.store(true, std::memory_order_release);
    } else {
      stop_.store(true, std::memory_order_release);
    }
    if (!fds_closed_) {
      uint64_t one = 1;
      [[maybe_unused]] ssize_t ignored = ::write(wake_fd_, &one, sizeof(one));
    }
  }
  JoinLoop();
  // The loop is gone and every connection is marked closed; late
  // completions can only append to dead outboxes. Wait for them so no
  // callback outlives `this`.
  {
    util::MutexLock lock(&outstanding_mu_);
    while (outstanding_.load(std::memory_order_acquire) != 0) {
      outstanding_cv_.Wait(&outstanding_mu_);
    }
  }
  {
    util::MutexLock lock(&lifecycle_mu_);
    if (fds_closed_) return;
    fds_closed_ = true;
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  listen_fd_ = epoll_fd_ = wake_fd_ = -1;
}

void Server::Loop() {
  bool accepting = true;
  std::chrono::steady_clock::time_point drain_start;
  epoll_event events[64];
  while (!stop_.load(std::memory_order_acquire)) {
    const bool draining = drain_.load(std::memory_order_acquire);
    if (draining && accepting) {
      // Drain step 1: stop accepting. The listening socket stays bound
      // (connect attempts queue and then fail on close) but no new
      // connection enters the loop.
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
      accepting = false;
      drain_start = std::chrono::steady_clock::now();
      // Drain step 1b: stop reading. Requests arriving now would only
      // be turned away, and their kUnavailable responses would keep
      // refilling outboxes — the quiesce check below could never
      // converge against a peer that keeps sending. TCP flow control
      // pushes back on such a peer instead. (No new connections appear
      // during the drain, so one pass over the map is enough.)
      for (const auto& [fd, conn] : connections_) {
        UpdateEpoll(conn.get(), conn->want_write, /*want_read=*/false);
      }
    }

    int n = ::epoll_wait(epoll_fd_, events, 64, draining ? 20 : 200);
    if (n < 0 && errno != EINTR) break;
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == listen_fd_) {
        if (accepting) HandleAccept();
        continue;
      }
      if (fd == wake_fd_) {
        uint64_t drainv;
        while (::read(wake_fd_, &drainv, sizeof(drainv)) > 0) {
        }
        continue;
      }
      auto it = connections_.find(fd);
      if (it == connections_.end()) continue;  // closed earlier this batch
      std::shared_ptr<Connection> conn = it->second;
      if (events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) {
        HandleReadable(conn);
      }
      if (!conn->closed.load(std::memory_order_acquire) &&
          (events[i].events & EPOLLOUT)) {
        FlushWrites(conn);
      }
    }

    // Completions that arrived from worker threads since the last pass.
    std::vector<std::shared_ptr<Connection>> pending;
    {
      util::MutexLock lock(&pending_mu_);
      pending.swap(pending_writes_);
    }
    for (const std::shared_ptr<Connection>& conn : pending) {
      if (!conn->closed.load(std::memory_order_acquire)) FlushWrites(conn);
    }

    SweepIdle();

    if (draining) {
      // Drain step 2: once nothing is in flight and every response has
      // reached its socket, close everything and leave.
      bool quiesced = true;
      for (const auto& [fd, conn] : connections_) {
        // Read in_flight before the outbox: a completion enqueues its
        // response *then* decrements, so observing zero here guarantees
        // the outbox read below sees that response.
        if (conn->in_flight.load(std::memory_order_acquire) != 0) {
          quiesced = false;
          break;
        }
        bool outbox_empty;
        {
          util::MutexLock lock(&conn->out_mu);
          outbox_empty = conn->outbox.empty();
        }
        if (!outbox_empty || !conn->write_buffer.empty()) {
          quiesced = false;
          break;
        }
      }
      if (quiesced) break;
      // A peer that refuses to read keeps its write_buffer nonempty
      // forever, so quiescence alone is not a bound; past the grace
      // period the drain hard-closes whatever is left (in-flight
      // evaluations still retire on the pool).
      if (options_.drain_timeout.count() > 0 &&
          std::chrono::steady_clock::now() - drain_start >=
              options_.drain_timeout) {
        APPROXQL_LOG(Warning)
            << "net: drain timed out after "
            << options_.drain_timeout.count() << " ms; hard-closing "
            << connections_.size() << " connection(s)";
        break;
      }
    }
  }
  std::vector<int> fds;
  fds.reserve(connections_.size());
  for (const auto& [fd, conn] : connections_) fds.push_back(fd);
  for (int fd : fds) CloseConnection(fd, "server shutdown");
}

void Server::HandleAccept() {
  for (;;) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;
    }
    if (connections_.size() >= options_.max_connections) {
      // The limit protects the event loop itself; shedding here is a
      // hard close because there is no connection state to answer on.
      connections_rejected_->Increment();
      ::close(fd);
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Connection>(options_.max_frame_bytes);
    conn->fd = fd;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
      ::close(fd);
      continue;
    }
    connections_.emplace(fd, std::move(conn));
    connections_accepted_->Increment();
    connections_open_->Increment();
  }
}

void Server::HandleReadable(const std::shared_ptr<Connection>& conn) {
  char buf[16384];
  // Bound the work done per event: reading until EAGAIN would let one
  // firehose peer pin the loop inside this call indefinitely, starving
  // every other connection — and the drain deadline, which is only
  // checked between epoll passes. Level-triggered epoll re-reports the
  // fd on the next pass, so leftover bytes are not lost.
  constexpr int kMaxReadsPerEvent = 16;
  for (int reads = 0; reads < kMaxReadsPerEvent; ++reads) {
    ssize_t n = ::read(conn->fd, buf, sizeof(buf));
    if (n > 0) {
      bytes_read_->Increment(static_cast<uint64_t>(n));
      conn->last_active = std::chrono::steady_clock::now();
      conn->decoder.Append(buf, static_cast<size_t>(n));
      for (;;) {
        FrameHeader header;
        std::string payload;
        util::Status error;
        FrameDecoder::Next next = conn->decoder.Take(&header, &payload,
                                                     &error);
        if (next == FrameDecoder::Next::kNeedMore) break;
        if (next == FrameDecoder::Next::kError) {
          // Corrupt stream: nothing after this point can be framed, and
          // a request id can't be trusted, so the whole connection goes.
          protocol_errors_->Increment();
          APPROXQL_LOG(Warning)
              << "net: closing connection: " << error.message();
          CloseConnection(conn->fd, "protocol error");
          return;
        }
        DispatchFrame(conn, header, std::move(payload));
        if (conn->closed.load(std::memory_order_acquire)) return;
      }
      continue;
    }
    if (n == 0) {
      if (conn->decoder.buffered() > 0) {
        // EOF mid-frame: the peer died between writes. Only this
        // connection is affected.
        protocol_errors_->Increment();
      }
      CloseConnection(conn->fd, "peer closed");
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    CloseConnection(conn->fd, "read error");
    return;
  }
}

void Server::DispatchFrame(const std::shared_ptr<Connection>& conn,
                           const FrameHeader& header, std::string payload) {
  if (header.type == static_cast<uint32_t>(MessageType::kMetricsDump)) {
    FrameHeader reply{kProtocolVersion, header.request_id,
                      static_cast<uint32_t>(MessageType::kMetricsText)};
    std::string dump = DumpMetrics();
    // A truncated dump beats an unframeable one: cap the text so the
    // frame (4-byte length + header varints + CRC) stays under the
    // limit. 32 bytes comfortably covers the non-payload overhead.
    constexpr size_t kFrameOverhead = 32;
    const size_t max_payload = options_.max_frame_bytes > kFrameOverhead
                                   ? options_.max_frame_bytes - kFrameOverhead
                                   : 0;
    if (dump.size() > max_payload) dump.resize(max_payload);
    EnqueueResponse(conn, reply, dump);
    FlushWrites(conn);
    return;
  }

  if (options_.shard.enabled &&
      header.type == static_cast<uint32_t>(MessageType::kPing)) {
    // Answered inline by the event loop, never the worker pool: a ping
    // measures liveness of the serving process, and a pool saturated
    // with long queries must not make a healthy shard look dead.
    FrameHeader reply{kProtocolVersion, header.request_id,
                      static_cast<uint32_t>(MessageType::kPong)};
    // Mutable servers piggyback the snapshot epoch (what queries are
    // answered from — not the durable WAL epoch, which can run ahead
    // across a failed publish) so a probe doubles as a staleness check.
    const uint64_t epoch =
        corpus_ != nullptr ? corpus_->snapshot()->epoch() : 0;
    EnqueueResponse(conn, reply,
                    EncodePong({options_.shard.fingerprint,
                                options_.shard.shard_index, epoch}));
    FlushWrites(conn);
    return;
  }
  if (options_.shard.enabled &&
      header.type == static_cast<uint32_t>(MessageType::kShardQuery)) {
    DispatchShardQuery(conn, header, payload);
    return;
  }
  if (header.type == static_cast<uint32_t>(MessageType::kIngest)) {
    DispatchIngest(conn, header, payload);
    return;
  }
  if (header.type == static_cast<uint32_t>(MessageType::kManifestFetch)) {
    DispatchManifestFetch(conn, header, payload);
    return;
  }

  FrameHeader reply{kProtocolVersion, header.request_id,
                    static_cast<uint32_t>(MessageType::kQueryResponse)};

  if (header.type != static_cast<uint32_t>(MessageType::kQueryRequest)) {
    // The frame itself was well-formed (CRC passed), so the sender gets
    // a per-request error and the connection lives on.
    WireResponse response;
    response.status_code =
        static_cast<uint32_t>(util::StatusCode::kUnimplemented);
    response.status_message =
        "unknown message type " + std::to_string(header.type);
    EnqueueResponse(conn, reply, EncodeQueryResponse(response));
    FlushWrites(conn);
    return;
  }

  requests_->Increment();
  WireRequest wire_request;
  util::Status decoded = DecodeQueryRequest(payload, &wire_request);
  if (!decoded.ok()) {
    WireResponse response;
    response.status_code = static_cast<uint32_t>(decoded.code());
    response.status_message = "bad query request: " + decoded.message();
    EnqueueResponse(conn, reply, EncodeQueryResponse(response));
    FlushWrites(conn);
    return;
  }
  if (drain_.load(std::memory_order_acquire)) {
    WireResponse response;
    response.status_code =
        static_cast<uint32_t>(util::StatusCode::kUnavailable);
    response.status_message = "server draining";
    EnqueueResponse(conn, reply, EncodeQueryResponse(response));
    FlushWrites(conn);
    return;
  }

  service::QueryRequest request;
  request.query_text = std::move(wire_request.query);
  request.exec.strategy = wire_request.strategy;
  request.exec.n = static_cast<size_t>(wire_request.n);
  request.deadline = std::chrono::milliseconds(wire_request.deadline_ms);
  request.bypass_cache = wire_request.bypass_cache;
  request.min_epochs = std::move(wire_request.min_epochs);

  conn->in_flight.fetch_add(1, std::memory_order_acq_rel);
  outstanding_.fetch_add(1, std::memory_order_acq_rel);
  const auto start = std::chrono::steady_clock::now();
  service_.SubmitAsync(
      std::move(request),
      [this, conn, reply, start](service::QueryResponse r) {
        WireResponse response;
        response.status_code = static_cast<uint32_t>(r.status.code());
        response.status_message = r.status.message();
        response.truncated = r.truncated;
        response.cache_hit = r.cache_hit;
        response.degraded = r.degraded;
        response.backend_epoch = r.backend_epoch;
        response.missing_shards = std::move(r.missing_shards);
        response.answers.reserve(r.answers.size());
        for (const engine::QueryAnswer& answer : r.answers) {
          response.answers.push_back(
              {answer.cost, answer.root,
               service_.backend().DocRootOf(answer.root)});
        }
        EnqueueResponse(conn, reply, EncodeQueryResponse(response));
        wire_latency_us_->Record(static_cast<uint64_t>(MicrosSince(start)));
        // Order matters for drain: the response must be visible in the
        // outbox before in_flight hits zero, or the drain check could
        // quiesce between the two and drop the final response.
        conn->in_flight.fetch_sub(1, std::memory_order_acq_rel);
        NotifyWritable(conn);
        {
          // notify_all under the mutex, not after: the waiter in
          // Shutdown may destroy this server (and the condvar) the
          // moment it can reacquire the lock and see zero, so the
          // notifying thread must be done with the condvar before the
          // lock is released.
          util::MutexLock lock(&outstanding_mu_);
          outstanding_.fetch_sub(1, std::memory_order_acq_rel);
          outstanding_cv_.NotifyAll();
        }
      });
}

void Server::DispatchShardQuery(const std::shared_ptr<Connection>& conn,
                                const FrameHeader& header,
                                const std::string& payload) {
  FrameHeader reply{kProtocolVersion, header.request_id,
                    static_cast<uint32_t>(MessageType::kShardAnswer)};
  WireShardAnswer stamp;  // constants every answer from this shard carries
  stamp.fingerprint = options_.shard.fingerprint;
  stamp.shard_index = options_.shard.shard_index;

  requests_->Increment();
  WireShardQuery wire_query;
  util::Status decoded = DecodeShardQuery(payload, &wire_query);
  if (!decoded.ok()) {
    WireShardAnswer answer = stamp;
    answer.status_code = static_cast<uint32_t>(decoded.code());
    answer.status_message = "bad shard query: " + decoded.message();
    EnqueueResponse(conn, reply, EncodeShardAnswer(answer));
    FlushWrites(conn);
    return;
  }
  if (drain_.load(std::memory_order_acquire)) {
    WireShardAnswer answer = stamp;
    answer.status_code = static_cast<uint32_t>(util::StatusCode::kUnavailable);
    answer.status_message = "server draining";
    EnqueueResponse(conn, reply, EncodeShardAnswer(answer));
    FlushWrites(conn);
    return;
  }

  const uint64_t want_n = wire_query.n;
  service::QueryRequest request;
  request.query_text = std::move(wire_query.query);
  request.exec.strategy = wire_query.strategy;
  request.exec.n = static_cast<size_t>(wire_query.n);
  request.deadline = std::chrono::milliseconds(wire_query.deadline_ms);
  if (cost::IsFinite(wire_query.cost_bound)) {
    // The router's snapshot of the shared scatter bound: prune exactly
    // like an in-process shard would. A bounded evaluation's result is
    // only valid against that bound, so it must not touch the cache in
    // either direction.
    const cost::Cost bound = wire_query.cost_bound;
    request.exec.schema.cost_bound = [bound] { return bound; };
    request.bypass_cache = true;
  }

  conn->in_flight.fetch_add(1, std::memory_order_acq_rel);
  outstanding_.fetch_add(1, std::memory_order_acq_rel);
  const auto start = std::chrono::steady_clock::now();
  const bool mutable_backend = corpus_ != nullptr;
  service_.SubmitAsync(
      std::move(request),
      [this, conn, reply, stamp, want_n, start,
       mutable_backend](service::QueryResponse r) {
        WireShardAnswer answer = stamp;
        answer.status_code = static_cast<uint32_t>(r.status.code());
        answer.status_message = r.status.message();
        answer.truncated = r.truncated;
        // Mutable backends stamp the epoch of the snapshot that
        // produced the answer — the router translates the local ids
        // through the manifest slice of exactly this epoch.
        answer.backend_epoch = r.backend_epoch;
        answer.answers.reserve(r.answers.size());
        for (const engine::QueryAnswer& a : r.answers) {
          // Roots stay LOCAL preorders — the router owns the DocSpan
          // table and translates; docs are likewise its job. A static
          // shard server fronts the shard's own tree, so its roots are
          // already local; a mutable one evaluates in its corpus-global
          // id space and reverse-translates against the pinned snapshot
          // (global → local is strictly increasing, so the cost-then-
          // root answer order survives translation).
          doc::NodeId root = a.root;
          if (mutable_backend) {
            uint32_t internal_shard = 0;
            doc::NodeId local = 0;
            if (r.backend_snapshot == nullptr ||
                !r.backend_snapshot->ToLocal(a.root, &internal_shard,
                                             &local)) {
              answer.status_code =
                  static_cast<uint32_t>(util::StatusCode::kInternal);
              answer.status_message =
                  "answer root " + std::to_string(a.root) +
                  " outside the evaluated snapshot";
              answer.answers.clear();
              break;
            }
            root = local;
          }
          answer.answers.push_back({a.cost, root, /*doc=*/0});
        }
        // A full n answers makes the local n-th cost a valid global
        // inclusive bound (the global n-th answer costs no more than
        // ours); anything less says nothing about the global set, and
        // n = 0 has no n-th answer at all.
        if (r.status.ok() && !r.truncated && want_n > 0 &&
            want_n != UINT64_MAX && answer.answers.size() == want_n) {
          answer.achieved_bound = answer.answers.back().cost;
        }
        EnqueueResponse(conn, reply, EncodeShardAnswer(answer));
        wire_latency_us_->Record(static_cast<uint64_t>(MicrosSince(start)));
        conn->in_flight.fetch_sub(1, std::memory_order_acq_rel);
        NotifyWritable(conn);
        {
          util::MutexLock lock(&outstanding_mu_);
          outstanding_.fetch_sub(1, std::memory_order_acq_rel);
          outstanding_cv_.NotifyAll();
        }
      });
}

void Server::DispatchIngest(const std::shared_ptr<Connection>& conn,
                            const FrameHeader& header,
                            const std::string& payload) {
  FrameHeader reply{kProtocolVersion, header.request_id,
                    static_cast<uint32_t>(MessageType::kIngestAck)};
  requests_->Increment();

  auto nack = [&](util::StatusCode code, std::string message) {
    WireIngestAck ack;
    ack.status_code = static_cast<uint32_t>(code);
    ack.status_message = std::move(message);
    EnqueueResponse(conn, reply, EncodeIngestAck(ack));
    FlushWrites(conn);
  };

  WireIngest op;
  util::Status decoded = DecodeIngest(payload, &op);
  if (!decoded.ok()) {
    nack(decoded.code(), "bad ingest: " + decoded.message());
    return;
  }
  if (corpus_ == nullptr) {
    nack(util::StatusCode::kUnimplemented,
         "server is not serving a mutable corpus");
    return;
  }
  if (drain_.load(std::memory_order_acquire)) {
    nack(util::StatusCode::kUnavailable, "server draining");
    return;
  }

  // Runs inline on the event loop: the corpus serializes ingest anyway,
  // and the ack must not be enqueued before the mutation is durable and
  // published. Queries in flight keep executing on the worker pool.
  const auto start = std::chrono::steady_clock::now();
  // A nonzero assigned_global is a router-owned cluster id: place the
  // document at exactly that root (gaps are other servers' ranges).
  util::Result<ingest::MutableCorpus::IngestResult> result =
      op.op == WireIngest::Op::kAdd
          ? (op.assigned_global != 0
                 ? corpus_->AddDocumentAt(op.xml, op.assigned_global)
                 : corpus_->AddDocument(op.xml))
          : corpus_->RemoveDocument(op.doc_root);
  if (!result.ok()) {
    nack(result.status().code(), std::string(result.status().message()));
    return;
  }
  // Push before the ack, so a router sharing this connection sees the
  // delta no later than the ack. Only a published mutation is pushed:
  // after a failed publish the snapshot lags the acked epoch, and
  // subscribers find the gap at the next delta and refetch.
  if (corpus_->snapshot()->epoch() == result->epoch) {
    WireManifestDelta delta;
    // Stamped with the server's CLUSTER position, not the corpus's
    // internal shard index (always 0 in cluster mode).
    delta.shard_index = options_.shard.shard_index;
    delta.prev_epoch = result->prev_epoch;
    delta.epoch = result->epoch;
    delta.op = op.op == WireIngest::Op::kAdd ? WireManifestDelta::Op::kAdd
                                             : WireManifestDelta::Op::kRemove;
    delta.span = {result->local_start, result->doc_root, result->length};
    PushManifestDelta(delta);
  }
  WireIngestAck ack;
  ack.status_code = static_cast<uint32_t>(util::StatusCode::kOk);
  ack.seq = result->seq;
  ack.epoch = result->epoch;
  ack.doc_root = result->doc_root;
  // In cluster mode the useful placement is this server's CLUSTER
  // position (the corpus's internal index is always 0 there) — a
  // routed caller keys its per-shard epoch floors by it.
  ack.shard_index = options_.shard.enabled
                        ? options_.shard.shard_index
                        : static_cast<uint32_t>(result->shard_index);
  ack.length = static_cast<uint32_t>(result->length);
  EnqueueResponse(conn, reply, EncodeIngestAck(ack));
  wire_latency_us_->Record(static_cast<uint64_t>(MicrosSince(start)));
  FlushWrites(conn);
}

void Server::DispatchManifestFetch(const std::shared_ptr<Connection>& conn,
                                   const FrameHeader& header,
                                   const std::string& payload) {
  FrameHeader reply{kProtocolVersion, header.request_id,
                    static_cast<uint32_t>(MessageType::kManifestSlice)};
  requests_->Increment();

  auto decline = [&](util::StatusCode code, std::string message) {
    WireManifestSlice slice;
    slice.status_code = static_cast<uint32_t>(code);
    slice.status_message = std::move(message);
    slice.shard_index = options_.shard.shard_index;
    EnqueueResponse(conn, reply, EncodeManifestSlice(slice));
    FlushWrites(conn);
  };

  WireManifestFetch fetch;
  util::Status decoded = DecodeManifestFetch(payload, &fetch);
  if (!decoded.ok()) {
    decline(decoded.code(), "bad manifest fetch: " + decoded.message());
    return;
  }
  if (corpus_ == nullptr) {
    decline(util::StatusCode::kUnimplemented,
            "server is not serving a mutable corpus (no manifest slices)");
    return;
  }
  // Ingest runs inline on this same loop, so every mutation published
  // after this snapshot is pushed to the connection: the reply slice and
  // the delta stream compose without a gap. Subscribing again changes
  // nothing.
  if (fetch.subscribe) conn->subscribed = true;
  std::shared_ptr<const shard::ShardedDatabase> snap = corpus_->snapshot();
  WireManifestSlice slice;
  slice.status_code = static_cast<uint32_t>(util::StatusCode::kOk);
  slice.shard_index = options_.shard.shard_index;
  slice.epoch = snap->epoch();
  slice.fingerprint = snap->LayoutFingerprint();  // epoch-salted diagnostics
  slice.spans = snap->shard_spans(0);
  EnqueueResponse(conn, reply, EncodeManifestSlice(slice));
  FlushWrites(conn);
}

void Server::PushManifestDelta(const WireManifestDelta& delta) {
  const std::string payload = EncodeManifestDelta(delta);
  const FrameHeader push{kProtocolVersion, /*request_id=*/0,
                         static_cast<uint32_t>(MessageType::kManifestDelta)};
  // Collected first: a failed write closes its connection, which erases
  // it from connections_.
  std::vector<std::shared_ptr<Connection>> subscribers;
  for (const auto& [fd, conn] : connections_) {
    if (conn->subscribed) subscribers.push_back(conn);
  }
  for (const std::shared_ptr<Connection>& conn : subscribers) {
    EnqueueResponse(conn, push, payload);
    if (!conn->closed.load(std::memory_order_acquire)) FlushWrites(conn);
  }
}

void Server::EnqueueResponse(const std::shared_ptr<Connection>& conn,
                             const FrameHeader& header,
                             std::string_view payload) {
  std::string frame;
  util::Status encoded =
      EncodeFrame(header, payload, &frame, options_.max_frame_bytes);
  if (!encoded.ok() &&
      header.type == static_cast<uint32_t>(MessageType::kQueryResponse)) {
    // The real response is too big for the wire (e.g. n=all on a large
    // database): fail just this request with a bounded error instead of
    // emitting a frame the peer would reject as stream corruption.
    WireResponse error;
    error.status_code =
        static_cast<uint32_t>(util::StatusCode::kResourceExhausted);
    error.status_message = encoded.message();
    frame.clear();
    encoded = EncodeFrame(header, EncodeQueryResponse(error), &frame,
                          options_.max_frame_bytes);
  }
  if (!encoded.ok()) {
    APPROXQL_LOG(Warning)
        << "net: dropping oversized response frame: " << encoded.message();
    return;
  }
  util::MutexLock lock(&conn->out_mu);
  if (conn->closed.load(std::memory_order_acquire)) return;  // client gone
  conn->outbox.append(frame);
}

void Server::NotifyWritable(const std::shared_ptr<Connection>& conn) {
  {
    util::MutexLock lock(&pending_mu_);
    pending_writes_.push_back(conn);
  }
  uint64_t one = 1;
  [[maybe_unused]] ssize_t ignored = ::write(wake_fd_, &one, sizeof(one));
}

void Server::FlushWrites(const std::shared_ptr<Connection>& conn) {
  {
    util::MutexLock lock(&conn->out_mu);
    if (!conn->outbox.empty()) {
      conn->write_buffer.append(conn->outbox);
      conn->outbox.clear();
    }
  }
  size_t written = 0;
  while (written < conn->write_buffer.size()) {
    // MSG_NOSIGNAL: a peer that reset its connection between epoll_wait
    // and this flush must surface as EPIPE (close below), not as a
    // process-terminating SIGPIPE.
    ssize_t n = ::send(conn->fd, conn->write_buffer.data() + written,
                       conn->write_buffer.size() - written, MSG_NOSIGNAL);
    if (n > 0) {
      written += static_cast<size_t>(n);
      bytes_written_->Increment(static_cast<uint64_t>(n));
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    CloseConnection(conn->fd, "write error");
    return;
  }
  conn->write_buffer.erase(0, written);
  if (written > 0) conn->last_active = std::chrono::steady_clock::now();
  const bool want_write = !conn->write_buffer.empty();
  if (want_write != conn->want_write) {
    UpdateEpoll(conn.get(), want_write, conn->want_read);
  }
}

void Server::UpdateEpoll(Connection* conn, bool want_write, bool want_read) {
  epoll_event ev{};
  ev.events = (want_read ? EPOLLIN : 0u) | (want_write ? EPOLLOUT : 0u);
  ev.data.fd = conn->fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev) == 0) {
    conn->want_write = want_write;
    conn->want_read = want_read;
  }
}

void Server::CloseConnection(int fd, const char* reason) {
  auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  std::shared_ptr<Connection> conn = it->second;
  {
    // Under out_mu so no worker can append between the flag flip and
    // the erase — its append would land after `closed` and be dropped.
    util::MutexLock lock(&conn->out_mu);
    conn->closed.store(true, std::memory_order_release);
  }
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  conn->fd = -1;
  connections_.erase(it);
  connections_open_->Decrement();
  (void)reason;
}

void Server::SweepIdle() {
  if (options_.idle_timeout.count() <= 0) return;
  const auto now = std::chrono::steady_clock::now();
  std::vector<int> idle;
  for (const auto& [fd, conn] : connections_) {
    if (conn->in_flight.load(std::memory_order_acquire) != 0) continue;
    if (!conn->write_buffer.empty()) continue;
    if (now - conn->last_active < options_.idle_timeout) continue;
    bool outbox_empty;
    {
      util::MutexLock lock(&conn->out_mu);
      outbox_empty = conn->outbox.empty();
    }
    if (outbox_empty) idle.push_back(fd);
  }
  for (int fd : idle) CloseConnection(fd, "idle timeout");
}

Server::Stats Server::GetStats() const {
  Stats stats;
  stats.connections_open = connections_open_->Value();
  stats.connections_accepted = connections_accepted_->Value();
  stats.connections_rejected = connections_rejected_->Value();
  stats.requests = requests_->Value();
  stats.protocol_errors = protocol_errors_->Value();
  stats.bytes_read = bytes_read_->Value();
  stats.bytes_written = bytes_written_->Value();
  return stats;
}

std::string Server::DumpMetrics() const {
  return service_.DumpMetrics() + metrics_.DumpText();
}

}  // namespace approxql::net
