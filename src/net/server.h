// An epoll-based TCP front end for service::QueryService: one event-
// loop thread multiplexes every connection (non-blocking accept, read,
// write), decodes wire frames (net/wire.h), and hands each query to
// QueryService::SubmitAsync — so all evaluation runs on the service's
// worker pool and its admission control applies unchanged. A pool
// rejection becomes a clean RESOURCE_EXHAUSTED response frame on the
// wire, never a dropped connection: wire clients observe exactly the
// backpressure in-process callers do.
//
// Connection lifecycle and failure containment:
//   - accept       → over max_connections: accepted then closed
//                    immediately (counted net_connections_rejected).
//   - read         → frames may arrive torn across reads or several
//                    per read; FrameDecoder buffers partials. Requests
//                    pipeline freely; responses carry the request id
//                    and may complete out of order.
//   - protocol     → a corrupt stream (bad CRC, oversized length, bad
//                    version) closes only that connection. An unknown
//                    message type in a *valid* frame fails only that
//                    request (kUnimplemented response).
//   - write        → responses are appended to a per-connection outbox
//                    by worker threads; the loop drains it with
//                    partial-write buffering and EPOLLOUT when the
//                    socket blocks.
//   - disconnect   → a client gone mid-request only discards that
//                    connection's pending responses; the evaluation
//                    itself finishes on the pool (queries are read-
//                    only) and its result is dropped.
//   - idle timeout → connections with no traffic and no in-flight
//                    requests for idle_timeout are closed.
//   - drain        → RequestDrain() (async-signal-safe; call it from a
//                    SIGTERM handler) stops accepting and stops
//                    reading, finishes all in-flight requests, flushes
//                    their responses, then closes everything and ends
//                    the loop. A peer that refuses to read its
//                    responses cannot hold the loop open forever:
//                    after drain_timeout the remaining connections are
//                    hard-closed.
//
// All socket writes use send(MSG_NOSIGNAL), so a peer that resets its
// connection between epoll_wait and a flush yields EPIPE (connection
// closed) instead of a process-killing SIGPIPE; embedders need not
// install a SIGPIPE handler.
#ifndef APPROXQL_NET_SERVER_H_
#define APPROXQL_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "engine/database.h"
#include "net/wire.h"
#include "service/metrics.h"
#include "service/query_service.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace approxql::shard {
class LayoutManifest;
}  // namespace approxql::shard

namespace approxql::ingest {
class MutableCorpus;
}  // namespace approxql::ingest

namespace approxql::net {

struct ServerOptions {
  std::string bind_address = "127.0.0.1";
  /// 0 = ephemeral; read the actual port with Server::port() after
  /// Start().
  uint16_t port = 0;
  size_t max_connections = 1024;
  /// Idle connections (no traffic, nothing in flight) are closed after
  /// this long; zero disables the sweep.
  std::chrono::milliseconds idle_timeout{60000};
  /// Upper bound on a graceful drain: connections that have not
  /// quiesced this long after the drain began are hard-closed (their
  /// in-flight evaluations still retire on the pool, results dropped).
  /// Zero means no bound.
  std::chrono::milliseconds drain_timeout{10000};
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Shard-serving mode: this process fronts exactly one shard of a
  /// partitioned corpus, so the server additionally answers
  /// kShardQuery (shard-scoped execution whose answer roots are
  /// LOCAL preorder ids, carrying the caller's cost bound into the
  /// evaluation) and kPing (health probe, answered inline by the
  /// event loop so a saturated worker pool cannot look dead). The
  /// fingerprint and index are stamped into every kShardAnswer/kPong
  /// so a router detects topology mismatches instead of mistranslating
  /// local ids.
  struct ShardServing {
    bool enabled = false;
    uint32_t fingerprint = 0;  ///< the partition layout's fingerprint
    uint32_t shard_index = 0;
  };
  ShardServing shard;
};

class Server {
 public:
  /// `service` executes the queries; each answer's document root is
  /// resolved through service.backend().DocRootOf. `service` must
  /// outlive the server.
  Server(service::QueryService& service, ServerOptions options);
  /// Same as Server(service, options); `db` / `manifest` name what the
  /// service's backend already resolves through.
  Server(service::QueryService& service, const engine::Database& /*db*/,
         ServerOptions options)
      : Server(service, std::move(options)) {}
  Server(service::QueryService& service,
         const shard::LayoutManifest& /*manifest*/, ServerOptions options)
      : Server(service, std::move(options)) {}
  /// Mutable-corpus flavor: the server additionally answers kIngest
  /// (add/remove a document; acked only after the mutation is durable
  /// and visible), kManifestFetch (the current generation's DocSpan
  /// slice + epoch, optionally subscribing the connection to the
  /// kManifestDelta pushes its event loop sends after every published
  /// kIngest), and — in shard-serving mode — stamps each kShardAnswer
  /// with its snapshot epoch and translates answer roots to shard-local
  /// preorders. `corpus` must outlive the server and be the same one
  /// `service` fronts; mutations made on the corpus directly, not
  /// through this server, are pushed to no subscriber.
  Server(service::QueryService& service, ingest::MutableCorpus& corpus,
         ServerOptions options);
  /// Equivalent to Shutdown(/*drain=*/false).
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and spawns the event-loop thread. Fails (IoError)
  /// if the address/port cannot be bound.
  util::Status Start();

  /// Stops the server and joins the loop thread. drain=true completes
  /// and flushes all in-flight requests first; drain=false discards
  /// them (their evaluations still finish on the pool, results are
  /// dropped). Idempotent.
  void Shutdown(bool drain);

  /// Begins a graceful drain without blocking. Async-signal-safe: only
  /// an atomic store and an eventfd write, so a SIGTERM handler may
  /// call it directly. Use Wait() (or Shutdown) to join afterwards.
  void RequestDrain();

  /// Blocks until the event loop exits (e.g. after RequestDrain) and
  /// joins its thread.
  void Wait();

  /// The bound port; valid after a successful Start().
  uint16_t port() const { return port_; }

  struct Stats {
    int64_t connections_open = 0;
    uint64_t connections_accepted = 0;
    uint64_t connections_rejected = 0;
    uint64_t requests = 0;
    uint64_t protocol_errors = 0;
    uint64_t bytes_read = 0;
    uint64_t bytes_written = 0;
  };
  Stats GetStats() const;

  /// The service's dump followed by this server's net_* metrics — the
  /// payload of a kMetricsDump wire request.
  std::string DumpMetrics() const;

 private:
  struct Connection;

  /// Joins the loop thread exactly once, without holding lifecycle_mu_
  /// across the join — concurrent Wait/Shutdown callers either perform
  /// the join or wait on lifecycle_cv_ for whoever does.
  void JoinLoop();
  void Loop();
  void HandleAccept();
  void HandleReadable(const std::shared_ptr<Connection>& conn);
  void DispatchFrame(const std::shared_ptr<Connection>& conn,
                     const FrameHeader& header, std::string payload);
  /// kShardQuery handling (shard-serving mode only): decode, run on the
  /// service's pool with the frame's cost bound wired into the schema
  /// evaluation, answer with a kShardAnswer of local preorder roots.
  void DispatchShardQuery(const std::shared_ptr<Connection>& conn,
                          const FrameHeader& header,
                          const std::string& payload);
  /// kIngest handling. Runs the corpus mutation inline on the event
  /// loop: the ack must only be enqueued once the mutation is durable,
  /// ingest is serialized by the corpus anyway, and in-flight queries
  /// keep executing on the worker pool meanwhile. Non-mutable servers
  /// ack with kUnimplemented.
  void DispatchIngest(const std::shared_ptr<Connection>& conn,
                      const FrameHeader& header, const std::string& payload);
  /// kManifestFetch handling. Answered inline on the event loop with
  /// the corpus's current slice; subscribe=true marks the connection
  /// for kManifestDelta pushes (ingest also runs inline on this loop, so
  /// every mutation published after the reply slice reaches the
  /// subscriber as a delta — the slice and the stream have no gap
  /// between them). Non-mutable servers answer a slice carrying
  /// kUnimplemented.
  void DispatchManifestFetch(const std::shared_ptr<Connection>& conn,
                             const FrameHeader& header,
                             const std::string& payload);
  /// Sends `delta` as a kManifestDelta push (request_id 0) to every
  /// subscribed connection. Loop thread only.
  void PushManifestDelta(const WireManifestDelta& delta);
  void EnqueueResponse(const std::shared_ptr<Connection>& conn,
                       const FrameHeader& header, std::string_view payload);
  /// Moves the outbox into the write buffer and writes what the socket
  /// accepts; arms/disarms EPOLLOUT as needed.
  void FlushWrites(const std::shared_ptr<Connection>& conn);
  void UpdateEpoll(Connection* conn, bool want_write, bool want_read);
  void CloseConnection(int fd, const char* reason);
  void SweepIdle();
  /// Worker threads call this (via the completion callback) to get the
  /// loop's attention for a connection with a freshly filled outbox.
  void NotifyWritable(const std::shared_ptr<Connection>& conn);

  service::QueryService& service_;
  /// Set by the mutable-corpus constructor; enables kIngest.
  ingest::MutableCorpus* corpus_ = nullptr;
  const ServerOptions options_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  uint16_t port_ = 0;
  std::thread loop_thread_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> drain_{false};
  util::Mutex lifecycle_mu_;
  util::CondVar lifecycle_cv_;  // signaled when joined_ flips
  bool started_ GUARDED_BY(lifecycle_mu_) = false;
  /// A thread is blocked in loop_thread_.join().
  bool joining_ GUARDED_BY(lifecycle_mu_) = false;
  bool joined_ GUARDED_BY(lifecycle_mu_) = false;
  bool fds_closed_ GUARDED_BY(lifecycle_mu_) = false;

  /// Loop-thread-only: fd → connection.
  std::unordered_map<int, std::shared_ptr<Connection>> connections_;

  /// Connections whose outbox gained data from a worker thread since
  /// the loop last looked.
  util::Mutex pending_mu_;
  std::vector<std::shared_ptr<Connection>> pending_writes_
      GUARDED_BY(pending_mu_);

  /// SubmitAsync completion callbacks capture `this`; Shutdown waits
  /// for every one of them to finish (even with drain=false) so no
  /// callback ever runs against a destroyed server. The count stays
  /// atomic (completions decrement it under outstanding_mu_, but the
  /// drain check in Loop reads it lock-free).
  std::atomic<int64_t> outstanding_{0};
  // lint:allow-unguarded-mutex pure condvar handshake; the counter it
  // synchronizes stays atomic so Loop's drain check can read lock-free.
  util::Mutex outstanding_mu_;
  util::CondVar outstanding_cv_;

  service::MetricsRegistry metrics_;
  service::Gauge* connections_open_;
  service::Counter* connections_accepted_;
  service::Counter* connections_rejected_;
  service::Counter* requests_;
  service::Counter* protocol_errors_;
  service::Counter* bytes_read_;
  service::Counter* bytes_written_;
  service::LatencyHistogram* wire_latency_us_;
};

}  // namespace approxql::net

#endif  // APPROXQL_NET_SERVER_H_
