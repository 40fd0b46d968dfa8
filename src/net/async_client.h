// Asynchronous multiplexed client for net::Server's wire protocol: one
// TCP connection, many outstanding requests, each with its own deadline
// and completion callback. A single IO thread owns the socket and runs
// a poll() loop; submissions from any thread are queued under a mutex
// and the loop is woken through a pipe. Responses are matched to
// requests by request_id, so the server's workers may complete them in
// any order (this is what the frame header's request_id exists for).
//
// Failure model, designed for the shard router on top:
//   - a per-call deadline fires   -> that call fails kDeadlineExceeded;
//     the connection stays up and a late response is dropped silently.
//   - the connection dies         -> every request that was written (or
//     partially written) fails kUnavailable; requests still queued and
//     never sent stay queued and go out on the next connection.
//   - reconnection is automatic with jittered exponential backoff; the
//     client never gives up on its endpoint — callers decide when an
//     endpoint is dead (see dist::ShardHealth), the transport just
//     reports each failure honestly.
//
// Callbacks run on the IO thread. They must not block, but they may
// submit further Calls (the submit path never waits on the IO thread).
//
// Users: dist::RemoteShardBackend (one per shard of the router) and the
// blocking net::Client, a facade over one AsyncClient.
#ifndef APPROXQL_NET_ASYNC_CLIENT_H_
#define APPROXQL_NET_ASYNC_CLIENT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <utility>

#include "net/wire.h"
#include "util/mutex.h"
#include "util/random.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace approxql::net {

struct AsyncClientOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  /// Bound on each (re)connection attempt; <= 0 waits forever.
  int connect_timeout_ms = 5000;
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Jittered exponential backoff between reconnection attempts:
  /// uniform in [base/2, min(cap, base << attempt)].
  int reconnect_backoff_ms = 20;
  int reconnect_backoff_cap_ms = 1000;
  /// Server-push frames (request_id 0 — never assigned to a Call) are
  /// handed here; without a handler they are dropped. Runs on the IO
  /// thread under the same rules as completion callbacks: never block,
  /// submitting further Calls is fine.
  std::function<void(const FrameHeader&, std::string_view payload)> on_push;
};

/// Completion: the response frame's header and payload, or the status
/// explaining why no response will come.
using AsyncCallback =
    std::function<void(util::Result<std::pair<FrameHeader, std::string>>)>;

class AsyncClient {
 public:
  explicit AsyncClient(AsyncClientOptions options);
  ~AsyncClient();

  AsyncClient(const AsyncClient&) = delete;
  AsyncClient& operator=(const AsyncClient&) = delete;

  /// Spawns the IO thread. Does not require the endpoint to be up —
  /// the first Calls wait out the connect/backoff cycle against their
  /// own deadlines. Fails only on resource errors (pipe/thread).
  util::Status Start();

  /// Stops the IO thread and joins it. Every request still outstanding
  /// fails kUnavailable (callbacks run on the IO thread before it
  /// exits). Idempotent; the destructor calls it.
  void Shutdown();

  /// Submits one request. `deadline_ms` <= 0 means no deadline. `done`
  /// is invoked exactly once, on the IO thread — except after Shutdown,
  /// when it is invoked inline with kUnavailable. Thread-safe.
  void Call(MessageType type, std::string payload, int deadline_ms,
            AsyncCallback done);

  struct Stats {
    uint64_t sent = 0;        // requests written to a socket
    uint64_t completed = 0;   // responses delivered
    uint64_t failed = 0;      // failed for any reason but the deadline
    uint64_t timed_out = 0;   // failed kDeadlineExceeded
    uint64_t reconnects = 0;  // successful connects after the first
  };
  Stats stats() const;

 private:
  using Clock = std::chrono::steady_clock;

  struct Request {
    uint64_t id = 0;
    MessageType type = MessageType::kQueryRequest;
    std::string payload;
    bool has_deadline = false;
    Clock::time_point deadline;
    AsyncCallback done;
    /// Bytes of this request hit the socket: a connection loss now
    /// fails it (the server may or may not have seen it); before that,
    /// a loss just leaves it queued for the next connection.
    bool written = false;
  };

  void IoLoop();
  /// Begins a non-blocking connect (or completes one already in
  /// flight). Never blocks the loop: progress is driven by POLLOUT.
  void StartConnect();
  void FinishConnect();
  /// Tears down the connection, fails every written request with
  /// `cause`, and schedules the next connect attempt.
  void DropConnection(const util::Status& cause);
  void EncodeWaiting();
  void FlushOutbox();
  void ReadSocket();
  void ExpireDeadlines(Clock::time_point now);
  /// Next instant the loop must wake even without IO (deadline expiry
  /// or backoff elapsing); Clock::time_point::max() when none.
  Clock::time_point NextWakeup() const;
  void Complete(Request&& request,
                util::Result<std::pair<FrameHeader, std::string>> result);

  AsyncClientOptions options_;

  util::Mutex mu_;
  std::deque<Request> submitted_ GUARDED_BY(mu_);
  bool stopped_ GUARDED_BY(mu_) = true;
  uint64_t next_id_ GUARDED_BY(mu_) = 1;

  // Everything below is touched only by the IO thread.
  std::thread io_thread_;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;  // written by Call/Shutdown under mu_
  int fd_ = -1;
  bool connecting_ = false;
  bool connected_once_ = false;
  Clock::time_point connect_deadline_;
  Clock::time_point next_connect_;
  int connect_attempt_ = 0;
  std::map<uint64_t, Request> inflight_;  // keyed by request id
  std::string outbox_;
  FrameDecoder decoder_;
  util::Rng backoff_rng_;

  std::atomic<uint64_t> sent_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<uint64_t> timed_out_{0};
  std::atomic<uint64_t> reconnects_{0};
};

}  // namespace approxql::net

#endif  // APPROXQL_NET_ASYNC_CLIENT_H_
