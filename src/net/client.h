// Blocking client for net::Server's wire protocol: a thin facade over
// one net::AsyncClient (one TCP connection, one IO thread). Each call
// submits one frame, waits for its completion, then checks the reply
// type, decodes it and maps its wire status. Not thread-safe; use one
// Client per thread, as the load driver does.
//
// Failure semantics are AsyncClient's (see async_client.h):
//   - an expired deadline fails that call kDeadlineExceeded and keeps
//     the connection; the late reply is dropped by request id.
//   - a connection lost after the request was written fails the call
//     kUnavailable; it is never resent. The Client then drops its
//     transport, so the next call connects afresh.
//   - a call whose request cannot be written within connect_timeout_ms
//     (nothing listens, or the server went away between calls) fails
//     kUnavailable instead of waiting for a reconnect that may never
//     come.
#ifndef APPROXQL_NET_CLIENT_H_
#define APPROXQL_NET_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "net/async_client.h"
#include "net/wire.h"
#include "util/status.h"

namespace approxql::net {

struct ClientOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  /// Bound on reaching the server: Connect()'s round trip, and the wait
  /// for any call's request to be written; <= 0 waits forever.
  int connect_timeout_ms = 5000;
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
};

class Client {
 public:
  explicit Client(ClientOptions options);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// (Re)establishes the connection and proves the server answers: one
  /// kPing round trip bounded by connect_timeout_ms (a plain server
  /// replies kUnimplemented, which proves it alive just as well). On
  /// failure connected() stays false. Calls connect lazily, so this is
  /// only needed to check reachability up front.
  util::Status Connect();
  /// True while the client holds a transport: from Connect() or the
  /// first call until Close(), a lost connection or an unreachable
  /// server.
  bool connected() const { return async_ != nullptr; }
  void Close();

  /// Sends the request and blocks for its response. `deadline_ms` <= 0
  /// waits forever once the request is written. A WireResponse whose
  /// status_code is non-OK is returned as an error Status carrying the
  /// server's code and message, so transport and server errors read
  /// uniformly; truncated/answers of successful calls come back in the
  /// response.
  util::Result<WireResponse> Call(const WireRequest& request,
                                  int deadline_ms = 0);

  /// Fetches the server's metrics dump (kMetricsDump round trip).
  util::Result<std::string> FetchMetrics(int deadline_ms = 0);

  /// Sends one ingest mutation and blocks for its ack. A returned ack
  /// means the server made the mutation durable and visible; a non-OK
  /// ack status_code comes back as an error Status (the mutation did
  /// NOT happen). A transport failure is ambiguous: the mutation may
  /// or may not have been applied (it is never resent, so an add is at
  /// most once), and drivers needing an exact acked set must treat it
  /// as "unknown" and reconcile via a query.
  util::Result<WireIngestAck> Ingest(const WireIngest& ingest,
                                     int deadline_ms = 0);

 private:
  using Frame = std::pair<FrameHeader, std::string>;

  /// One frame exchange over the transport (started on demand). A lost
  /// connection or an unreachable server closes the transport.
  util::Result<Frame> Exchange(MessageType type, std::string payload,
                               int deadline_ms);

  ClientOptions options_;
  std::unique_ptr<AsyncClient> async_;
};

}  // namespace approxql::net

#endif  // APPROXQL_NET_CLIENT_H_
