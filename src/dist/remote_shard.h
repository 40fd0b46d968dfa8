// One remote shard endpoint, typed: wraps a net::AsyncClient with the
// shard-scoped wire calls (kShardQuery, kPing, kIngest, kManifestFetch),
// verifies each stamped reply's layout fingerprint and shard index
// against what the router expects, and runs the per-shard health state
// machine
//
//     UP --failure--> SUSPECT --(failures_to_down consecutive)--> DOWN
//      ^------------------------any success-----------------------'
//
// fed by both the query path and the periodic health probes. Health
// only steers routing (a DOWN shard is not retried, and while the
// router's health checker runs it is skipped until a probe revives
// it); correctness never depends on it — a wrongly-UP shard just costs
// a timed-out attempt.
#ifndef APPROXQL_DIST_REMOTE_SHARD_H_
#define APPROXQL_DIST_REMOTE_SHARD_H_

#include <cstdint>
#include <functional>
#include <string>

#include "net/async_client.h"
#include "net/wire.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace approxql::dist {

enum class ShardHealth { kUp, kSuspect, kDown };
const char* ToString(ShardHealth health);

struct RemoteShardOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  int connect_timeout_ms = 2000;
  size_t max_frame_bytes = net::kDefaultMaxFrameBytes;
  int reconnect_backoff_ms = 20;
  int reconnect_backoff_cap_ms = 1000;
  /// Consecutive failures before SUSPECT becomes DOWN.
  int failures_to_down = 3;
  /// The router's own layout fingerprint. A reply stamped with any
  /// other value means the remote process partitioned a different
  /// corpus — its local preorders cannot be translated, so the call
  /// fails kInternal (permanent) instead of returning garbage answers.
  /// Live clusters stamp cluster::ClusterFingerprint instead (the
  /// moving layout is pinned per answer by the epoch, not the stamp).
  uint32_t expected_fingerprint = 0;
  /// Manifest-delta pushes (kManifestDelta frames with request_id 0)
  /// decoded off the transport land here. Runs on the transport's IO
  /// thread — must not block. Malformed pushes are dropped (the epoch
  /// chain then gaps and the subscriber full-fetches).
  std::function<void(const net::WireManifestDelta&)> on_delta;
};

class RemoteShardBackend {
 public:
  RemoteShardBackend(uint32_t shard_index, RemoteShardOptions options);
  ~RemoteShardBackend();

  RemoteShardBackend(const RemoteShardBackend&) = delete;
  RemoteShardBackend& operator=(const RemoteShardBackend&) = delete;

  util::Status Start();
  /// Joins the transport's IO thread; every outstanding callback fires
  /// (with kUnavailable) before this returns.
  void Shutdown();

  /// One shard-scoped evaluation. `done` runs on the transport's IO
  /// thread (it must not block) with either a decoded, fingerprint-
  /// verified answer — whose status_code may still be non-OK — or the
  /// error explaining why none came. Transport outcomes feed the health
  /// state machine automatically.
  using AnswerCallback =
      std::function<void(util::Result<net::WireShardAnswer>)>;
  void CallShardQuery(const net::WireShardQuery& query, int deadline_ms,
                      AnswerCallback done);

  /// One health probe. Same callback/threading rules as CallShardQuery.
  using PongCallback = std::function<void(util::Result<net::WirePong>)>;
  void CallPing(int deadline_ms, PongCallback done);

  /// One ingest mutation against a mutable shard server. Same callback/
  /// threading rules as CallShardQuery. Acks carry no layout
  /// fingerprint (a mutable corpus's layout changes with every ingest),
  /// so only the frame type and decode are verified; a non-OK ack
  /// status comes back inside the WireIngestAck, not as an error.
  using IngestCallback = std::function<void(util::Result<net::WireIngestAck>)>;
  void CallIngest(const net::WireIngest& ingest, int deadline_ms,
                  IngestCallback done);

  /// Fetches the shard server's current manifest slice and registers
  /// this connection for kManifestDelta pushes (delivered to
  /// RemoteShardOptions::on_delta; subscribing again changes nothing).
  /// Only the frame type, decode, and shard index are verified — the
  /// slice's fingerprint is the epoch-salted layout stamp, diagnostics
  /// only. A non-OK status_code inside the slice surfaces as that
  /// error.
  using SliceCallback =
      std::function<void(util::Result<net::WireManifestSlice>)>;
  void CallManifestFetch(int deadline_ms, SliceCallback done);

  ShardHealth health() const;
  /// Feeds the state machine directly (the Call* paths do it for their
  /// own outcomes; the router adds query-level signals like a shard
  /// answering "draining").
  void RecordOutcome(bool success);

  uint32_t shard_index() const { return shard_index_; }
  std::string endpoint() const {
    return options_.host + ":" + std::to_string(options_.port);
  }
  net::AsyncClient::Stats transport_stats() const { return client_.stats(); }

 private:
  /// Shared tail of every Call path: type-check the frame, decode,
  /// verify the fingerprint/index stamp of the payloads that carry one
  /// (a manifest slice: its status and shard index), record the
  /// outcome.
  template <typename Payload>
  util::Result<Payload> CheckReply(
      util::Result<std::pair<net::FrameHeader, std::string>>& reply,
      net::MessageType want,
      util::Status (*decode)(std::string_view, Payload*));

  const uint32_t shard_index_;
  const RemoteShardOptions options_;
  net::AsyncClient client_;

  mutable util::Mutex mu_;
  ShardHealth health_ GUARDED_BY(mu_) = ShardHealth::kUp;
  int consecutive_failures_ GUARDED_BY(mu_) = 0;
};

}  // namespace approxql::dist

#endif  // APPROXQL_DIST_REMOTE_SHARD_H_
