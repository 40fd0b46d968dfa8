// The seam between QueryService's request lifecycle (admission,
// deadlines, result cache, metrics) and what evaluates the query:
// engine::Database (through an adapter in query_service.cc),
// shard::ShardedDatabase, ingest::MutableCorpus and dist::ShardRouter
// implement it, so the service names none of them. Per request, Pin()
// runs once BEFORE the cache lookup and Execute() evaluates against
// exactly that pin. Degraded and truncated responses are never cached,
// and a backend that is not cacheable() never touches the cache. Every
// method is const and thread-safe.
#ifndef APPROXQL_SERVICE_BACKEND_H_
#define APPROXQL_SERVICE_BACKEND_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "engine/database.h"
#include "util/status.h"

namespace approxql::shard {
class ShardedDatabase;
}  // namespace approxql::shard

namespace approxql::service {

struct QueryRequest {
  std::string query_text;
  /// Strategy, n, per-query cost model and evaluator knobs. The
  /// schema.cancelled hook is owned by the service (overwritten when a
  /// deadline applies).
  engine::ExecOptions exec;
  /// Per-request deadline from admission; zero = use
  /// ServiceOptions::default_deadline. A negative value is a deadline
  /// already in the past (deterministic expiry, used by tests).
  std::chrono::milliseconds deadline{0};
  /// Skip cache lookup and insertion for this request.
  bool bypass_cache = false;
  /// Live-cluster routed backend only: read-your-writes floors.
  /// min_epochs[i] is the minimum ingest epoch cluster shard i's answer
  /// must have been computed under (from WireIngestAck::epoch of the
  /// caller's own acked writes); shards beyond the vector have no
  /// floor. Ignored by every other backend.
  std::vector<uint64_t> min_epochs;
};

struct QueryResponse {
  util::Status status = util::Status::OK();
  std::vector<engine::QueryAnswer> answers;
  /// Deadline fired mid-evaluation: `answers` is a correct but possibly
  /// short prefix of the best results (schema strategy only).
  bool truncated = false;
  bool cache_hit = false;
  /// Distributed backend only: one or more shards never answered, so
  /// `answers` covers only the shards that did. Degraded responses are
  /// NEVER cached — a repeat of the query re-asks the cluster.
  bool degraded = false;
  std::vector<uint32_t> missing_shards;
  /// Mutable-corpus backend: the ingest epoch of the snapshot this
  /// response was evaluated against. Live-cluster routed backend: the
  /// minimum epoch across the shard answers merged into this response
  /// (the read-your-writes watermark). 0 elsewhere. Lets ingesting
  /// clients tell whether a query already sees their last write.
  uint64_t backend_epoch = 0;
  /// Mutable-corpus backend only: the exact generation this response
  /// was evaluated against (or, on a cache hit, the generation whose
  /// fingerprint keyed the hit). The network server reverse-translates
  /// global answer ids to shard-local ids against precisely this
  /// snapshot — never a newer one.
  std::shared_ptr<const shard::ShardedDatabase> backend_snapshot;
  int64_t queue_micros = 0;  // admission-to-start wait
  int64_t exec_micros = 0;   // parse + evaluate (0 on cache hit)
  int64_t total_micros = 0;  // admission-to-response
};

/// One request's view of a backend. `fingerprint` is the cache key's
/// backend component (a moving backend salts it with the pinned state);
/// `epoch` and `snapshot` are stamped on the response, cache hits too.
struct BackendPin {
  uint32_t fingerprint = 0;
  uint64_t epoch = 0;
  std::shared_ptr<const shard::ShardedDatabase> snapshot;
};

class Backend {
 public:
  using Clock = std::chrono::steady_clock;

  virtual ~Backend() = default;

  virtual BackendPin Pin() const = 0;

  /// Evaluates `query` (request.query_text, parsed) against `pin` with
  /// `exec` (request.exec plus the service's deadline hook and stats
  /// slots, which Execute fills) on the calling thread, the service
  /// worker that admitted the request. The deadline is absolute.
  virtual QueryResponse Execute(const BackendPin& pin,
                                const query::Query& query,
                                const QueryRequest& request,
                                const engine::ExecOptions& exec,
                                std::optional<Clock::time_point> deadline)
      const = 0;

  /// The model of requests without their own; immutable.
  virtual const cost::CostModel& cost_model() const = 0;
  /// False when the pin cannot name the data answers came from.
  virtual bool cacheable() const { return true; }
  /// Document root containing answer root `node` (for the wire layer).
  virtual doc::NodeId DocRootOf(doc::NodeId node) const = 0;
  /// Backend metric lines, appended to the service's dump.
  virtual std::string DumpMetrics() const { return {}; }

 protected:
  Backend() = default;
  Backend(const Backend&) = default;
  Backend(Backend&&) = default;
  Backend& operator=(const Backend&) = default;
  Backend& operator=(Backend&&) = default;
};

}  // namespace approxql::service

#endif  // APPROXQL_SERVICE_BACKEND_H_
