// The concurrent serving layer over an immutable engine::Database: a
// fixed-size thread pool behind a bounded admission queue (overload is
// shed with kResourceExhausted instead of buffered), per-request
// deadlines enforced cooperatively between the schema strategy's top-k
// rounds (an expired deadline yields the partial answers found so far,
// flagged `truncated`), an LRU result cache, and a metrics registry
// covering the whole request lifecycle.
//
// One request runs on one worker: against a single Database it is one
// serial Database::Execute, which evaluates "or" natively in the
// expanded DAG (paper Section 6.1). The pool's cores go to concurrent
// requests. The only intra-request fan-out is the in-process shard
// scatter of the sharded and mutable-corpus backends, whose width is
// the request's `parallelism` (see DESIGN.md §7).
//
// Safe because Database's const query paths are thread-safe (see the
// contract in engine/database.h): workers share one Database without
// locks; all service-side shared state (queue, cache, metrics) locks
// internally.
#ifndef APPROXQL_SERVICE_QUERY_SERVICE_H_
#define APPROXQL_SERVICE_QUERY_SERVICE_H_

#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "engine/database.h"
#include "service/metrics.h"
#include "service/result_cache.h"
#include "service/thread_pool.h"

namespace approxql::shard {
class ShardedDatabase;
}  // namespace approxql::shard

namespace approxql::dist {
class ShardRouter;
}  // namespace approxql::dist

namespace approxql::ingest {
class MutableCorpus;
}  // namespace approxql::ingest

namespace approxql::service {

struct ServiceOptions {
  /// Worker threads; 0 = hardware concurrency.
  size_t num_threads = 8;
  /// Bounded admission queue; submissions beyond this are rejected.
  size_t queue_capacity = 128;
  /// LRU result-cache entries; 0 disables caching.
  size_t cache_capacity = 256;
  /// Deadline applied to requests that don't set one; zero = none.
  std::chrono::milliseconds default_deadline{0};
  /// Default shard-scatter width of the in-process sharded backends
  /// (concurrent shard evaluations per request, including the thread
  /// running the request). 1 = shards run one after another; requests
  /// can override per-call. No effect on a single Database. Results are
  /// identical either way.
  size_t parallelism = 1;
};

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
  /// Shard-scatter width override; 0 = ServiceOptions::parallelism.
  size_t parallelism = 0;
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
  /// Shards were evaluated concurrently (a multi-shard scatter at
  /// parallelism > 1, or a multi-shard router). Always false for a
  /// single Database and for cache hits.
  bool parallel = false;
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

class QueryService {
 public:
  /// `db` must outlive the service and must not be mutated (moved-from,
  /// destroyed) while the service exists.
  QueryService(const engine::Database& db, ServiceOptions options);
  /// Sharded backend: requests scatter-gather across the shards on this
  /// service's own worker pool (request `parallelism` bounds the
  /// concurrent shard evaluations). Results are bit-identical to the
  /// single-database backend over the same corpus; the cache key carries
  /// the backend's layout fingerprint, so answers never alias across
  /// backends or shard layouts.
  QueryService(const shard::ShardedDatabase& db, ServiceOptions options);
  /// Distributed backend: requests scatter-gather across REMOTE shard
  /// servers through the router (dist/shard_router.h). Healthy-cluster
  /// results are bit-identical to both in-process backends over the
  /// same corpus; with shards missing the response is `degraded` (and
  /// never cached) or, in the router's strict mode, kUnavailable. The
  /// cache key folds the router's layout fingerprint plus a distinct
  /// backend tag, so distributed answers never alias in-process ones.
  QueryService(dist::ShardRouter& router, ServiceOptions options);
  /// Mutable-corpus backend: every request takes the corpus's current
  /// generation and runs the in-process scatter-gather path against it,
  /// so queries keep serving (and stay bit-identical to a frozen
  /// ShardedDatabase over the same document set) while documents are
  /// ingested concurrently. The cache key carries the generation's
  /// epoch-salted fingerprint, so cached answers never survive a
  /// mutation.
  QueryService(const ingest::MutableCorpus& corpus, ServiceOptions options);
  /// Abandons queued requests (their futures resolve with kUnavailable)
  /// and joins the workers; in-flight requests finish first.
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Admits a request. The future is always valid: rejection (queue
  /// full) resolves it immediately with kResourceExhausted.
  std::future<QueryResponse> Submit(QueryRequest request);

  /// Callback flavor of Submit, for callers that integrate with an
  /// event loop instead of blocking on futures (the network server).
  /// `done` is invoked exactly once — from a worker thread on normal
  /// completion, or inline from the calling thread on admission
  /// rejection (kResourceExhausted) and from the teardown path on
  /// abandonment (kUnavailable). It must not throw and must tolerate
  /// running on any of those threads.
  void SubmitAsync(QueryRequest request,
                   std::function<void(QueryResponse)> done);

  /// Runs a request synchronously on the caller's thread — same cache,
  /// deadline and metrics treatment, but no admission control.
  QueryResponse ExecuteNow(QueryRequest request);

  /// Drops all cached results (e.g. when the caller swaps databases).
  void InvalidateCache();

  /// Point-in-time service state for programmatic inspection.
  struct Snapshot {
    size_t queue_depth = 0;
    int64_t running = 0;
    uint64_t submitted = 0;
    uint64_t rejected = 0;
    uint64_t completed = 0;
    uint64_t failed = 0;
    uint64_t deadline_exceeded = 0;
    uint64_t truncated = 0;
    uint64_t abandoned = 0;       // queued requests dropped at shutdown
    uint64_t parallel_tasks = 0;  // shard evaluations scattered
    ResultCache::Stats cache;
  };
  Snapshot GetSnapshot() const;

  /// Registry dump plus cache and queue lines; the serve driver prints
  /// this verbatim.
  std::string DumpMetrics() const;

  const ServiceOptions& options() const { return options_; }

 private:
  using Clock = std::chrono::steady_clock;

  QueryService(const engine::Database* db, const shard::ShardedDatabase* sharded,
               dist::ShardRouter* router, const ingest::MutableCorpus* corpus,
               ServiceOptions options);

  /// The worker-side request lifecycle (also the ExecuteNow body).
  QueryResponse Run(QueryRequest& request, Clock::time_point admitted);

  /// Scatter-gather execution against the sharded backend (sharded_
  /// != nullptr). Mirrors the serial path's deadline and truncation
  /// semantics.
  QueryResponse RunSharded(const shard::ShardedDatabase& db,
                           const query::Query& query, engine::ExecOptions& exec,
                           size_t parallelism,
                           const std::function<bool()>& cancelled);

  /// Remote scatter-gather through router_. The router blocks this
  /// worker thread while its transports fan out; `deadline_ms` is the
  /// request's remaining budget (0 = none).
  QueryResponse RunRouted(const QueryRequest& request, int64_t deadline_ms);

  const cost::CostModel& BackendCostModel() const;

  std::chrono::milliseconds EffectiveDeadline(
      const QueryRequest& request) const {
    return request.deadline.count() != 0 ? request.deadline
                                         : options_.default_deadline;
  }

  /// Exactly one backend is set. Requests dispatch to db_ (serial), to
  /// sharded_ or mutable_'s current generation (in-process
  /// scatter-gather), or to router_ (remote scatter-gather).
  const engine::Database* db_ = nullptr;
  const shard::ShardedDatabase* sharded_ = nullptr;
  dist::ShardRouter* router_ = nullptr;
  const ingest::MutableCorpus* mutable_ = nullptr;
  /// Folded into every cache key (see CacheKey::backend_fingerprint).
  uint32_t backend_fingerprint_ = 0;
  /// FingerprintCostModel(BackendCostModel()), computed once: every
  /// backend's model is immutable after construction. The cache key of
  /// a request without its own cost model carries this value.
  uint32_t backend_cost_fingerprint_ = 0;
  const ServiceOptions options_;
  ResultCache cache_;
  MetricsRegistry metrics_;

  Counter* submitted_;
  Counter* rejected_;
  Counter* completed_;
  Counter* failed_;
  Counter* deadline_exceeded_;
  Counter* truncated_;
  Counter* cache_hits_;
  Counter* cache_misses_;
  Counter* abandoned_;
  /// Completed schema runs that stopped at SchemaEvaluator::Options::
  /// max_k (their answer lists may be short); counted here instead of
  /// logged per query.
  Counter* k_capped_;
  Counter* parallel_tasks_;
  Gauge* queue_depth_;
  /// ThreadPool::QueueDepth() sampled at submit and completion — the
  /// wire-level backpressure signal (how close admission is to
  /// rejecting), readable from DumpText without a Snapshot call.
  Gauge* thread_pool_queue_depth_;
  Gauge* running_;
  LatencyHistogram* queue_wait_us_;
  LatencyHistogram* exec_latency_us_;
  LatencyHistogram* total_latency_us_;
  /// Shard-scatter evaluation time (sharded and mutable backends).
  LatencyHistogram* parallel_eval_us_;

  ThreadPool pool_;  // last member: workers stop before metrics die
};

}  // namespace approxql::service

#endif  // APPROXQL_SERVICE_QUERY_SERVICE_H_
