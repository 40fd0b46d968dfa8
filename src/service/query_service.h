// The concurrent serving layer over one query backend (service/
// backend.h): a fixed-size thread pool behind a bounded admission queue
// (overload is shed with kResourceExhausted instead of buffered),
// per-request deadlines enforced cooperatively between the schema
// strategy's top-k rounds (an expired deadline yields the partial
// answers found so far, flagged `truncated`), an LRU result cache, and
// a metrics registry covering the whole request lifecycle.
//
// One request runs on one worker, serially: against a single Database
// it is one Database::Execute, which evaluates "or" natively in the
// expanded DAG (paper Section 6.1); against the sharded and
// mutable-corpus backends it is one loop over the shards. The pool's
// cores go to concurrent requests (see DESIGN.md §7).
//
// Safe because every backend's query path is const and thread-safe
// (see the contract in engine/database.h): workers share one backend
// without locks; all service-side shared state (queue, cache, metrics)
// locks internally.
#ifndef APPROXQL_SERVICE_QUERY_SERVICE_H_
#define APPROXQL_SERVICE_QUERY_SERVICE_H_

#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "engine/database.h"
#include "service/backend.h"
#include "service/metrics.h"
#include "service/result_cache.h"
#include "service/thread_pool.h"

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
};

class QueryService {
 public:
  /// `db` must outlive the service and must not be mutated (moved-from,
  /// destroyed) while the service exists. Requests run as one serial
  /// Database::Execute each.
  QueryService(const engine::Database& db, ServiceOptions options);
  /// Any other backend: a shard::ShardedDatabase, an
  /// ingest::MutableCorpus or a dist::ShardRouter. `backend` must
  /// outlive the service.
  QueryService(const Backend& backend, ServiceOptions options);
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
    uint64_t abandoned = 0;  // queued requests dropped at shutdown
    ResultCache::Stats cache;
  };
  Snapshot GetSnapshot() const;

  /// Registry dump plus cache and queue lines, then the backend's own
  /// lines; the serve driver prints this verbatim.
  std::string DumpMetrics() const;

  const ServiceOptions& options() const { return options_; }
  const Backend& backend() const { return backend_; }

 private:
  using Clock = std::chrono::steady_clock;

  /// The Database constructor's body: owns the adapter `owned` and
  /// serves through it.
  QueryService(std::unique_ptr<const Backend> owned, ServiceOptions options);

  /// The worker-side request lifecycle (also the ExecuteNow body).
  QueryResponse Run(QueryRequest& request, Clock::time_point admitted);

  std::chrono::milliseconds EffectiveDeadline(
      const QueryRequest& request) const {
    return request.deadline.count() != 0 ? request.deadline
                                         : options_.default_deadline;
  }

  /// Set only by the Database constructor; backend_ refers to it.
  std::unique_ptr<const Backend> owned_backend_;
  const Backend& backend_;
  /// FingerprintCostModel(backend_.cost_model()), computed once: every
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
  Gauge* queue_depth_;
  /// ThreadPool::QueueDepth() sampled at submit and completion — the
  /// wire-level backpressure signal (how close admission is to
  /// rejecting), readable from DumpText without a Snapshot call.
  Gauge* thread_pool_queue_depth_;
  Gauge* running_;
  LatencyHistogram* queue_wait_us_;
  LatencyHistogram* exec_latency_us_;
  LatencyHistogram* total_latency_us_;

  ThreadPool pool_;  // last member: workers stop before metrics die
};

}  // namespace approxql::service

#endif  // APPROXQL_SERVICE_QUERY_SERVICE_H_
