#include "service/query_service.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <utility>

#include "query/ast.h"
#include "util/crc32.h"

namespace approxql::service {

namespace {

int64_t MicrosSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Owns a submitted request's completion callback until the worker
/// takes it. If the task is destroyed without running
/// (ThreadPool::Shutdown), the destructor invokes the
/// callback with kUnavailable — no caller is ever left waiting on a
/// completion that will never come.
class PendingResponse {
 public:
  PendingResponse(std::function<void(QueryResponse)> done, Gauge* queue_depth,
                  Counter* abandoned)
      : done_(std::move(done)),
        queue_depth_(queue_depth),
        abandoned_(abandoned) {}

  PendingResponse(const PendingResponse&) = delete;
  PendingResponse& operator=(const PendingResponse&) = delete;

  ~PendingResponse() {
    if (!done_) return;
    queue_depth_->Decrement();
    abandoned_->Increment();
    QueryResponse response;
    response.status =
        util::Status::Unavailable("service shut down before the request ran");
    done_(std::move(response));
  }

  std::function<void(QueryResponse)> Take() { return std::move(done_); }

 private:
  std::function<void(QueryResponse)> done_;
  Gauge* queue_depth_;
  Counter* abandoned_;
};

/// engine::Database as a Backend: one serial Database::Execute per
/// request. It lives here rather than in engine/ so the engine stays
/// below the service.
class DatabaseBackend final : public Backend {
 public:
  explicit DatabaseBackend(const engine::Database& db) : db_(db) {}

  BackendPin Pin() const override {
    static const uint32_t kFingerprint = util::Crc32c("backend=single");
    return {kFingerprint, 0, nullptr};
  }

  QueryResponse Execute(const BackendPin&, const query::Query& query,
                        const QueryRequest&, const engine::ExecOptions& exec,
                        std::optional<Clock::time_point>) const override {
    QueryResponse r;
    auto answers = db_.Execute(query, exec);
    if (answers.ok()) {
      r.answers = std::move(*answers);
    } else {
      r.status = answers.status();
    }
    return r;
  }

  const cost::CostModel& cost_model() const override {
    return db_.cost_model();
  }

  // Walks parents to the child of the super-root (Database keeps no
  // document table).
  doc::NodeId DocRootOf(doc::NodeId node) const override {
    const doc::DataTree& tree = db_.tree();
    if (node == tree.root() || node >= tree.size()) return node;
    doc::NodeId current = node;
    for (;;) {
      doc::NodeId parent = tree.node(current).parent;
      if (parent == tree.root() || parent == doc::kInvalidNode) {
        return current;
      }
      current = parent;
    }
  }

 private:
  const engine::Database& db_;
};

}  // namespace

QueryService::QueryService(const engine::Database& db, ServiceOptions options)
    : QueryService(std::make_unique<DatabaseBackend>(db), std::move(options)) {}

QueryService::QueryService(std::unique_ptr<const Backend> owned,
                           ServiceOptions options)
    : QueryService(*owned, std::move(options)) {
  owned_backend_ = std::move(owned);
}

QueryService::QueryService(const Backend& backend, ServiceOptions options)
    : backend_(backend),
      backend_cost_fingerprint_(FingerprintCostModel(backend.cost_model())),
      options_(options),
      cache_(options.cache_capacity),
      submitted_(metrics_.RegisterCounter("queries_submitted")),
      rejected_(metrics_.RegisterCounter("queries_rejected")),
      completed_(metrics_.RegisterCounter("queries_completed")),
      failed_(metrics_.RegisterCounter("queries_failed")),
      deadline_exceeded_(metrics_.RegisterCounter("queries_deadline_exceeded")),
      truncated_(metrics_.RegisterCounter("queries_truncated")),
      cache_hits_(metrics_.RegisterCounter("cache_hits")),
      cache_misses_(metrics_.RegisterCounter("cache_misses")),
      abandoned_(metrics_.RegisterCounter("queries_abandoned")),
      k_capped_(metrics_.RegisterCounter("queries_k_capped")),
      queue_depth_(metrics_.RegisterGauge("queue_depth")),
      thread_pool_queue_depth_(
          metrics_.RegisterGauge("thread_pool_queue_depth")),
      running_(metrics_.RegisterGauge("queries_running")),
      queue_wait_us_(metrics_.RegisterHistogram("queue_wait_us")),
      exec_latency_us_(metrics_.RegisterHistogram("exec_latency_us")),
      total_latency_us_(metrics_.RegisterHistogram("total_latency_us")),
      pool_(ThreadPool::Options{options.num_threads, options.queue_capacity}) {
}

// Abandon, don't drain: a service being torn down has nobody left to
// serve, and a deep queue of expensive queries would stall the teardown
// for their full execution time. The promise guard resolves every
// abandoned future with kUnavailable.
QueryService::~QueryService() { pool_.Shutdown(); }

std::future<QueryResponse> QueryService::Submit(QueryRequest request) {
  auto promise = std::make_shared<std::promise<QueryResponse>>();
  std::future<QueryResponse> future = promise->get_future();
  SubmitAsync(std::move(request), [promise](QueryResponse response) {
    promise->set_value(std::move(response));
  });
  return future;
}

void QueryService::SubmitAsync(QueryRequest request,
                               std::function<void(QueryResponse)> done) {
  submitted_->Increment();
  Clock::time_point admitted = Clock::now();
  auto pending = std::make_shared<PendingResponse>(std::move(done),
                                                   queue_depth_, abandoned_);
  auto task = [this, pending, admitted,
               request = std::move(request)]() mutable {
    auto taken = pending->Take();
    queue_depth_->Decrement();
    taken(Run(request, admitted));
  };
  queue_depth_->Increment();
  if (!pool_.TrySubmit(std::move(task))) {
    // The rejected closure is already destroyed, but SubmitAsync's own
    // `pending` reference kept the guard alive; taking the callback
    // here disarms it so rejection completes exactly once.
    auto taken = pending->Take();
    queue_depth_->Decrement();
    rejected_->Increment();
    thread_pool_queue_depth_->Set(static_cast<int64_t>(pool_.QueueDepth()));
    QueryResponse response;
    response.status = util::Status::ResourceExhausted(
        "admission queue full (" + std::to_string(options_.queue_capacity) +
        " waiting)");
    taken(std::move(response));
    return;
  }
  thread_pool_queue_depth_->Set(static_cast<int64_t>(pool_.QueueDepth()));
}

QueryResponse QueryService::ExecuteNow(QueryRequest request) {
  submitted_->Increment();
  return Run(request, Clock::now());
}

QueryResponse QueryService::Run(QueryRequest& request,
                                Clock::time_point admitted) {
  QueryResponse response;
  response.queue_micros = MicrosSince(admitted);
  queue_wait_us_->Record(static_cast<uint64_t>(response.queue_micros));
  running_->Increment();
  Clock::time_point started = Clock::now();

  const std::chrono::milliseconds deadline_ms = EffectiveDeadline(request);
  const bool has_deadline = deadline_ms.count() != 0;
  const Clock::time_point deadline = admitted + deadline_ms;

  auto finish = [&](QueryResponse&& r) {
    r.queue_micros = response.queue_micros;
    r.exec_micros = MicrosSince(started);
    r.total_micros = MicrosSince(admitted);
    exec_latency_us_->Record(static_cast<uint64_t>(r.exec_micros));
    total_latency_us_->Record(static_cast<uint64_t>(r.total_micros));
    running_->Decrement();
    thread_pool_queue_depth_->Set(static_cast<int64_t>(pool_.QueueDepth()));
    return std::move(r);
  };

  // A request that spent its whole deadline waiting in the queue fails
  // fast instead of burning a worker on an answer nobody awaits.
  if (has_deadline && Clock::now() >= deadline) {
    deadline_exceeded_->Increment();
    QueryResponse r;
    r.status = util::Status::DeadlineExceeded("deadline expired in queue");
    return finish(std::move(r));
  }

  auto parsed = query::Parse(request.query_text);
  if (!parsed.ok()) {
    failed_->Increment();
    QueryResponse r;
    r.status = parsed.status();
    return finish(std::move(r));
  }
  const query::Query& query = *parsed;

  // One consistent backend state for the cache key, the evaluation and
  // the reported epoch, however long the query runs (a mutable corpus
  // pins its current generation here).
  const BackendPin pin = backend_.Pin();

  // The one cache decision: key construction, lookup, the hit/miss
  // counters and the insert below all hang off it.
  const bool use_cache = options_.cache_capacity > 0 &&
                         !request.bypass_cache && backend_.cacheable();

  // Fingerprinting a cost model serializes every table in it, which for
  // a large model costs more than the query itself: the backend model's
  // fingerprint is precomputed, and a per-request model is fingerprinted
  // only when the cache is consulted.
  CacheKey key;
  if (use_cache) {
    key.normalized_query = query.ToString();
    key.strategy = request.exec.strategy;
    key.n = request.exec.n;
    key.cost_fingerprint = request.exec.cost_model != nullptr
                               ? FingerprintCostModel(*request.exec.cost_model)
                               : backend_cost_fingerprint_;
    key.backend_fingerprint = pin.fingerprint;
    if (auto cached = cache_.Lookup(key); cached != nullptr) {
      cache_hits_->Increment();
      completed_->Increment();
      QueryResponse r;
      r.answers = *cached;
      r.cache_hit = true;
      r.backend_epoch = pin.epoch;
      r.backend_snapshot = pin.snapshot;
      return finish(std::move(r));
    }
    cache_misses_->Increment();
  }

  // Deadline enforcement: the schema strategy polls cooperatively
  // between top-k rounds and second-level executions, producing a
  // correct-prefix partial answer. The direct strategies have no safe
  // interior stopping point (one recursive pass over the list algebra),
  // so their deadline is only checked at dispatch above. The shard
  // scatter additionally polls between shards — but a partial shard
  // union is *not* a correct prefix of the global ranking, so a
  // deadline there fails the request (kDeadlineExceeded) instead of
  // returning truncated answers.
  engine::ExecOptions exec = request.exec;
  engine::SchemaEvalStats schema_stats;
  if (exec.strategy == engine::Strategy::kSchema) {
    if (has_deadline) {
      exec.schema.cancelled = [deadline] { return Clock::now() >= deadline; };
    }
    if (exec.schema_stats_out == nullptr) {
      exec.schema_stats_out = &schema_stats;
    }
  }

  QueryResponse r = backend_.Execute(
      pin, query, request, exec,
      has_deadline ? std::optional<Clock::time_point>(deadline)
                   : std::nullopt);

  if (!r.status.ok()) {
    if (r.status.IsDeadlineExceeded()) {
      deadline_exceeded_->Increment();
    } else {
      failed_->Increment();
    }
    r.answers.clear();
    return finish(std::move(r));
  }

  if (exec.strategy == engine::Strategy::kSchema) {
    if (exec.schema_stats_out->cancelled) {
      r.truncated = true;
      truncated_->Increment();
      deadline_exceeded_->Increment();
    }
    if (exec.schema_stats_out->k_capped) k_capped_->Increment();
  }
  completed_->Increment();
  // Only complete answer lists are cacheable; a truncated prefix (or a
  // degraded scatter missing whole shards' answers) served from cache
  // would silently under-answer future requests.
  if (use_cache && !r.truncated && !r.degraded) {
    cache_.Insert(key, r.answers);
  }
  return finish(std::move(r));
}

void QueryService::InvalidateCache() { cache_.Invalidate(); }

QueryService::Snapshot QueryService::GetSnapshot() const {
  Snapshot snapshot;
  snapshot.queue_depth = pool_.QueueDepth();
  snapshot.running = running_->Value();
  snapshot.submitted = submitted_->Value();
  snapshot.rejected = rejected_->Value();
  snapshot.completed = completed_->Value();
  snapshot.failed = failed_->Value();
  snapshot.deadline_exceeded = deadline_exceeded_->Value();
  snapshot.truncated = truncated_->Value();
  snapshot.abandoned = abandoned_->Value();
  snapshot.cache = cache_.GetStats();
  return snapshot;
}

std::string QueryService::DumpMetrics() const {
  std::string out = metrics_.DumpText();
  ResultCache::Stats cache = cache_.GetStats();
  out += "cache_evictions " + std::to_string(cache.evictions) + "\n";
  out += "cache_size " + std::to_string(cache.size) + "\n";
  out += "cache_capacity " + std::to_string(cache.capacity) + "\n";
  double total = static_cast<double>(cache.hits + cache.misses);
  char rate[32];
  std::snprintf(rate, sizeof(rate), "%.4f",
                total == 0 ? 0.0 : static_cast<double>(cache.hits) / total);
  out += std::string("cache_hit_rate ") + rate + "\n";
  out += backend_.DumpMetrics();
  return out;
}

}  // namespace approxql::service
