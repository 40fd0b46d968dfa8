#include "service/query_service.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <utility>

#include "dist/shard_router.h"
#include "engine/fetch_plan.h"
#include "ingest/mutable_corpus.h"
#include "engine/list_ops.h"
#include "query/ast.h"
#include "query/separated.h"
#include "service/granularity.h"
#include "service/parallel.h"
#include "shard/sharded_database.h"
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
/// (ThreadPool::Shutdown(kAbandon)), the destructor invokes the
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

}  // namespace

namespace {

uint32_t FingerprintBackend(const shard::ShardedDatabase* sharded,
                            const dist::ShardRouter* router) {
  // A distributed and an in-process sharded backend over the same
  // layout share the fingerprint but not the tag: distributed answers
  // can be degraded, so they must never alias in the cache.
  if (router != nullptr) {
    return util::Crc32c("backend=dist") ^ router->layout_fingerprint();
  }
  if (sharded != nullptr) return sharded->LayoutFingerprint();
  return util::Crc32c("backend=single");
}

}  // namespace

QueryService::QueryService(const engine::Database& db, ServiceOptions options)
    : QueryService(&db, nullptr, nullptr, nullptr, std::move(options)) {}

QueryService::QueryService(const shard::ShardedDatabase& db,
                           ServiceOptions options)
    : QueryService(nullptr, &db, nullptr, nullptr, std::move(options)) {}

QueryService::QueryService(dist::ShardRouter& router, ServiceOptions options)
    : QueryService(nullptr, nullptr, &router, nullptr, std::move(options)) {}

QueryService::QueryService(const ingest::MutableCorpus& corpus,
                           ServiceOptions options)
    : QueryService(nullptr, nullptr, nullptr, &corpus, std::move(options)) {}

QueryService::QueryService(const engine::Database* db,
                           const shard::ShardedDatabase* sharded,
                           dist::ShardRouter* router,
                           const ingest::MutableCorpus* corpus,
                           ServiceOptions options)
    : db_(db),
      sharded_(sharded),
      router_(router),
      mutable_(corpus),
      backend_fingerprint_(FingerprintBackend(sharded, router)),
      backend_cost_fingerprint_(FingerprintCostModel(BackendCostModel())),
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
      parallel_tasks_(metrics_.RegisterCounter("query_parallel_tasks")),
      queue_depth_(metrics_.RegisterGauge("queue_depth")),
      thread_pool_queue_depth_(
          metrics_.RegisterGauge("thread_pool_queue_depth")),
      running_(metrics_.RegisterGauge("queries_running")),
      queue_wait_us_(metrics_.RegisterHistogram("queue_wait_us")),
      exec_latency_us_(metrics_.RegisterHistogram("exec_latency_us")),
      total_latency_us_(metrics_.RegisterHistogram("total_latency_us")),
      parallel_fetch_us_(metrics_.RegisterHistogram("parallel_fetch_us")),
      parallel_eval_us_(metrics_.RegisterHistogram("parallel_eval_us")),
      parallel_merge_us_(metrics_.RegisterHistogram("parallel_merge_us")),
      pool_(ThreadPool::Options{options.num_threads, options.queue_capacity}) {
}

// Abandon, don't drain: a service being torn down has nobody left to
// serve, and a deep queue of expensive queries would stall the teardown
// for their full execution time. The promise guard resolves every
// abandoned future with kUnavailable.
QueryService::~QueryService() { pool_.Shutdown(DrainMode::kAbandon); }

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

  // Mutable backend: pin this request to the corpus's current
  // generation — one consistent state for the cache key, the evaluation
  // and the reported epoch, however long the query runs.
  std::shared_ptr<const shard::ShardedDatabase> pinned;
  if (mutable_ != nullptr) pinned = mutable_->snapshot();

  // The one cache decision: key construction, lookup, the hit/miss
  // counters and the insert below all hang off it. Live-cluster routed
  // backend: the backend fingerprint is the static cluster
  // configuration, not the moving document layout, so a cached answer
  // could outlive the data it was computed from. Never cache.
  const bool use_cache = options_.cache_capacity > 0 &&
                         !request.bypass_cache &&
                         !(router_ != nullptr && router_->live());

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
    // The generation fingerprint is epoch-salted, so a cached answer
    // can only ever be served against the exact corpus state it was
    // computed from.
    key.backend_fingerprint =
        pinned != nullptr ? pinned->LayoutFingerprint() : backend_fingerprint_;
    if (auto cached = cache_.Lookup(key); cached != nullptr) {
      cache_hits_->Increment();
      completed_->Increment();
      QueryResponse r;
      r.answers = *cached;
      r.cache_hit = true;
      if (pinned != nullptr) {
        r.backend_epoch = pinned->epoch();
        r.backend_snapshot = pinned;
      }
      return finish(std::move(r));
    }
    cache_misses_->Increment();
  }

  // Deadline enforcement: the schema strategy polls cooperatively
  // between top-k rounds and second-level executions, producing a
  // correct-prefix partial answer. The direct strategies have no safe
  // interior stopping point (one recursive pass over the list algebra),
  // so their deadline is only checked at dispatch above. The parallel
  // path additionally polls between ParallelFor iterations — but a
  // partial disjunct union is *not* a correct prefix of the global
  // ranking, so a deadline there fails the request (kDeadlineExceeded)
  // instead of returning truncated answers.
  std::function<bool()> cancelled;
  if (has_deadline) {
    cancelled = [deadline] { return Clock::now() >= deadline; };
  }
  engine::ExecOptions exec = request.exec;
  engine::SchemaEvalStats schema_stats;
  if (exec.strategy == engine::Strategy::kSchema) {
    if (has_deadline) {
      exec.schema.cancelled = cancelled;
    }
    if (exec.schema_stats_out == nullptr) {
      exec.schema_stats_out = &schema_stats;
    }
  }

  const size_t parallelism = request.parallelism != 0 ? request.parallelism
                                                      : options_.parallelism;
  QueryResponse r;
  if (router_ != nullptr) {
    int64_t remaining_ms = 0;
    if (has_deadline) {
      remaining_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                         deadline - Clock::now())
                         .count();
      if (remaining_ms < 1) remaining_ms = 1;
    }
    r = RunRouted(request, remaining_ms);
  } else if (sharded_ != nullptr) {
    r = RunSharded(*sharded_, query, exec, parallelism, cancelled);
  } else if (pinned != nullptr) {
    r = RunSharded(*pinned, query, exec, parallelism, cancelled);
    r.backend_epoch = pinned->epoch();
    r.backend_snapshot = pinned;
  } else {
    bool handled =
        parallelism > 1 && RunParallel(query, exec, parallelism, cancelled, &r);
    if (!handled) {
      auto answers = db_->Execute(query, exec);
      if (answers.ok()) {
        r.answers = std::move(*answers);
      } else {
        r.status = answers.status();
      }
    }
  }

  if (!r.status.ok()) {
    if (r.status.IsDeadlineExceeded()) {
      deadline_exceeded_->Increment();
    } else {
      failed_->Increment();
    }
    r.answers.clear();
    return finish(std::move(r));
  }

  if (exec.strategy == engine::Strategy::kSchema &&
      exec.schema_stats_out->cancelled) {
    r.truncated = true;
    truncated_->Increment();
    deadline_exceeded_->Increment();
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

bool QueryService::RunParallel(const query::Query& query,
                               engine::ExecOptions& exec, size_t parallelism,
                               const std::function<bool()>& cancelled,
                               QueryResponse* out) {
  // The full-scan baseline deliberately ignores the index; the fetch
  // plan has nothing to offer it and a baseline should stay a baseline.
  if (exec.strategy == engine::Strategy::kFullScan) return false;
  const bool direct = exec.strategy == engine::Strategy::kDirect;

  const cost::CostModel& model =
      exec.cost_model != nullptr ? *exec.cost_model : db_->cost_model();

  // The separated representation is exponential in the or-count; when
  // it overflows its limit, the serial engines (which encode "or"
  // natively in the expanded DAG) handle the query instead.
  auto separated = query::SeparatedRepresentation(query);
  if (!separated.ok()) return false;
  const size_t disjuncts = separated->size();

  auto expanded = query::ExpandedQuery::Build(query, model);
  if (!expanded.ok()) return false;

  // Adaptive granularity: per-slot posting-size estimates for the full
  // query, from index statistics only (never a fetch). Below the floor
  // the fan-out overhead dominates the work being split — decline, and
  // the caller runs the serial path. For the schema strategy the data
  // postings still bound the instance-scanning volume, so the same
  // estimate serves both strategies.
  engine::FetchPlan plan(*expanded);
  std::vector<size_t> estimates(plan.size());
  for (size_t i = 0; i < plan.size(); ++i) {
    estimates[i] =
        plan.EstimateEntries(i, db_->label_index(), db_->tree().labels());
  }
  if (options_.parallel_min_work > 0 &&
      EstimateTotalWork(estimates) < options_.parallel_min_work) {
    return false;
  }

  ParallelForOptions pf;
  pf.parallelism = parallelism;
  pf.cancelled = cancelled;

  // Second-level wave runner injected into the schema evaluators (the
  // engine layer cannot depend on the pool). The runner contract
  // requires every index to execute, so no cancellation here — the
  // evaluator bounds each wave and polls its own cancellation between
  // waves, the same granularity as its serial loop.
  ParallelForOptions wave_pf;
  wave_pf.parallelism = parallelism;
  auto wave_runner = [this, wave_pf](size_t count,
                                     const std::function<void(size_t)>& fn) {
    ParallelForResult waved = ParallelFor(&pool_, count, fn, wave_pf);
    parallel_tasks_->Increment(waved.executed);
  };

  // Stage 1 (direct only): materialize every per-label index read of
  // the full query concurrently. Sub-queries fetch a subset of the full
  // query's (type, label, as_leaf) slots, so one plan serves them all.
  // A task per ~parallel_fetch_batch estimated entries instead of one
  // per slot: parallel_tasks scales with real work, not plan size.
  if (direct) {
    Clock::time_point fetch_started = Clock::now();
    const engine::EncodedTree tree = engine::EncodedTree::Of(db_->tree());
    const std::vector<size_t> batch_ends =
        PackBatches(estimates, options_.parallel_fetch_batch);
    ParallelForResult fetched = ParallelFor(
        &pool_, batch_ends.size(),
        [&](size_t b) {
          for (size_t i = b == 0 ? 0 : batch_ends[b - 1]; i < batch_ends[b];
               ++i) {
            plan.Materialize(i, tree, db_->label_index(),
                             db_->tree().labels());
          }
        },
        pf);
    parallel_tasks_->Increment(fetched.executed);
    parallel_fetch_us_->Record(
        static_cast<uint64_t>(MicrosSince(fetch_started)));
    if (fetched.cancelled) {
      out->parallel = true;
      out->status = util::Status::DeadlineExceeded(
          "deadline expired during parallel evaluation");
      return true;
    }
    exec.direct.fetch_plan = &plan;
  }

  if (disjuncts < 2) {
    // One conjunct: no disjunct fan-out. The direct strategy already
    // parallelized its fetch stage above; the schema strategy runs its
    // second-level rounds as concurrent waves instead.
    if (!direct) {
      exec.schema.parallel_runner = wave_runner;
      exec.schema.parallel_min_batch = options_.parallel_min_skeletons;
    }
    Clock::time_point eval_started = Clock::now();
    auto answers = db_->Execute(query, exec);
    parallel_eval_us_->Record(static_cast<uint64_t>(MicrosSince(eval_started)));
    if (answers.ok()) {
      out->answers = std::move(*answers);
    } else {
      out->status = answers.status();
    }
    out->parallel = true;
    return true;
  }

  // Stage 2: evaluate the disjuncts concurrently, each for the full
  // top n. Per-disjunct top-n lists suffice for the exact global top n:
  // every global answer's cost is its minimum over the disjuncts, and
  // any disjunct entry outside that disjunct's top n is dominated by n
  // better (cost, root) pairs which also reach the merge.
  struct Part {
    util::Status status = util::Status::OK();
    std::vector<engine::QueryAnswer> answers;
    engine::SchemaEvalStats schema_stats;
    engine::EvalStats direct_stats;
  };
  std::vector<query::Query> subqueries;
  subqueries.reserve(disjuncts);
  for (const query::ConjunctiveQuery& conjunct : *separated) {
    subqueries.push_back(conjunct.ToQuery());
  }
  std::vector<Part> parts(disjuncts);
  // Disjuncts differ only in their or-branch choices, so their skeleton
  // closures overlap heavily; a shared second-level memo lets whichever
  // disjunct executes a skeleton first answer it for all the others
  // (results are deterministic per signature, so sharing cannot change
  // answers — only skip re-execution).
  engine::SharedSkeletonMemo skeleton_memo;
  // The same granularity logic batches the disjuncts: consecutive
  // disjuncts whose combined estimated work stays under the floor share
  // one task instead of costing one each. An un-estimable disjunct
  // (expansion failed here; Execute will surface the error) counts as
  // unknown and gets its own task.
  std::vector<size_t> disjunct_work(disjuncts,
                                    index::PostingSource::kUnknownSize);
  if (options_.parallel_min_work > 0) {
    for (size_t i = 0; i < disjuncts; ++i) {
      auto sub_expanded = query::ExpandedQuery::Build(subqueries[i], model);
      if (!sub_expanded.ok()) continue;
      engine::FetchPlan sub_plan(*sub_expanded);
      std::vector<size_t> sub_estimates(sub_plan.size());
      for (size_t s = 0; s < sub_plan.size(); ++s) {
        sub_estimates[s] = sub_plan.EstimateEntries(s, db_->label_index(),
                                                    db_->tree().labels());
      }
      disjunct_work[i] = EstimateTotalWork(sub_estimates);
    }
  }
  const std::vector<size_t> disjunct_ends =
      PackBatches(disjunct_work, options_.parallel_min_work);
  Clock::time_point eval_started = Clock::now();
  ParallelForResult evaluated = ParallelFor(
      &pool_, disjunct_ends.size(),
      [&](size_t b) {
        for (size_t i = b == 0 ? 0 : disjunct_ends[b - 1];
             i < disjunct_ends[b]; ++i) {
          engine::ExecOptions sub = exec;
          sub.schema_stats_out = &parts[i].schema_stats;
          sub.direct_stats_out = &parts[i].direct_stats;
          if (sub.strategy == engine::Strategy::kSchema) {
            sub.schema.shared_memo = &skeleton_memo;
            // Disjunct tasks fork their second-level waves back into
            // the pool; idle workers (done with their own disjuncts)
            // steal that work instead of waiting at the barrier.
            sub.schema.parallel_runner = wave_runner;
            sub.schema.parallel_min_batch = options_.parallel_min_skeletons;
          }
          auto result = db_->Execute(subqueries[i], sub);
          if (result.ok()) {
            parts[i].answers = std::move(*result);
          } else {
            parts[i].status = result.status();
          }
        }
      },
      pf);
  parallel_tasks_->Increment(evaluated.executed);
  parallel_eval_us_->Record(static_cast<uint64_t>(MicrosSince(eval_started)));
  out->parallel = true;

  // Surface aggregate evaluator counters: sums for work counts, max for
  // final_k, OR for the flags — the caller sees the union of what the
  // disjunct evaluations did.
  if (exec.schema_stats_out != nullptr) {
    engine::SchemaEvalStats total;
    for (const Part& part : parts) {
      total.rounds += part.schema_stats.rounds;
      total.final_k = std::max(total.final_k, part.schema_stats.final_k);
      total.entries_created += part.schema_stats.entries_created;
      total.second_level_executed += part.schema_stats.second_level_executed;
      total.instances_scanned += part.schema_stats.instances_scanned;
      total.shared_memo_hits += part.schema_stats.shared_memo_hits;
      total.k_capped = total.k_capped || part.schema_stats.k_capped;
      total.cancelled = total.cancelled || part.schema_stats.cancelled;
    }
    *exec.schema_stats_out = total;
  }
  if (exec.direct_stats_out != nullptr) {
    engine::EvalStats total;
    for (const Part& part : parts) {
      total.fetches += part.direct_stats.fetches;
      total.entries_fetched += part.direct_stats.entries_fetched;
      total.list_ops += part.direct_stats.list_ops;
      total.cache_hits += part.direct_stats.cache_hits;
      total.cache_misses += part.direct_stats.cache_misses;
      total.and_short_circuits += part.direct_stats.and_short_circuits;
    }
    *exec.direct_stats_out = total;
  }

  for (const Part& part : parts) {
    if (!part.status.ok()) {
      out->status = part.status;
      return true;
    }
  }
  // A deadline mid-fan-out leaves some disjuncts partial or unrun; the
  // union of what finished is not a correct prefix of the global
  // ranking, so the request fails rather than under-answer silently.
  bool fired = evaluated.cancelled;
  for (const Part& part : parts) {
    fired = fired || part.schema_stats.cancelled;
  }
  if (fired) {
    out->status = util::Status::DeadlineExceeded(
        "deadline expired during parallel evaluation");
    if (exec.schema_stats_out != nullptr) {
      exec.schema_stats_out->cancelled = true;
    }
    return true;
  }

  // Stage 3: k-way merge of the per-disjunct rankings (first occurrence
  // of a root wins = its minimum cost over the disjuncts).
  Clock::time_point merge_started = Clock::now();
  std::vector<std::vector<engine::RootCost>> lists(disjuncts);
  for (size_t i = 0; i < disjuncts; ++i) {
    lists[i].reserve(parts[i].answers.size());
    for (const engine::QueryAnswer& answer : parts[i].answers) {
      lists[i].push_back({answer.root, answer.cost});
    }
  }
  std::vector<engine::RootCost> merged = engine::MergeTopN(lists, exec.n);
  out->answers.reserve(merged.size());
  for (const engine::RootCost& rc : merged) {
    out->answers.push_back({rc.root, rc.cost});
  }
  parallel_merge_us_->Record(static_cast<uint64_t>(MicrosSince(merge_started)));
  return true;
}

QueryResponse QueryService::RunSharded(const shard::ShardedDatabase& db,
                                       const query::Query& query,
                                       engine::ExecOptions& exec,
                                       size_t parallelism,
                                       const std::function<bool()>& cancelled) {
  QueryResponse r;
  shard::ScatterOptions scatter;
  scatter.pool = &pool_;
  scatter.parallelism = parallelism;
  scatter.cancelled = cancelled;
  shard::ScatterStats stats;
  Clock::time_point eval_started = Clock::now();
  auto answers = db.Execute(query, exec, scatter, &stats);
  parallel_eval_us_->Record(static_cast<uint64_t>(MicrosSince(eval_started)));
  parallel_tasks_->Increment(stats.shards.size());
  r.parallel = db.num_shards() > 1 && parallelism > 1;
  // Surface the aggregated evaluator counters through the caller's
  // stats slot (Run's truncation logic reads the cancelled flag there).
  if (exec.schema_stats_out != nullptr) {
    *exec.schema_stats_out = stats.schema;
  }
  if (exec.direct_stats_out != nullptr) {
    *exec.direct_stats_out = stats.direct;
  }
  if (answers.ok()) {
    r.answers = std::move(*answers);
  } else {
    r.status = answers.status();
  }
  return r;
}

QueryResponse QueryService::RunRouted(const QueryRequest& request,
                                      int64_t deadline_ms) {
  QueryResponse r;
  if (request.exec.cost_model != nullptr) {
    // Remote shards evaluate with their own (identically built) model;
    // shipping an arbitrary per-request model is not supported, and
    // silently ignoring it would poison the cost-fingerprinted cache.
    r.status = util::Status::InvalidArgument(
        "per-request cost models are not supported by the distributed "
        "backend");
    return r;
  }
  auto routed = router_->Execute(request.query_text, request.exec.strategy,
                                 request.exec.n, deadline_ms,
                                 request.min_epochs);
  if (!routed.ok()) {
    r.status = routed.status();
    return r;
  }
  r.answers = std::move(routed->answers);
  r.degraded = routed->degraded;
  r.missing_shards = std::move(routed->missing_shards);
  r.backend_epoch = routed->backend_epoch;
  r.parallel = router_->num_shards() > 1;
  return r;
}

const cost::CostModel& QueryService::BackendCostModel() const {
  if (router_ != nullptr) return router_->cost_model();
  if (mutable_ != nullptr) return mutable_->options().model;
  return sharded_ != nullptr ? sharded_->cost_model() : db_->cost_model();
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
  snapshot.parallel_tasks = parallel_tasks_->Value();
  snapshot.cache = cache_.GetStats();
  return snapshot;
}

std::string QueryService::DumpMetrics() const {
  std::string out = metrics_.DumpText();
  out += "thread_pool_steals " + std::to_string(pool_.steals()) + "\n";
  ResultCache::Stats cache = cache_.GetStats();
  out += "cache_evictions " + std::to_string(cache.evictions) + "\n";
  out += "cache_size " + std::to_string(cache.size) + "\n";
  out += "cache_capacity " + std::to_string(cache.capacity) + "\n";
  double total = static_cast<double>(cache.hits + cache.misses);
  char rate[32];
  std::snprintf(rate, sizeof(rate), "%.4f",
                total == 0 ? 0.0 : static_cast<double>(cache.hits) / total);
  out += std::string("cache_hit_rate ") + rate + "\n";
  if (sharded_ != nullptr) {
    out += sharded_->DumpMetrics();
  }
  if (router_ != nullptr) {
    out += router_->DumpMetrics();
  }
  if (mutable_ != nullptr) {
    // The corpus registry carries both the ingest_* metrics and the
    // per-shard fetch/eval metrics of every published generation.
    out += mutable_->metrics()->DumpText();
    std::vector<ingest::MutableCorpus::ShardStatus> statuses =
        mutable_->ShardStatuses();
    for (size_t i = 0; i < statuses.size(); ++i) {
      const std::string stem = "ingest_shard" + std::to_string(i);
      out += stem + "_documents " + std::to_string(statuses[i].documents) +
             "\n";
      out += stem + "_last_seq " + std::to_string(statuses[i].last_seq) + "\n";
      out += stem + "_wal_bytes " + std::to_string(statuses[i].wal_bytes) +
             "\n";
      out += stem + "_vlog_bytes " + std::to_string(statuses[i].vlog_bytes) +
             "\n";
    }
  }
  return out;
}

}  // namespace approxql::service
