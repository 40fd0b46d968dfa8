// Fork-join primitives over the service ThreadPool: a CountDownLatch
// and a ParallelFor that fans loop iterations out to pool workers while
// the calling thread participates in the work.
//
// Deadlock freedom: ParallelFor never *requires* a pool worker. Helper
// tasks are submitted best-effort with TrySubmit; iterations are claimed
// from a shared atomic cursor, and the caller claims too, so a full
// queue (or a pool whose workers are all busy running ParallelFor
// callers themselves) degrades to the caller executing everything
// inline. This is what makes the in-process shard scatter (the one
// user, shard/sharded_database.h) safe to run *on* the query service's
// own pool: a worker that forks shard tasks into the pool it occupies
// can always finish alone.
#ifndef APPROXQL_SERVICE_PARALLEL_H_
#define APPROXQL_SERVICE_PARALLEL_H_

#include <cstddef>
#include <functional>

#include "service/thread_pool.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace approxql::service {

/// A one-shot barrier: Wait blocks until the count reaches zero.
class CountDownLatch {
 public:
  explicit CountDownLatch(size_t count) : remaining_(count) {}

  CountDownLatch(const CountDownLatch&) = delete;
  CountDownLatch& operator=(const CountDownLatch&) = delete;

  void CountDown(size_t n = 1);
  void Wait();

 private:
  util::Mutex mu_;
  util::CondVar zero_;
  size_t remaining_ GUARDED_BY(mu_);
};

struct ParallelForOptions {
  /// Maximum concurrent executors including the calling thread
  /// (helpers submitted to the pool = parallelism - 1). 0 = pool
  /// thread count + 1.
  size_t parallelism = 0;
  /// Cooperative cancellation, polled between iterations (never
  /// mid-iteration). Once it fires, unclaimed iterations are skipped.
  std::function<bool()> cancelled;
};

struct ParallelForResult {
  size_t executed = 0;  // iterations whose body ran to completion
  size_t skipped = 0;   // iterations skipped after cancellation fired
  bool cancelled = false;
};

/// Runs fn(0) .. fn(count - 1), distributed over `pool` workers plus the
/// calling thread; returns once every iteration has either run or been
/// skipped. The first exception thrown by `fn` is captured and rethrown
/// on the calling thread (remaining unclaimed iterations are skipped).
/// `pool` may be null (everything runs inline on the caller).
ParallelForResult ParallelFor(ThreadPool* pool, size_t count,
                              std::function<void(size_t)> fn,
                              const ParallelForOptions& options = {});

}  // namespace approxql::service

#endif  // APPROXQL_SERVICE_PARALLEL_H_
