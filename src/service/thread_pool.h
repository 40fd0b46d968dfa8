// A fixed-size worker pool behind a bounded FIFO admission queue.
//
// TrySubmit never blocks: it returns false when the queue is full (or
// the pool is shutting down), which is what lets the query service shed
// load with an explicit rejection instead of buffering unbounded work —
// overload degrades to fast failures, not OOM. The bound applies to
// every submitter, pool workers included. Each task runs to completion
// on one worker: nothing in the library forks a task into the pool it
// runs on, so no submitter needs an exemption from the bound.
#ifndef APPROXQL_SERVICE_THREAD_POOL_H_
#define APPROXQL_SERVICE_THREAD_POOL_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace approxql::service {

class ThreadPool {
 public:
  struct Options {
    /// Worker count; 0 = hardware_concurrency (min 1).
    size_t num_threads = 0;
    /// Max tasks waiting in the queue (excluding the ones running).
    /// TrySubmit fails beyond this.
    size_t queue_capacity = 256;
  };

  explicit ThreadPool(Options options);
  /// Calls Shutdown().
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `task`; false when the queue holds queue_capacity tasks
  /// or Shutdown began.
  bool TrySubmit(std::function<void()> task);

  /// Tasks currently waiting (excluding the ones running).
  size_t QueueDepth() const;

  /// Stops admission, abandons the queue, and joins workers once their
  /// running tasks finish. Idempotent. Abandoned tasks are destroyed
  /// without running — callers whose tasks carry completion obligations
  /// (promises) must discharge them from the task's destructor.
  void Shutdown();

 private:
  void WorkerLoop();

  mutable util::Mutex mu_;
  util::CondVar work_available_;
  std::deque<std::function<void()>> queue_ GUARDED_BY(mu_);
  bool shutdown_ GUARDED_BY(mu_) = false;
  const size_t queue_capacity_;
  /// Written only by the constructor and Shutdown (which joins every
  /// worker before clearing); workers never touch it.
  std::vector<std::thread> workers_;
};

}  // namespace approxql::service

#endif  // APPROXQL_SERVICE_THREAD_POOL_H_
