#include "service/thread_pool.h"

#include <algorithm>
#include <utility>

namespace approxql::service {

ThreadPool::ThreadPool(Options options)
    : queue_capacity_(options.queue_capacity) {
  size_t n = options.num_threads;
  if (n == 0) {
    n = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

bool ThreadPool::TrySubmit(std::function<void()> task) {
  {
    util::MutexLock lock(&mu_);
    if (shutdown_ || queue_.size() >= queue_capacity_) return false;
    queue_.push_back(std::move(task));
  }
  work_available_.NotifyOne();
  return true;
}

size_t ThreadPool::QueueDepth() const {
  util::MutexLock lock(&mu_);
  return queue_.size();
}

void ThreadPool::Shutdown() {
  std::deque<std::function<void()>> abandoned;
  {
    util::MutexLock lock(&mu_);
    shutdown_ = true;
    abandoned.swap(queue_);
  }
  // Destroy abandoned tasks outside the lock: their captures may run
  // arbitrary destructors (promise guards that notify waiters, etc.).
  abandoned.clear();
  work_available_.NotifyAll();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      util::MutexLock lock(&mu_);
      while (!shutdown_ && queue_.empty()) work_available_.Wait(&mu_);
      if (shutdown_) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

}  // namespace approxql::service
