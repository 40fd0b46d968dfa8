// Annotated mutex / scoped-lock / condition-variable wrappers over the
// std primitives. std::mutex and std::condition_variable cannot carry
// Clang capability attributes, so every piece of locked state in the
// codebase goes through these types instead (tools/lint.py rejects raw
// std::mutex outside src/util/); thread_annotations.h explains the
// analysis and DESIGN.md §10 documents each module's locking model.
//
// The wrappers are deliberately thin — zero overhead beyond the std
// types they wrap — and deliberately small: Lock/Unlock, RAII
// MutexLock, and a CondVar whose Wait REQUIRES the mutex. Predicate waits are written as
// explicit `while (!pred) cv.Wait(&mu);` loops rather than a
// lambda-predicate overload: the analysis checks guarded accesses in
// the loop body directly, whereas a lambda would be analyzed as a
// separate unannotated function and every guarded read inside it would
// need an escape hatch.
#ifndef APPROXQL_UTIL_MUTEX_H_
#define APPROXQL_UTIL_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "util/thread_annotations.h"

namespace approxql::util {

class CondVar;

/// A standard (non-reentrant, non-shared) mutex the thread-safety
/// analysis can track. Same cost as std::mutex.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// RAII lock: acquires on construction, releases on scope exit.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

/// Condition variable bound to util::Mutex. Wait atomically releases
/// the mutex and reacquires it before returning, exactly like
/// std::condition_variable::wait; the REQUIRES annotation makes the
/// analysis enforce that callers hold the mutex across the call.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex* mu) REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu->mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // ownership stays with the caller's scope
  }

  /// Timed wait; false if `timeout` elapsed without a notification
  /// (the mutex is reacquired either way).
  template <typename Rep, typename Period>
  bool WaitFor(Mutex* mu, std::chrono::duration<Rep, Period> timeout)
      REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu->mu_, std::adopt_lock);
    std::cv_status status = cv_.wait_for(lock, timeout);
    lock.release();
    return status == std::cv_status::no_timeout;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace approxql::util

#endif  // APPROXQL_UTIL_MUTEX_H_
