#include "util/mutex.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "util/thread_annotations.h"

namespace approxql::util {
namespace {

TEST(MutexTest, LockUnlockRoundTrip) {
  Mutex mu;
  mu.Lock();
  mu.Unlock();
  mu.Lock();
  mu.Unlock();
}

TEST(MutexTest, MutualExclusionUnderContention) {
  Mutex mu;
  // Deliberately non-atomic: only the mutex keeps this consistent. TSan
  // (the CI leg) would flag any exclusion failure as a data race; the
  // final count catches lost updates in every build flavor.
  int64_t counter = 0;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i) {
        MutexLock lock(&mu);
        ++counter;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  MutexLock lock(&mu);
  EXPECT_EQ(counter, static_cast<int64_t>(kThreads) * kIncrements);
}

TEST(CondVarTest, WaitWakesOnNotify) {
  Mutex mu;
  CondVar cv;
  bool ready = false;
  std::thread waiter([&] {
    MutexLock lock(&mu);
    while (!ready) cv.Wait(&mu);
  });
  {
    MutexLock lock(&mu);
    ready = true;
  }
  cv.NotifyOne();
  waiter.join();
}

TEST(CondVarTest, NotifyAllWakesEveryWaiter) {
  Mutex mu;
  CondVar cv;
  bool go = false;
  std::atomic<int> woke{0};
  constexpr int kWaiters = 4;
  std::vector<std::thread> waiters;
  waiters.reserve(kWaiters);
  for (int i = 0; i < kWaiters; ++i) {
    waiters.emplace_back([&] {
      MutexLock lock(&mu);
      while (!go) cv.Wait(&mu);
      woke.fetch_add(1);
    });
  }
  {
    MutexLock lock(&mu);
    go = true;
  }
  cv.NotifyAll();
  for (std::thread& waiter : waiters) waiter.join();
  EXPECT_EQ(woke.load(), kWaiters);
}

TEST(CondVarTest, WaitForTimesOutWithoutNotify) {
  Mutex mu;
  CondVar cv;
  MutexLock lock(&mu);
  EXPECT_FALSE(cv.WaitFor(&mu, std::chrono::milliseconds(5)));
}

TEST(CondVarTest, WaitForReturnsTrueOnNotify) {
  Mutex mu;
  CondVar cv;
  bool ready = false;
  std::thread notifier([&] {
    MutexLock lock(&mu);
    ready = true;
    cv.NotifyOne();
  });
  bool notified = false;
  {
    MutexLock lock(&mu);
    // Loop out spurious wakeups and the notify-before-wait race; the
    // generous budget only matters if the implementation is broken.
    while (!ready && !notified) {
      notified = cv.WaitFor(&mu, std::chrono::seconds(5));
    }
    EXPECT_TRUE(ready);
  }
  notifier.join();
}

/// Positive control for the negative-compile check in
/// tests/negative_compile/: the exact same GUARDED_BY shape, accessed
/// correctly, must build cleanly under -Wthread-safety -Werror.
class AnnotatedCounter {
 public:
  void Add(int delta) {
    MutexLock lock(&mu_);
    value_ += delta;
  }
  int Get() const {
    MutexLock lock(&mu_);
    return value_;
  }
  void AddLocked(int delta) REQUIRES(mu_) { value_ += delta; }
  Mutex* mu() RETURN_CAPABILITY(mu_) { return &mu_; }

 private:
  mutable Mutex mu_;
  int value_ GUARDED_BY(mu_) = 0;
};

TEST(ThreadAnnotationsTest, AnnotatedGuardedAccessCompilesAndWorks) {
  AnnotatedCounter counter;
  counter.Add(2);
  {
    MutexLock lock(counter.mu());
    counter.AddLocked(3);
  }
  EXPECT_EQ(counter.Get(), 5);
}

}  // namespace
}  // namespace approxql::util
