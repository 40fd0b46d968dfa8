// Bounded FIFO scheduler contract: every submitter, pool workers
// included, is held to queue_capacity, and ParallelFor stays correct on
// top of that bound because a rejected helper's iterations run inline
// on the forking caller. parallel_test.cc covers ParallelFor semantics
// and Shutdown's drain modes.
#include "service/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>

#include "service/parallel.h"

namespace approxql::service {
namespace {

TEST(ThreadPoolTest, ExternalSubmissionStillBounded) {
  ThreadPool pool({.num_threads = 1, .queue_capacity = 2});
  CountDownLatch release(1);
  CountDownLatch running(1);
  ASSERT_TRUE(pool.TrySubmit([&] {
    running.CountDown();
    release.Wait();
  }));
  running.Wait();  // the only worker is now pinned
  EXPECT_TRUE(pool.TrySubmit([] {}));
  EXPECT_TRUE(pool.TrySubmit([] {}));
  EXPECT_EQ(pool.QueueDepth(), 2u);
  EXPECT_FALSE(pool.TrySubmit([] {}));  // queue full
  release.CountDown();
}

TEST(ThreadPoolTest, WorkerSubmissionIsBoundedAndParallelForStillCompletes) {
  // A worker gets no capacity exemption: with the queue full, its own
  // TrySubmit is refused. A ParallelFor it then runs has every helper
  // refused the same way, so the worker runs all iterations inline.
  ThreadPool pool({.num_threads = 2, .queue_capacity = 1});
  CountDownLatch release(1);
  CountDownLatch pinned(1);
  ASSERT_TRUE(pool.TrySubmit([&] {
    pinned.CountDown();
    release.Wait();
  }));
  pinned.Wait();  // worker A pinned; the queue is empty

  constexpr size_t kIterations = 40;
  std::atomic<size_t> ran{0};
  bool worker_submit_refused = false;
  ParallelForResult result;
  ParallelForOptions wide;
  wide.parallelism = 4;
  CountDownLatch done(1);
  ASSERT_TRUE(pool.TrySubmit([&] {
    // Worker B fills the one queue slot with a task no free worker can
    // take (A is pinned, B is here), then forks.
    EXPECT_TRUE(pool.TrySubmit([] {}));
    worker_submit_refused = !pool.TrySubmit([] {});
    result = ParallelFor(
        &pool, kIterations, [&](size_t) { ran.fetch_add(1); }, wide);
    done.CountDown();
  }));
  done.Wait();
  EXPECT_TRUE(worker_submit_refused);
  EXPECT_EQ(result.executed, kIterations);
  EXPECT_EQ(ran.load(), kIterations);
  release.CountDown();
}

TEST(ThreadPoolTest, ConcurrentNestedParallelForStress) {
  // Many admitted tasks each fork on the same pool: exercises nested
  // submissions against the bound and the park/wake protocol under load
  // (the interesting run is under TSan).
  ThreadPool pool({.num_threads = 4, .queue_capacity = 64});
  constexpr size_t kOuter = 16;
  constexpr size_t kInner = 50;
  std::atomic<size_t> total{0};
  CountDownLatch done(kOuter);
  for (size_t t = 0; t < kOuter; ++t) {
    ASSERT_TRUE(pool.TrySubmit([&] {
      ParallelForResult result =
          ParallelFor(&pool, kInner, [&](size_t) { total.fetch_add(1); });
      EXPECT_EQ(result.executed, kInner);
      done.CountDown();
    }));
  }
  done.Wait();
  EXPECT_EQ(total.load(), kOuter * kInner);
}

}  // namespace
}  // namespace approxql::service
