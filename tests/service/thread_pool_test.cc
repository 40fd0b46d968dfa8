// Work-stealing scheduler contract: nested (worker-origin) submissions
// land on the submitting worker's own deque uncapped, owners drain
// their deque LIFO, idle workers steal FIFO from the front, and
// Shutdown's drain/abandon modes cover the deques as well as the
// global queue. parallel_test.cc covers ParallelFor semantics on top.
#include "service/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "service/parallel.h"
#include "util/mutex.h"

namespace approxql::service {
namespace {

TEST(ThreadPoolStealTest, BlockedOwnersBacklogIsStolen) {
  // One worker parks with a full deque; the others must drain it by
  // stealing — every nested task executes even though its owner never
  // pops again.
  ThreadPool pool({.num_threads = 4, .queue_capacity = 8});
  constexpr size_t kNested = 64;
  CountDownLatch done(kNested);
  std::atomic<size_t> ran{0};
  CountDownLatch submitted(1);
  ASSERT_TRUE(pool.TrySubmit([&] {
    for (size_t i = 0; i < kNested; ++i) {
      ASSERT_TRUE(pool.TrySubmit([&] {
        ran.fetch_add(1);
        done.CountDown();
      }));
    }
    submitted.CountDown();
    done.Wait();  // the owner blocks; thieves must finish its deque
  }));
  done.Wait();
  submitted.Wait();
  EXPECT_EQ(ran.load(), kNested);
  // The owner was parked in done.Wait() the whole time, so every one of
  // its nested tasks was taken by another worker.
  EXPECT_GE(pool.steals(), kNested);
}

TEST(ThreadPoolStealTest, WorkerSubmissionBypassesQueueCapacity) {
  // Nested submissions subdivide already-admitted work: they must not
  // bounce off the injection queue's capacity.
  ThreadPool pool({.num_threads = 1, .queue_capacity = 1});
  constexpr size_t kNested = 32;
  CountDownLatch done(kNested);
  std::atomic<size_t> ran{0};
  ASSERT_TRUE(pool.TrySubmit([&] {
    for (size_t i = 0; i < kNested; ++i) {
      EXPECT_TRUE(pool.TrySubmit([&] {
        ran.fetch_add(1);
        done.CountDown();
      }));
    }
  }));
  done.Wait();
  EXPECT_EQ(ran.load(), kNested);
}

TEST(ThreadPoolStealTest, ExternalSubmissionStillBounded) {
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
  EXPECT_FALSE(pool.TrySubmit([] {}));  // injection queue full
  release.CountDown();
}

TEST(ThreadPoolStealTest, OwnerDrainsItsDequeLifo) {
  // With a single worker there is nobody to steal: the owner pops its
  // own deque newest-first (cache-warm subdivision order).
  ThreadPool pool({.num_threads = 1, .queue_capacity = 8});
  std::vector<int> order;
  CountDownLatch done(3);
  ASSERT_TRUE(pool.TrySubmit([&] {
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(pool.TrySubmit([&order, &done, i] {
        order.push_back(i);  // single worker: no concurrent access
        done.CountDown();
      }));
    }
  }));
  done.Wait();
  EXPECT_EQ(order, (std::vector<int>{2, 1, 0}));
  EXPECT_EQ(pool.steals(), 0u);
}

TEST(ThreadPoolStealTest, ThievesTakeOldestFirst) {
  // A blocked owner's deque is stolen from the opposite end: FIFO, so
  // the earliest-forked work starts first.
  ThreadPool pool({.num_threads = 2, .queue_capacity = 8});
  std::vector<int> order;
  util::Mutex order_mu;
  CountDownLatch done(3);
  ASSERT_TRUE(pool.TrySubmit([&] {
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(pool.TrySubmit([&, i] {
        {
          util::MutexLock lock(&order_mu);
          order.push_back(i);
        }
        done.CountDown();
      }));
    }
    done.Wait();  // owner parks; the other worker steals all three
  }));
  done.Wait();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(pool.steals(), 3u);
}

TEST(ThreadPoolStealTest, ShutdownAbandonDropsDequeBacklog) {
  // kAbandon must clear worker deques, not just the global queue; the
  // abandoned tasks are destroyed without running.
  auto pool = std::make_unique<ThreadPool>(
      ThreadPool::Options{.num_threads = 2, .queue_capacity = 8});
  std::atomic<size_t> ran{0};
  std::atomic<size_t> destroyed{0};
  CountDownLatch release(1);
  CountDownLatch pinned(2);
  // Pin both workers so nothing drains the deque backlog early; the
  // first pinned task forks the backlog before parking.
  struct CountsDestruction {
    std::atomic<size_t>* counter;
    ~CountsDestruction() { counter->fetch_add(1); }
  };
  ASSERT_TRUE(pool->TrySubmit([&] {
    for (int i = 0; i < 4; ++i) {
      auto token = std::make_shared<CountsDestruction>(&destroyed);
      ASSERT_TRUE(pool->TrySubmit([&ran, token] { ran.fetch_add(1); }));
    }
    pinned.CountDown();
    release.Wait();
  }));
  ASSERT_TRUE(pool->TrySubmit([&] {
    pinned.CountDown();
    release.Wait();
  }));
  pinned.Wait();
  EXPECT_EQ(pool->QueueDepth(), 4u);  // the forked backlog, all on deques
  std::thread shutdown([&] { pool->Shutdown(DrainMode::kAbandon); });
  // Shutdown closes admission and sweeps the queues, then joins; the
  // pinned workers only return once released. Release them only after
  // the sweep has destroyed the backlog: released earlier, they could
  // run it before Shutdown gets there. The wait is bounded, so a sweep
  // that never happens fails the expectations below instead of hanging.
  for (int i = 0; i < 10000 && destroyed.load() < 4; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  release.CountDown();
  shutdown.join();
  EXPECT_EQ(ran.load(), 0u);
  EXPECT_EQ(destroyed.load(), 4u);  // destroyed unrun, obligations intact
}

TEST(ThreadPoolStealTest, ConcurrentNestedParallelForStress) {
  // Many admitted tasks each subdivide on the same pool: exercises
  // own-deque pushes, steals, and the park/wake protocol under load
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
