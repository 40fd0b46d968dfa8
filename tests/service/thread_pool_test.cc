// Bounded FIFO scheduler contract: every submitter, pool workers
// included, is held to queue_capacity, and Shutdown abandons what is
// still queued.
#include "service/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <latch>
#include <memory>
#include <thread>

namespace approxql::service {
namespace {

TEST(ThreadPoolTest, ExternalSubmissionStillBounded) {
  ThreadPool pool({.num_threads = 1, .queue_capacity = 2});
  std::latch release(1);
  std::latch running(1);
  ASSERT_TRUE(pool.TrySubmit([&] {
    running.count_down();
    release.wait();
  }));
  running.wait();  // the only worker is now pinned
  EXPECT_TRUE(pool.TrySubmit([] {}));
  EXPECT_TRUE(pool.TrySubmit([] {}));
  EXPECT_EQ(pool.QueueDepth(), 2u);
  EXPECT_FALSE(pool.TrySubmit([] {}));  // queue full
  release.count_down();
}

TEST(ThreadPoolTest, WorkerSubmissionIsBounded) {
  // A worker gets no capacity exemption: with the queue full, its own
  // TrySubmit is refused.
  ThreadPool pool({.num_threads = 2, .queue_capacity = 1});
  std::latch release(1);
  std::latch pinned(1);
  ASSERT_TRUE(pool.TrySubmit([&] {
    pinned.count_down();
    release.wait();
  }));
  pinned.wait();  // worker A pinned; the queue is empty

  bool worker_submit_refused = false;
  std::latch done(1);
  ASSERT_TRUE(pool.TrySubmit([&] {
    // Worker B fills the one queue slot with a task no free worker can
    // take (A is pinned, B is here), then submits again.
    EXPECT_TRUE(pool.TrySubmit([] {}));
    worker_submit_refused = !pool.TrySubmit([] {});
    done.count_down();
  }));
  done.wait();
  EXPECT_TRUE(worker_submit_refused);
  release.count_down();
}

// --- ThreadPool::Shutdown ------------------------------------------------

TEST(ThreadPoolTest, ShutdownDestroysQueuedTasksWithoutRunning) {
  ThreadPool pool({.num_threads = 1, .queue_capacity = 8});
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  std::promise<void> started;
  ASSERT_TRUE(pool.TrySubmit([&started, gate] {
    started.set_value();
    gate.wait();
  }));
  started.get_future().wait();
  std::atomic<int> ran{0};
  ASSERT_TRUE(pool.TrySubmit([&ran] { ran.fetch_add(1); }));
  ASSERT_TRUE(pool.TrySubmit([&ran] { ran.fetch_add(1); }));
  EXPECT_EQ(pool.QueueDepth(), 2u);
  // Release the blocker only after Shutdown has swapped the queue out
  // (observable as QueueDepth() == 0), so neither queued task can be
  // picked up before abandonment — the sequencing is deterministic.
  std::thread releaser([&] {
    while (pool.QueueDepth() != 0) std::this_thread::yield();
    release.set_value();
  });
  pool.Shutdown();
  releaser.join();
  EXPECT_EQ(ran.load(), 0);
}

TEST(ThreadPoolTest, AbandonedTaskDestructorsRun) {
  // The promise-guard pattern in the query service relies on destroyed-
  // not-run tasks still discharging obligations from their destructors.
  struct Marker {
    explicit Marker(std::atomic<int>* count) : count_(count) {}
    ~Marker() {
      if (count_ != nullptr) count_->fetch_add(1);
    }
    Marker(Marker&& other) noexcept : count_(other.count_) {
      other.count_ = nullptr;
    }
    Marker(const Marker&) = delete;
    std::atomic<int>* count_;
  };
  std::atomic<int> destroyed{0};
  {
    ThreadPool pool({.num_threads = 1, .queue_capacity = 8});
    std::promise<void> release;
    std::shared_future<void> gate(release.get_future());
    std::promise<void> started;
    ASSERT_TRUE(pool.TrySubmit([&started, gate] {
      started.set_value();
      gate.wait();
    }));
    started.get_future().wait();
    auto marker = std::make_shared<Marker>(&destroyed);
    ASSERT_TRUE(pool.TrySubmit([marker] {}));
    marker.reset();
    EXPECT_EQ(destroyed.load(), 0);
    std::thread releaser([&] {
      while (pool.QueueDepth() != 0) std::this_thread::yield();
      release.set_value();
    });
    pool.Shutdown();
    releaser.join();
  }
  EXPECT_EQ(destroyed.load(), 1);
}

}  // namespace
}  // namespace approxql::service
