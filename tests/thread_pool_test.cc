// ThreadPool tests: per-call completion through TaskGroup (one group's
// Wait() never waits for another group's tasks), ForEachIndex coverage and
// serial order, and the own-pool wait check.
#include "src/support/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <latch>
#include <thread>
#include <utility>
#include <vector>

namespace spex {
namespace {

TEST(ThreadPoolTest, GroupWaitIgnoresAnotherGroupsBlockedTask) {
  ThreadPool pool(2);
  std::latch gate(1);
  std::atomic<bool> blocked_done{false};
  ThreadPool::TaskGroup blocked(pool);
  blocked.Submit([&] {
    gate.wait();
    blocked_done = true;
  });

  std::atomic<int> ran{0};
  ThreadPool::TaskGroup quick(pool);
  for (int i = 0; i < 8; ++i) {
    quick.Submit([&] { ran.fetch_add(1); });
  }
  quick.Wait();
  EXPECT_EQ(ran.load(), 8);
  // The other group's task is still parked on the latch.
  EXPECT_FALSE(blocked_done.load());

  gate.count_down();
  blocked.Wait();
  EXPECT_TRUE(blocked_done.load());
}

TEST(ThreadPoolTest, GroupDestructorWaitsForItsTasks) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  {
    ThreadPool::TaskGroup group(pool);
    for (int i = 0; i < 16; ++i) {
      group.Submit([&] { ran.fetch_add(1); });
    }
  }
  EXPECT_EQ(ran.load(), 16);
}

TEST(ThreadPoolTest, ForEachIndexRunsEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  for (size_t count : {0u, 1u, 2u, 7u, 1000u}) {
    for (size_t workers : {0u, 1u, 2u, 3u, 8u}) {
      std::vector<std::atomic<int>> hits(count);
      ForEachIndex(&pool, count, workers, [&](size_t i) { hits[i].fetch_add(1); });
      for (size_t i = 0; i < count; ++i) {
        EXPECT_EQ(hits[i].load(), 1)
            << "count " << count << " workers " << workers << " index " << i;
      }
    }
  }
}

TEST(ThreadPoolTest, ForEachIndexRunsInOrderOnTheCallerWithoutParallelism) {
  ThreadPool pool(2);
  const std::thread::id caller = std::this_thread::get_id();
  const std::vector<std::pair<ThreadPool*, size_t>> serial_calls = {
      {nullptr, 0}, {nullptr, 1}, {nullptr, 4}, {&pool, 0}, {&pool, 1}};
  for (auto [maybe_pool, workers] : serial_calls) {
    std::vector<size_t> order;
    ForEachIndex(maybe_pool, 7, workers, [&](size_t i) {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      order.push_back(i);
    });
    EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4, 5, 6}))
        << "pool " << (maybe_pool != nullptr) << " workers " << workers;
  }
}

TEST(ThreadPoolTest, ConcurrentForEachIndexCallersOnOnePool) {
  ThreadPool pool(2);
  std::vector<std::atomic<int>> left(100);
  std::vector<std::atomic<int>> right(100);
  auto fill = [&pool](std::vector<std::atomic<int>>* slots) {
    ForEachIndex(&pool, slots->size(), 4, [slots](size_t i) { (*slots)[i].fetch_add(1); });
  };
  std::thread a(fill, &left);
  std::thread b(fill, &right);
  a.join();
  b.join();
  for (size_t i = 0; i < left.size(); ++i) {
    EXPECT_EQ(left[i].load(), 1) << "index " << i;
    EXPECT_EQ(right[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolDeathTest, TaskWaitingOnItsOwnPoolAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        ThreadPool pool(1);
        ThreadPool::TaskGroup outer(pool);
        outer.Submit([&pool] {
          ThreadPool::TaskGroup inner(pool);
          inner.Submit([] {});
          inner.Wait();
        });
        outer.Wait();
      },
      "own pool");
}

}  // namespace
}  // namespace spex
