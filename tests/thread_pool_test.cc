// ThreadPool tests: per-call completion through TaskGroup (one group's
// Wait() never waits for another group's tasks), ShardRange coverage, and
// the own-pool wait check.
#include "src/support/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <latch>
#include <thread>
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

TEST(ThreadPoolTest, ShardRangeCoversEveryIndexOnceInContiguousShards) {
  ThreadPool pool(3);
  for (size_t count : {0u, 1u, 2u, 7u, 64u}) {
    for (size_t workers : {1u, 3u, 8u}) {
      std::vector<int> hits(count, 0);
      std::atomic<int> shards{0};
      pool.ShardRange(count, workers, [&](size_t begin, size_t end) {
        EXPECT_LT(begin, end);
        shards.fetch_add(1);
        for (size_t i = begin; i < end; ++i) {
          ++hits[i];
        }
      });
      for (size_t i = 0; i < count; ++i) {
        EXPECT_EQ(hits[i], 1) << "count " << count << " workers " << workers << " index " << i;
      }
      EXPECT_LE(static_cast<size_t>(shards.load()), std::max<size_t>(1, workers));
    }
  }
}

TEST(ThreadPoolTest, ConcurrentShardRangesOnOnePool) {
  ThreadPool pool(2);
  std::vector<int> left(100, 0);
  std::vector<int> right(100, 0);
  auto fill = [&pool](std::vector<int>* slots) {
    pool.ShardRange(slots->size(), 4, [slots](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        (*slots)[i] = static_cast<int>(i);
      }
    });
  };
  std::thread a(fill, &left);
  std::thread b(fill, &right);
  a.join();
  b.join();
  for (size_t i = 0; i < left.size(); ++i) {
    EXPECT_EQ(left[i], static_cast<int>(i));
    EXPECT_EQ(right[i], static_cast<int>(i));
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
