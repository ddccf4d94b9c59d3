#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

namespace dsud {
namespace {

TEST(ThreadPoolTest, RejectsZeroThreads) {
  EXPECT_THROW(ThreadPool(0), std::invalid_argument);
}

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ReturnsValues) {
  ThreadPool pool(2);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(pool.submit([i] { return i * i; }));
  }
  int sum = 0;
  for (auto& f : futures) sum += f.get();
  int expected = 0;
  for (int i = 0; i < 32; ++i) expected += i * i;
  EXPECT_EQ(sum, expected);
}

TEST(ThreadPoolTest, PropagatesExceptions) {
  ThreadPool pool(2);
  auto future = pool.submit([]() -> int {
    throw std::runtime_error("task failed");
  });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPoolTest, ActuallyRunsConcurrently) {
  ThreadPool pool(4);
  std::atomic<int> inside{0};
  std::atomic<int> peak{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(pool.submit([&] {
      const int now = ++inside;
      int expected = peak.load();
      while (now > expected && !peak.compare_exchange_weak(expected, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      --inside;
    }));
  }
  for (auto& f : futures) f.get();
  EXPECT_GE(peak.load(), 2);
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&done] {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        ++done;
      });
    }
  }  // destructor joins after the queue drains
  EXPECT_EQ(done.load(), 50);
}

}  // namespace
}  // namespace dsud
