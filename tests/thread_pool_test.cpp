#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>

#include "core/cluster.hpp"
#include "gen/synthetic.hpp"
#include "test_util.hpp"

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

TEST(ParallelBroadcastTest, MatchesSequentialExactly) {
  const Dataset global = generateSynthetic(
      SyntheticSpec{3000, 3, ValueDistribution::kAnticorrelated, 750});

  InProcCluster sequential(Topology::uniform(global, 16, 751));
  InProcCluster parallel(Topology::uniform(global, 16, 751));
  QueryOptions fanOut;
  fanOut.broadcastThreads = 4;

  const QueryResult a = sequential.engine().run(Algo::kEdsud, QueryConfig{});
  const QueryResult b =
      parallel.engine().run(Algo::kEdsud, QueryConfig{}, fanOut);

  ASSERT_EQ(a.skyline.size(), b.skyline.size());
  for (std::size_t i = 0; i < a.skyline.size(); ++i) {
    EXPECT_EQ(a.skyline[i].tuple.id, b.skyline[i].tuple.id);
    // Ordered reduction: bit-for-bit identical probabilities.
    EXPECT_EQ(a.skyline[i].globalSkyProb, b.skyline[i].globalSkyProb);
  }
  EXPECT_EQ(a.stats.tuplesShipped, b.stats.tuplesShipped);
  EXPECT_EQ(a.stats.broadcasts, b.stats.broadcasts);
}

TEST(ParallelBroadcastTest, WorksForDsudAndUpdatesToo) {
  const Dataset global = generateSynthetic(
      SyntheticSpec{1000, 2, ValueDistribution::kIndependent, 752});
  InProcCluster cluster(Topology::uniform(global, 8, 753));
  QueryOptions fanOut;
  fanOut.broadcastThreads = 3;

  QueryResult dsud = cluster.engine().run(Algo::kDsud, QueryConfig{}, fanOut);
  sortByGlobalProbability(dsud.skyline);
  EXPECT_EQ(testutil::idsOf(dsud.skyline),
            testutil::idsOf(linearSkyline(global, {.q = 0.3})));

  // Default options: back to the sequential path.
  QueryResult again = cluster.engine().run(Algo::kDsud, QueryConfig{});
  sortByGlobalProbability(again.skyline);
  EXPECT_EQ(testutil::idsOf(again.skyline), testutil::idsOf(dsud.skyline));
}

}  // namespace
}  // namespace dsud
