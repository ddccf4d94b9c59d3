// Unit tests for the benchmark's own arithmetic (src/bench_math.hpp).
#include <gtest/gtest.h>

#include <string>

#include "bench_math.hpp"
#include "server/proto.hpp"

namespace dsudbench {
namespace {

TEST(Percentile, NearestRank) {
  const std::vector<double> v = {5, 1, 4, 2, 3, 6, 8, 7, 10, 9};
  EXPECT_EQ(percentile(v, 50), 5);
  EXPECT_EQ(percentile(v, 90), 9);
  EXPECT_EQ(percentile(v, 91), 10);
  EXPECT_EQ(percentile(v, 0), 1);
  EXPECT_EQ(percentile(v, 100), 10);
  EXPECT_EQ(percentile({}, 50), 0);
  EXPECT_EQ(median({7}), 7);
}

TEST(Percentile, TailKeepsTenSamplesBeyond) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  // p99 of 100 leaves 1 beyond, p90 leaves 10.
  Tail t = tailPercentile(v);
  EXPECT_EQ(t.pct, 90);
  EXPECT_EQ(t.value, 90);
  for (int i = 101; i <= 1000; ++i) v.push_back(i);
  t = tailPercentile(v);
  EXPECT_EQ(t.pct, 99);
  EXPECT_EQ(t.value, 990);
  t = tailPercentile({1, 2, 3});
  EXPECT_EQ(t.pct, 50);
  EXPECT_EQ(t.value, 2);
}

TEST(Intervals, UnionCountsOverlapOnce) {
  EXPECT_EQ(unionLength({}), 0);
  EXPECT_EQ(unionLength({{0, 10}, {5, 15}, {20, 25}}), 20);
  EXPECT_EQ(unionLength({{20, 25}, {0, 10}, {2, 3}}), 15);
  EXPECT_EQ(unionLength({{0, 10}, {10, 20}}), 20);
}

TEST(Intervals, SelfTimeSubtractsOverlappingBroadcastChildrenOnce) {
  // A 100 ns parent with three broadcast children running in parallel
  // (10..40, 20..50, 30..60) and one sequential child (70..80): the children
  // cover 50 + 10 ns, so the parent's self time is 40 ns.
  EXPECT_EQ(selfTime({0, 100}, {{10, 40}, {20, 50}, {30, 60}, {70, 80}}), 40);
  // Children are clipped to the parent.
  EXPECT_EQ(selfTime({0, 100}, {{-10, 10}, {90, 120}}), 80);
  EXPECT_EQ(selfTime({0, 100}, {}), 100);
}

TEST(Poisson, ScheduleRepeatsForASeed) {
  const auto a = poissonSchedule(42, 100.0, 5.0);
  const auto b = poissonSchedule(42, 100.0, 5.0);
  const auto c = poissonSchedule(43, 100.0, 5.0);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  ASSERT_FALSE(a.empty());
  // Sorted, inside the window, and about rate * seconds arrivals.
  for (std::size_t i = 1; i < a.size(); ++i) EXPECT_LT(a[i - 1], a[i]);
  EXPECT_LT(a.back(), 5.0);
  EXPECT_GT(a.size(), 400u);
  EXPECT_LT(a.size(), 600u);
  EXPECT_TRUE(poissonSchedule(1, 0.0, 5.0).empty());
}

std::string line(const dsud::server::AnswerResponse& r) {
  return dsud::server::encodeResponse(r);
}

TEST(Joiner, JoinsInterleavedLinesByClientIdAndRecordsQueryId) {
  namespace srv = dsud::server;
  QueryRecord a;
  a.request.id = "a";
  QueryRecord b;
  b.request.id = "b";
  ResponseJoiner joiner;
  joiner.expect(&a);
  joiner.expect(&b);

  EXPECT_EQ(joiner.onLine(srv::encodeResponse(srv::AckResponse{"b", 8}), 10), nullptr);
  EXPECT_EQ(joiner.onLine(srv::encodeResponse(srv::AckResponse{"a", 7}), 11), nullptr);
  for (int i = 0; i < 12; ++i) {
    srv::AnswerResponse ans;
    ans.id = i % 2 == 0 ? b.request.id : a.request.id;
    ans.seq = static_cast<std::uint64_t>(i / 2 + 1);
    ans.entry.tuple.id = static_cast<dsud::TupleId>(100 + i);
    ans.entry.tuple.values = {0.5};
    ans.entry.tuple.prob = 0.9;
    ans.entry.globalSkyProb = 0.5;
    EXPECT_EQ(joiner.onLine(line(ans), 20 + i), nullptr);
  }
  srv::DoneResponse done;
  done.id = "a";
  done.answers = 6;
  done.stats.tuplesShipped = 33;
  done.profile = dsud::QueryProfile{};
  done.profile->cache = "miss";
  EXPECT_EQ(joiner.onLine(srv::encodeResponse(done), 50), &a);
  EXPECT_EQ(joiner.onLine(srv::encodeResponse(srv::ErrorResponse{
                              "b", srv::ErrorCode::kOverloaded, "busy", 5}),
                          60),
            &b);
  // Late lines for finished ids and pongs are ignored.
  EXPECT_EQ(joiner.onLine(srv::encodeResponse(srv::AckResponse{"a", 7}), 70), nullptr);
  EXPECT_EQ(joiner.onLine(srv::encodeResponse(srv::PongResponse{}), 71), nullptr);
  EXPECT_EQ(joiner.pongs(), 1u);
  EXPECT_EQ(joiner.pending(), 0u);

  EXPECT_EQ(a.query, 7u);
  EXPECT_EQ(a.ack, 11);
  EXPECT_EQ(a.firstAnswer, 21);
  EXPECT_EQ(a.tenthAnswer, 0);  // only six answers
  EXPECT_EQ(a.done, 50);
  EXPECT_TRUE(a.ok);
  EXPECT_EQ(a.answers.size(), 6u);
  EXPECT_EQ(a.answers.front().first, 101u);
  EXPECT_EQ(a.stats.tuplesShipped, 33u);
  EXPECT_EQ(a.cache, "miss");

  EXPECT_EQ(b.query, 8u);
  EXPECT_FALSE(b.ok);
  EXPECT_EQ(b.error, "overloaded");
  EXPECT_EQ(b.done, 60);
  EXPECT_EQ(b.firstAnswer, 20);
}

}  // namespace
}  // namespace dsudbench
