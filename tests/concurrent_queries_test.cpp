// Concurrent multi-query execution: N in-flight sessions over ONE shared
// cluster must each produce bit-for-bit the result of the same query run
// alone — answers, bandwidth stats, and protocol timelines — with no state
// bleeding between sessions, and all site/coordinator/gauge state must
// return to idle once the last run returns.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/cluster.hpp"
#include "core/query_engine.hpp"
#include "gen/partition.hpp"
#include "gen/synthetic.hpp"
#include "test_util.hpp"

namespace dsud {
namespace {

using testutil::runAsync;

std::vector<std::string> spanNames(const obs::QueryTrace& trace) {
  std::vector<std::string> names;
  names.reserve(trace.events.size());
  for (const auto& e : trace.events) names.push_back(e.name);
  return names;
}

void expectSameAnswer(const QueryResult& got, const QueryResult& want) {
  ASSERT_EQ(got.skyline.size(), want.skyline.size());
  for (std::size_t i = 0; i < got.skyline.size(); ++i) {
    EXPECT_EQ(got.skyline[i].tuple.id, want.skyline[i].tuple.id) << "rank " << i;
    // Bit-for-bit: survival factors reduce in site order regardless of how
    // many sessions ran at the same time.
    EXPECT_EQ(got.skyline[i].globalSkyProb, want.skyline[i].globalSkyProb)
        << "rank " << i;
  }
}

/// Every stats field except wall time, which legitimately varies.
void expectSameStats(const QueryStats& got, const QueryStats& want) {
  EXPECT_EQ(got.tuplesShipped, want.tuplesShipped);
  EXPECT_EQ(got.bytesShipped, want.bytesShipped);
  EXPECT_EQ(got.roundTrips, want.roundTrips);
  EXPECT_EQ(got.candidatesPulled, want.candidatesPulled);
  EXPECT_EQ(got.broadcasts, want.broadcasts);
  EXPECT_EQ(got.expunged, want.expunged);
  EXPECT_EQ(got.prunedAtSites, want.prunedAtSites);
}

void expectSameRun(const QueryResult& got, const QueryResult& want) {
  expectSameAnswer(got, want);
  expectSameStats(got.stats, want.stats);
  // Same protocol decisions => same timeline, span for span.
  EXPECT_EQ(spanNames(got.trace), spanNames(want.trace));
  EXPECT_EQ(got.trace.droppedEvents, want.trace.droppedEvents);
}

void expectIdle(InProcCluster& cluster) {
  for (std::size_t i = 0; i < cluster.siteCount(); ++i) {
    EXPECT_EQ(cluster.site(i).sessionCount(), 0u) << "site " << i;
  }
  for (const auto& [name, value] : cluster.metricsRegistry().snapshot().gauges) {
    if (name.rfind("dsud_queries_inflight", 0) == 0) {
      EXPECT_EQ(value, 0.0) << name;
    }
  }
}

TEST(ConcurrentQueriesTest, MixedRunsMatchSequentialBitForBit) {
  const Dataset global = generateSynthetic(
      SyntheticSpec{3000, 3, ValueDistribution::kAnticorrelated, 2200});
  InProcCluster shared(Topology::uniform(global, 8, 2201));
  InProcCluster reference(Topology::uniform(global, 8, 2201));

  QueryConfig q03;
  QueryConfig q05;
  q05.q = 0.5;
  TopKConfig topk;
  topk.k = 10;

  // One session at a time on an identical cluster: the ground truth for
  // answers, stats, and timelines.
  const QueryResult refNaive = reference.engine().run(Algo::kNaive, q03);
  const QueryResult refDsud = reference.engine().run(Algo::kDsud, q03);
  const QueryResult refEdsud = reference.engine().run(Algo::kEdsud, q03);
  const QueryResult refEdsud5 = reference.engine().run(Algo::kEdsud, q05);
  const QueryResult refTopK = reference.engine().run(topk);

  // Five mixed sessions in flight at once over the shared sites, each on a
  // thread of its own under an id allocated up front.
  QueryEngine engine(shared.coordinator());
  QueryId ids[5];
  for (QueryId& id : ids) id = shared.coordinator().nextQueryId();
  const QueryId topkId = ids[4];
  std::future<QueryResult> topkRun = std::async(
      std::launch::async, [&] { return engine.run(topk, {}, topkId); });
  std::future<QueryResult> runs[4] = {
      runAsync(engine, Algo::kNaive, q03, {}, ids[0]),
      runAsync(engine, Algo::kDsud, q03, {}, ids[1]),
      runAsync(engine, Algo::kEdsud, q03, {}, ids[2]),
      runAsync(engine, Algo::kEdsud, q05, {}, ids[3]),
  };

  // Session ids are allocated up front and unique.
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_NE(ids[i], kNoQuery);
    for (std::size_t j = i + 1; j < 5; ++j) {
      EXPECT_NE(ids[i], ids[j]);
    }
  }

  const QueryResult naive = runs[0].get();
  const QueryResult dsud = runs[1].get();
  const QueryResult edsud = runs[2].get();
  const QueryResult edsud5 = runs[3].get();
  const QueryResult topkResult = topkRun.get();

  expectSameRun(naive, refNaive);
  expectSameRun(dsud, refDsud);
  expectSameRun(edsud, refEdsud);
  expectSameRun(edsud5, refEdsud5);
  expectSameRun(topkResult, refTopK);

  // Each result is stamped with its own session id.
  EXPECT_EQ(naive.id, ids[0]);
  EXPECT_EQ(topkResult.id, topkId);

  expectIdle(shared);
}

TEST(ConcurrentQueriesTest, ThreadsHammeringOneClusterSeeNoBleed) {
  const Dataset global = generateSynthetic(
      SyntheticSpec{1500, 2, ValueDistribution::kAnticorrelated, 2210});
  InProcCluster shared(Topology::uniform(global, 6, 2211));
  InProcCluster reference(Topology::uniform(global, 6, 2211));

  QueryConfig config;
  TopKConfig topk;
  topk.k = 5;
  const QueryResult refEdsud = reference.engine().run(Algo::kEdsud, config);
  const QueryResult refTopK = reference.engine().run(topk);

  // 4 threads x 3 iterations of synchronous runs through the shared engine;
  // every single run must be indistinguishable from running alone.
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 3; ++i) {
        if ((t + i) % 2 == 0) {
          expectSameRun(shared.engine().run(Algo::kEdsud, config), refEdsud);
        } else {
          expectSameRun(shared.engine().run(topk), refTopK);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  expectIdle(shared);
}

TEST(ConcurrentQueriesTest, PerQueryOptionsStayPerQuery) {
  // One session traces, the other runs silent — concurrently, over the
  // same sites.
  const Dataset global = generateSynthetic(
      SyntheticSpec{1200, 3, ValueDistribution::kIndependent, 2220});
  InProcCluster shared(Topology::uniform(global, 6, 2221));
  InProcCluster reference(Topology::uniform(global, 6, 2221));

  QueryConfig config;
  QueryOptions traced;
  QueryOptions silent;
  silent.traceCapacity = 0;

  const QueryResult refA = reference.engine().run(Algo::kEdsud, config, traced);
  const QueryResult refB = reference.engine().run(Algo::kEdsud, config, silent);

  auto a = runAsync(shared.engine(), Algo::kEdsud, config, traced);
  auto b = runAsync(shared.engine(), Algo::kEdsud, config, silent);
  const QueryResult gotA = a.get();
  const QueryResult gotB = b.get();

  expectSameRun(gotA, refA);
  expectSameRun(gotB, refB);
  EXPECT_FALSE(gotA.trace.empty());
  EXPECT_TRUE(gotB.trace.empty());
  expectIdle(shared);
}

TEST(ConcurrentQueriesTest, OneOfFiveDegradesWhileTheRestStayBitIdentical) {
  const Dataset global = generateSynthetic(
      SyntheticSpec{1500, 2, ValueDistribution::kAnticorrelated, 2240});
  Rng rng(2241);
  const auto siteData = partitionUniform(global, 5, rng);
  const SiteId victim = 2;

  // Query ids are allocated up front in order starting at 1, so the third
  // run below is session 3 — the only traffic chaos touches: its prepare at
  // the victim succeeds (killAfter = 1), its first pull there fails for
  // good.
  ClusterConfig chaoticConfig;
  chaoticConfig.chaos =
      ChaosSpec{.killAfter = 1, .onlyQuery = 3, .onlySite = victim};
  InProcCluster shared(Topology::fromPartitions(siteData), chaoticConfig);
  InProcCluster reference(Topology::fromPartitions(siteData));

  std::vector<Dataset> survivorData;
  for (std::size_t i = 0; i < siteData.size(); ++i) {
    if (i != victim) survivorData.push_back(siteData[i]);
  }
  InProcCluster survivors(Topology::fromPartitions(survivorData));

  QueryConfig config;
  const QueryResult refDsud = reference.engine().run(Algo::kDsud, config);
  const QueryResult refEdsud = reference.engine().run(Algo::kEdsud, config);
  const QueryResult refNaive = reference.engine().run(Algo::kNaive, config);
  const QueryResult refDegraded = survivors.engine().run(Algo::kEdsud, config);

  QueryOptions degrade;
  degrade.fault.onSiteFailure = OnSiteFailure::kDegrade;

  QueryEngine engine(shared.coordinator());
  QueryId ids[5];
  for (QueryId& id : ids) id = shared.coordinator().nextQueryId();
  ASSERT_EQ(ids[2], QueryId{3});
  std::future<QueryResult> runs[5] = {
      runAsync(engine, Algo::kDsud, config, {}, ids[0]),
      runAsync(engine, Algo::kEdsud, config, {}, ids[1]),
      runAsync(engine, Algo::kEdsud, config, degrade, ids[2]),  // session 3
      runAsync(engine, Algo::kNaive, config, {}, ids[3]),
      runAsync(engine, Algo::kDsud, config, {}, ids[4]),
  };

  const QueryResult dsudA = runs[0].get();
  const QueryResult edsud = runs[1].get();
  const QueryResult degraded = runs[2].get();
  const QueryResult naive = runs[3].get();
  const QueryResult dsudB = runs[4].get();

  // The four untouched sessions are indistinguishable from running alone on
  // a healthy cluster — a concurrent session degrading must not bleed.
  expectSameRun(dsudA, refDsud);
  expectSameRun(edsud, refEdsud);
  expectSameRun(naive, refNaive);
  expectSameRun(dsudB, refDsud);
  for (const QueryResult* r : {&dsudA, &edsud, &naive, &dsudB}) {
    EXPECT_FALSE(r->degraded);
    EXPECT_TRUE(r->excludedSites.empty());
  }

  // Session 3 lost the victim before it contributed anything, so its answer
  // is exactly the 4-site survivor cluster's (origin sites renumber, hence
  // the field-wise comparison).
  EXPECT_TRUE(degraded.degraded);
  ASSERT_EQ(degraded.excludedSites, std::vector<SiteId>{victim});
  ASSERT_EQ(degraded.skyline.size(), refDegraded.skyline.size());
  for (std::size_t i = 0; i < refDegraded.skyline.size(); ++i) {
    EXPECT_EQ(degraded.skyline[i].tuple.id, refDegraded.skyline[i].tuple.id);
    EXPECT_EQ(degraded.skyline[i].localSkyProb,
              refDegraded.skyline[i].localSkyProb);
    EXPECT_EQ(degraded.skyline[i].globalSkyProb,
              refDegraded.skyline[i].globalSkyProb);
  }

  // Everything drains except the victim's session-3 state: finish() skips
  // dead sites by design (their retry budget was already spent), so the
  // site-side session is only reclaimed when the site rejoins.
  for (std::size_t i = 0; i < shared.siteCount(); ++i) {
    EXPECT_EQ(shared.site(i).sessionCount(), i == victim ? 1u : 0u)
        << "site " << i;
  }
}

TEST(ConcurrentQueriesTest, BatchedRunsMatchSoloRunsBitForBit) {
  // The shared-work path (a batched run) merges a threshold band into one
  // descent; every member's answer must still be bit-identical to the same
  // query run alone — content, order, and probabilities.
  const Dataset global = generateSynthetic(
      SyntheticSpec{2000, 3, ValueDistribution::kAnticorrelated, 2260});
  InProcCluster shared(Topology::uniform(global, 6, 2261));
  InProcCluster reference(Topology::uniform(global, 6, 2261));

  QueryConfig q03, q05, q07;
  q03.q = 0.3;
  q05.q = 0.5;
  q07.q = 0.7;
  const QueryResult ref03 = reference.engine().run(Algo::kEdsud, q03);
  const QueryResult ref05 = reference.engine().run(Algo::kEdsud, q05);
  const QueryResult ref07 = reference.engine().run(Algo::kEdsud, q07);

  QueryOptions batching;
  batching.batching.enabled = true;
  batching.batching.windowSeconds = 0.05;

  QueryEngine engine(shared.coordinator());
  auto t07 = runAsync(engine, Algo::kEdsud, q07, batching);
  auto t03 = runAsync(engine, Algo::kEdsud, q03, batching);
  auto t05 = runAsync(engine, Algo::kEdsud, q05, batching);

  const QueryResult got07 = t07.get();
  const QueryResult got03 = t03.get();
  const QueryResult got05 = t05.get();

  expectSameAnswer(got03, ref03);
  expectSameAnswer(got05, ref05);
  expectSameAnswer(got07, ref07);

  expectIdle(shared);
}

TEST(ConcurrentQueriesTest, TransportCountersMatchSummedSessionUsage) {
  // Frame/byte accounting under concurrency: the per-site wire counters must
  // equal the sum of the per-session QueryUsage totals — every byte belongs
  // to exactly one session, none double-counted, none dropped.
  const Dataset global = generateSynthetic(
      SyntheticSpec{1200, 3, ValueDistribution::kAnticorrelated, 2250});
  InProcCluster shared(Topology::uniform(global, 6, 2251));

  QueryConfig config;
  QueryEngine engine(shared.coordinator());
  std::future<QueryResult> runs[4] = {
      runAsync(engine, Algo::kDsud, config),
      runAsync(engine, Algo::kEdsud, config),
      runAsync(engine, Algo::kNaive, config),
      runAsync(engine, Algo::kEdsud, config),
  };
  std::uint64_t bytes = 0;
  std::uint64_t roundTrips = 0;
  for (auto& run : runs) {
    const QueryResult result = run.get();
    bytes += result.stats.bytesShipped;
    roundTrips += result.stats.roundTrips;
  }

  std::uint64_t counterBytes = 0;
  std::uint64_t counterFrames = 0;
  for (const auto& [name, value] :
       shared.metricsRegistry().snapshot().counters) {
    if (name.rfind("dsud_transport_bytes_total", 0) == 0) {
      counterBytes += value;
    } else if (name.rfind("dsud_transport_frames_total", 0) == 0) {
      counterFrames += value;
    }
  }
  EXPECT_EQ(counterBytes, bytes);
  // One frame out + one frame in per round trip on a clean transport.
  EXPECT_EQ(counterFrames, 2 * roundTrips);
  expectIdle(shared);
}

TEST(ConcurrentQueriesTest, ProgressCallbacksDoNotCrossSessions) {
  const Dataset global = generateSynthetic(
      SyntheticSpec{1000, 2, ValueDistribution::kAnticorrelated, 2230});
  InProcCluster shared(Topology::uniform(global, 5, 2231));

  QueryConfig config;
  std::atomic<std::size_t> callsA{0};
  std::atomic<std::size_t> callsB{0};
  QueryOptions optionsA;
  optionsA.progress = [&](const GlobalSkylineEntry&, const ProgressPoint&) {
    ++callsA;
  };
  QueryOptions optionsB;
  optionsB.progress = [&](const GlobalSkylineEntry&, const ProgressPoint&) {
    ++callsB;
  };

  auto a = runAsync(shared.engine(), Algo::kEdsud, config, optionsA);
  auto b = runAsync(shared.engine(), Algo::kDsud, config, optionsB);
  const QueryResult resultA = a.get();
  const QueryResult resultB = b.get();

  // Each callback fired exactly once per answer of ITS query.
  EXPECT_EQ(callsA.load(), resultA.skyline.size());
  EXPECT_EQ(callsB.load(), resultB.skyline.size());
  expectIdle(shared);
}

}  // namespace
}  // namespace dsud
