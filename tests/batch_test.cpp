// Shared-work batch executor: merged groups must answer every member
// bit-identically to a solo run of its query — including under
// chaos-injected site failure — and the split must keep progress streams
// and cancellation per member.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <vector>

#include "core/batch.hpp"
#include "core/cluster.hpp"
#include "core/query_engine.hpp"
#include "core/result_cache.hpp"
#include "gen/synthetic.hpp"
#include "net/chaos.hpp"

namespace dsud {
namespace {

void expectSameAnswer(const QueryResult& got, const QueryResult& want) {
  ASSERT_EQ(got.skyline.size(), want.skyline.size());
  for (std::size_t i = 0; i < got.skyline.size(); ++i) {
    EXPECT_EQ(got.skyline[i].tuple.id, want.skyline[i].tuple.id) << "rank " << i;
    EXPECT_EQ(got.skyline[i].globalSkyProb, want.skyline[i].globalSkyProb)
        << "rank " << i;
    EXPECT_EQ(got.skyline[i].localSkyProb, want.skyline[i].localSkyProb)
        << "rank " << i;
  }
}

QueryOptions batched(double windowSeconds = 0.05) {
  QueryOptions options;
  options.batching.enabled = true;
  options.batching.windowSeconds = windowSeconds;
  return options;
}

double counterValue(InProcCluster& cluster, const std::string& name) {
  for (const auto& [key, value] : cluster.metricsRegistry().snapshot().counters) {
    if (key == name) return static_cast<double>(value);
  }
  return 0.0;
}

TEST(BatchTest, ThresholdBandMergesIntoOneDescentBitIdentically) {
  const Dataset data = generateSynthetic(
      SyntheticSpec{2000, 3, ValueDistribution::kAnticorrelated, 9100});
  InProcCluster shared(Topology::uniform(data, 6, 9101));
  InProcCluster reference(Topology::uniform(data, 6, 9101));

  QueryConfig q03, q04, q05;
  q03.q = 0.3;
  q04.q = 0.4;
  q05.q = 0.5;
  const QueryResult ref03 = reference.engine().run(Algo::kEdsud, q03);
  const QueryResult ref04 = reference.engine().run(Algo::kEdsud, q04);
  const QueryResult ref05 = reference.engine().run(Algo::kEdsud, q05);

  QueryEngine engine(shared.coordinator(), 4);
  // Submission order deliberately tightest-first: the leader threshold is
  // min over members, not the first member's.
  QueryTicket t05 = engine.submit(Algo::kEdsud, q05, batched());
  QueryTicket t03 = engine.submit(Algo::kEdsud, q03, batched());
  QueryTicket t04 = engine.submit(Algo::kEdsud, q04, batched());

  const QueryResult got05 = t05.get();
  const QueryResult got03 = t03.get();
  const QueryResult got04 = t04.get();

  expectSameAnswer(got03, ref03);
  expectSameAnswer(got04, ref04);
  expectSameAnswer(got05, ref05);
  // Each member carries its own session id and a renumbered progress curve.
  EXPECT_EQ(got03.id, t03.id());
  EXPECT_EQ(got05.id, t05.id());
  ASSERT_EQ(got05.progress.size(), got05.skyline.size());
  for (std::size_t i = 0; i < got05.progress.size(); ++i) {
    EXPECT_EQ(got05.progress[i].reported, i + 1);
  }

  // All three rode one descent: two members were merged away.
  EXPECT_GE(counterValue(shared, "dsud_batch_merged_total"), 2.0);
  EXPECT_EQ(engine.inFlight(), 0u);
}

TEST(BatchTest, IncompatibleQueriesFormSeparateGroups) {
  const Dataset data = generateSynthetic(
      SyntheticSpec{1200, 3, ValueDistribution::kAnticorrelated, 9200});
  InProcCluster shared(Topology::uniform(data, 5, 9201));
  InProcCluster reference(Topology::uniform(data, 5, 9201));

  QueryConfig full;
  full.q = 0.3;
  QueryConfig subspace;
  subspace.q = 0.3;
  subspace.mask = 0b011;
  const QueryResult refEdsud = reference.engine().run(Algo::kEdsud, full);
  const QueryResult refDsud = reference.engine().run(Algo::kDsud, full);
  const QueryResult refSub = reference.engine().run(Algo::kEdsud, subspace);

  QueryEngine engine(shared.coordinator(), 4);
  QueryTicket a = engine.submit(Algo::kEdsud, full, batched());
  QueryTicket b = engine.submit(Algo::kDsud, full, batched());
  QueryTicket c = engine.submit(Algo::kEdsud, subspace, batched());

  expectSameAnswer(a.get(), refEdsud);
  expectSameAnswer(b.get(), refDsud);
  expectSameAnswer(c.get(), refSub);
}

TEST(BatchTest, ProgressStreamsSplitPerMember) {
  const Dataset data = generateSynthetic(
      SyntheticSpec{1500, 2, ValueDistribution::kAnticorrelated, 9300});
  InProcCluster shared(Topology::uniform(data, 5, 9301));

  QueryConfig q02, q06;
  q02.q = 0.2;
  q06.q = 0.6;

  std::vector<double> probsLoose, probsTight;
  std::vector<std::size_t> seqTight;
  QueryOptions optLoose = batched();
  optLoose.progress = [&](const GlobalSkylineEntry& e, const ProgressPoint&) {
    probsLoose.push_back(e.globalSkyProb);
  };
  QueryOptions optTight = batched();
  optTight.progress = [&](const GlobalSkylineEntry& e,
                          const ProgressPoint& point) {
    probsTight.push_back(e.globalSkyProb);
    seqTight.push_back(point.reported);
  };

  QueryEngine engine(shared.coordinator(), 4);
  QueryTicket loose = engine.submit(Algo::kEdsud, q02, optLoose);
  QueryTicket tight = engine.submit(Algo::kEdsud, q06, optTight);
  const QueryResult looseResult = loose.get();
  const QueryResult tightResult = tight.get();

  // Each member saw exactly its own answers, live, in emission order, with
  // a per-member 1-based sequence.
  EXPECT_EQ(probsLoose.size(), looseResult.skyline.size());
  EXPECT_EQ(probsTight.size(), tightResult.skyline.size());
  for (const double p : probsTight) EXPECT_GE(p, 0.6);
  for (std::size_t i = 0; i < seqTight.size(); ++i) {
    EXPECT_EQ(seqTight[i], i + 1);
  }
  EXPECT_GT(probsLoose.size(), probsTight.size());
}

TEST(BatchTest, SiteFailureDegradesEveryMemberIdentically) {
  const Dataset data = generateSynthetic(
      SyntheticSpec{1200, 2, ValueDistribution::kAnticorrelated, 9400});
  const SiteId victim = 2;
  // dropRate = 1.0 scoped to one site: deterministically dead from its
  // first frame, for the shared run and the solo references alike.
  ClusterConfig chaotic;
  chaotic.chaos = ChaosSpec{.dropRate = 1.0, .onlySite = victim};
  InProcCluster shared(Topology::uniform(data, 5, 9401), chaotic);
  InProcCluster reference(Topology::uniform(data, 5, 9401), chaotic);

  QueryOptions degrade;
  degrade.fault.onSiteFailure = OnSiteFailure::kDegrade;

  QueryConfig q03, q05;
  q03.q = 0.3;
  q05.q = 0.5;
  const QueryResult ref03 = reference.engine().run(Algo::kEdsud, q03, degrade);
  const QueryResult ref05 = reference.engine().run(Algo::kEdsud, q05, degrade);
  ASSERT_TRUE(ref03.degraded);

  QueryOptions batchedDegrade = batched();
  batchedDegrade.fault.onSiteFailure = OnSiteFailure::kDegrade;
  QueryEngine engine(shared.coordinator(), 4);
  QueryTicket t03 = engine.submit(Algo::kEdsud, q03, batchedDegrade);
  QueryTicket t05 = engine.submit(Algo::kEdsud, q05, batchedDegrade);
  const QueryResult got03 = t03.get();
  const QueryResult got05 = t05.get();

  expectSameAnswer(got03, ref03);
  expectSameAnswer(got05, ref05);
  for (const QueryResult* r : {&got03, &got05}) {
    EXPECT_TRUE(r->degraded);
    EXPECT_EQ(r->excludedSites, std::vector<SiteId>{victim});
  }
}

TEST(BatchTest, MixedFaultHandlingNeverShares) {
  // A kFail member must not ride a kDegrade leader (it would silently
  // accept a partial answer), so fault options partition groups.
  const Dataset data = generateSynthetic(
      SyntheticSpec{800, 2, ValueDistribution::kIndependent, 9500});
  InProcCluster shared(Topology::uniform(data, 4, 9501));
  InProcCluster reference(Topology::uniform(data, 4, 9501));

  QueryConfig config;
  config.q = 0.3;
  const QueryResult ref = reference.engine().run(Algo::kEdsud, config);

  QueryOptions failFast = batched();
  QueryOptions degrade = batched();
  degrade.fault.onSiteFailure = OnSiteFailure::kDegrade;

  QueryEngine engine(shared.coordinator(), 4);
  QueryTicket a = engine.submit(Algo::kEdsud, config, failFast);
  QueryTicket b = engine.submit(Algo::kEdsud, config, degrade);
  expectSameAnswer(a.get(), ref);
  expectSameAnswer(b.get(), ref);
  // Healthy cluster: both complete clean, but in two groups.
  EXPECT_GE(counterValue(shared, "dsud_batch_flushes_total"), 2.0);
}

TEST(BatchTest, CancelledMemberDoesNotPoisonItsGroup) {
  const Dataset data = generateSynthetic(
      SyntheticSpec{1000, 2, ValueDistribution::kAnticorrelated, 9600});
  InProcCluster shared(Topology::uniform(data, 4, 9601));
  InProcCluster reference(Topology::uniform(data, 4, 9601));

  QueryConfig q03, q05;
  q03.q = 0.3;
  q05.q = 0.5;
  // The cancelled member is the loosest: the group must re-derive its
  // leader threshold from the survivors, not run at 0.3 anyway.
  const QueryResult ref05 = reference.engine().run(Algo::kEdsud, q05);

  QueryOptions doomed = batched(0.2);
  doomed.cancel = std::make_shared<std::atomic<bool>>(true);
  QueryOptions healthy = batched(0.2);

  QueryEngine engine(shared.coordinator(), 4);
  QueryTicket cancelled = engine.submit(Algo::kEdsud, q03, doomed);
  QueryTicket fine = engine.submit(Algo::kEdsud, q05, healthy);

  EXPECT_THROW(cancelled.get(), QueryCancelled);
  expectSameAnswer(fine.get(), ref05);
  EXPECT_EQ(engine.inFlight(), 0u);
}

TEST(BatchTest, EngineTeardownFlushesParkedGroups) {
  const Dataset data = generateSynthetic(
      SyntheticSpec{800, 2, ValueDistribution::kIndependent, 9700});
  InProcCluster shared(Topology::uniform(data, 4, 9701));
  InProcCluster reference(Topology::uniform(data, 4, 9701));

  QueryConfig config;
  config.q = 0.3;
  const QueryResult ref = reference.engine().run(Algo::kEdsud, config);

  QueryTicket ticket;
  {
    QueryEngine engine(shared.coordinator(), 2);
    // A window far longer than the engine's lifetime: destruction must
    // flush the parked group, not strand the ticket.
    ticket = engine.submit(Algo::kEdsud, config, batched(30.0));
  }
  expectSameAnswer(ticket.get(), ref);
}

TEST(BatchTest, FullGroupFlushesBeforeTheWindowCloses) {
  const Dataset data = generateSynthetic(
      SyntheticSpec{800, 2, ValueDistribution::kIndependent, 9800});
  InProcCluster shared(Topology::uniform(data, 4, 9801));
  InProcCluster reference(Topology::uniform(data, 4, 9801));

  QueryConfig config;
  config.q = 0.3;
  const QueryResult ref = reference.engine().run(Algo::kEdsud, config);

  QueryOptions options = batched(30.0);  // would park ~forever...
  options.batching.maxMerge = 2;         // ...but fills after two members
  QueryEngine engine(shared.coordinator(), 4);
  QueryTicket a = engine.submit(Algo::kEdsud, config, options);
  QueryTicket b = engine.submit(Algo::kEdsud, config, options);
  expectSameAnswer(a.get(), ref);
  expectSameAnswer(b.get(), ref);
}

TEST(BatchTest, CacheHitResolvesAWholeGroup) {
  const Dataset data = generateSynthetic(
      SyntheticSpec{1200, 2, ValueDistribution::kAnticorrelated, 9900});
  InProcCluster shared(Topology::uniform(data, 4, 9901));
  ResultCache cache;
  QueryEngine engine(shared.coordinator(), 4);
  engine.setResultCache(&cache);

  QueryConfig config;
  config.q = 0.3;
  const QueryResult warm = engine.run(Algo::kEdsud, config);
  EXPECT_GT(warm.stats.tuplesShipped, 0u);

  // The leader runs through the cache-aware dispatch: a whole batched
  // group lands on the stored answer, no descent at all.
  QueryTicket a = engine.submit(Algo::kEdsud, config, batched());
  QueryTicket b = engine.submit(Algo::kEdsud, config, batched());
  const QueryResult gotA = a.get();
  const QueryResult gotB = b.get();
  expectSameAnswer(gotA, warm);
  expectSameAnswer(gotB, warm);
  EXPECT_EQ(gotA.stats.tuplesShipped, 0u);
  EXPECT_EQ(gotB.stats.tuplesShipped, 0u);
}

}  // namespace
}  // namespace dsud
