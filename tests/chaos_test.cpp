// Fault tolerance under a chaos-injected transport: retries with backoff
// absorb transient faults bit-identically, a killed site degrades the query
// to the survivors' skyline, and the supporting machinery (RetryPolicy,
// SiteHealth, the site-side replay caches, per-call deadlines) behaves as
// specified.  The chaos seed can be swept from the environment
// (DSUD_CHAOS_SEED) — CI runs a small seed matrix.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/cluster.hpp"
#include "core/health.hpp"
#include "core/local_site.hpp"
#include "core/query_engine.hpp"
#include "gen/partition.hpp"
#include "gen/synthetic.hpp"
#include "net/chaos.hpp"
#include "net/fault.hpp"
#include "net/inproc_transport.hpp"
#include "obs/trace.hpp"

namespace dsud {
namespace {

std::uint64_t chaosSeed() {
  if (const char* env = std::getenv("DSUD_CHAOS_SEED"); env != nullptr) {
    return std::strtoull(env, nullptr, 0);
  }
  return 0x5eed;
}

Dataset testGlobal() {
  return generateSynthetic(
      SyntheticSpec{400, 2, ValueDistribution::kIndependent, 4242});
}

const std::uint64_t* counterOrNull(const obs::MetricsSnapshot& snapshot,
                                   const std::string& name) {
  return snapshot.counter(name);
}

std::uint64_t counterSum(const obs::MetricsSnapshot& snapshot,
                         const std::string& base) {
  std::uint64_t sum = 0;
  for (const auto& [name, value] : snapshot.counters) {
    if (name.rfind(base + "{", 0) == 0 || name == base) sum += value;
  }
  return sum;
}

/// Gauge hygiene: however a query ends — clean, degraded, or aborted by a
/// SiteFailure — every in-flight gauge must be back at zero.
void expectInflightZero(const obs::MetricsSnapshot& snapshot) {
  bool sawGauge = false;
  for (const auto& [name, value] : snapshot.gauges) {
    if (name.rfind("dsud_queries_inflight", 0) == 0) {
      sawGauge = true;
      EXPECT_EQ(value, 0.0) << name;
    }
  }
  EXPECT_TRUE(sawGauge);
}

// --- RetryPolicy -----------------------------------------------------------

TEST(RetryPolicyTest, BackoffGrowsGeometricallyWithDecileJitter) {
  RetryPolicy policy;  // 10ms initial, x2, 1s cap
  Rng rng(7);
  using std::chrono::milliseconds;
  for (std::uint32_t retry = 1; retry <= 6; ++retry) {
    const auto base = std::min<std::int64_t>(10 * (1LL << (retry - 1)), 1000);
    for (int i = 0; i < 32; ++i) {
      const milliseconds d = policy.backoff(retry, rng);
      EXPECT_GE(d.count(), base) << "retry " << retry;
      EXPECT_LT(d.count(), base + base) << "retry " << retry;
    }
  }
}

TEST(RetryPolicyTest, ZeroInitialBackoffNeverSleeps) {
  RetryPolicy policy;
  policy.initialBackoff = std::chrono::milliseconds{0};
  Rng rng(7);
  for (std::uint32_t retry = 1; retry <= 8; ++retry) {
    EXPECT_EQ(policy.backoff(retry, rng).count(), 0);
  }
}

// --- SiteHealth ------------------------------------------------------------

TEST(SiteHealthTest, BreakerOpensAfterThresholdAndProbesDeterministically) {
  SiteHealth health(1, CircuitBreakerConfig{.failureThreshold = 3,
                                            .probeAfter = 2});
  EXPECT_EQ(health.state(), SiteHealth::State::kClosed);

  health.recordFailure();
  health.recordFailure();
  EXPECT_TRUE(health.admit());  // still closed below the threshold
  health.recordFailure();
  EXPECT_EQ(health.state(), SiteHealth::State::kOpen);
  EXPECT_EQ(health.trips(), 1u);

  // Open: rejects until `probeAfter` rejections let one probe through.
  EXPECT_FALSE(health.admit());
  EXPECT_TRUE(health.admit());  // 2nd rejection converts to the probe
  EXPECT_EQ(health.state(), SiteHealth::State::kHalfOpen);

  // A failed probe reopens immediately (no threshold accumulation).
  health.recordFailure();
  EXPECT_EQ(health.state(), SiteHealth::State::kOpen);
  EXPECT_EQ(health.trips(), 2u);

  // A successful probe closes and resets the failure count.
  EXPECT_FALSE(health.admit());
  EXPECT_TRUE(health.admit());
  health.recordSuccess();
  EXPECT_EQ(health.state(), SiteHealth::State::kClosed);
  EXPECT_EQ(health.consecutiveFailures(), 0u);
}

TEST(SiteHealthTest, SuccessResetsConsecutiveFailures) {
  SiteHealth health(3);
  health.recordFailure();
  health.recordFailure();
  health.recordSuccess();
  health.recordFailure();
  health.recordFailure();
  EXPECT_EQ(health.state(), SiteHealth::State::kClosed)
      << "interleaved successes must keep the breaker closed";
  EXPECT_EQ(health.trips(), 0u);
}

// --- LocalSite replay caches -----------------------------------------------

TEST(ReplayCacheTest, RepeatedNextCandidateSeqDoesNotAdvanceCursor) {
  Dataset db(2);
  db.add(Tuple(1, {1.0, 9.0}, 0.9));
  db.add(Tuple(2, {9.0, 1.0}, 0.8));
  LocalSite site(0, db);
  PrepareRequest prepare;
  prepare.query = 7;
  prepare.q = 0.1;
  site.prepare(prepare);

  const auto first = site.nextCandidate(NextCandidateRequest{7, 1});
  ASSERT_TRUE(first.candidate.has_value());

  // Duplicate delivery of seq 1: same answer, cursor NOT advanced.
  const auto replay = site.nextCandidate(NextCandidateRequest{7, 1});
  ASSERT_TRUE(replay.candidate.has_value());
  EXPECT_EQ(replay.candidate->tuple.id, first.candidate->tuple.id);
  EXPECT_EQ(site.pendingCount(7), 1u);

  const auto second = site.nextCandidate(NextCandidateRequest{7, 2});
  ASSERT_TRUE(second.candidate.has_value());
  EXPECT_NE(second.candidate->tuple.id, first.candidate->tuple.id);

  // Exhaustion is cached too.
  const auto empty = site.nextCandidate(NextCandidateRequest{7, 3});
  EXPECT_FALSE(empty.candidate.has_value());
  EXPECT_FALSE(site.nextCandidate(NextCandidateRequest{7, 3})
                   .candidate.has_value());
}

TEST(ReplayCacheTest, RepeatedEvaluateSeqDoesNotFoldSurvivalTwice) {
  Dataset db(2);
  db.add(Tuple(1, {5.0, 5.0}, 0.9));
  LocalSite site(0, db);
  PrepareRequest prepare;
  prepare.query = 9;
  prepare.q = 0.3;
  prepare.prune = PruneRule::kThresholdBound;
  site.prepare(prepare);
  ASSERT_EQ(site.pendingCount(9), 1u);

  // External dominator with P = 0.6: one fold leaves the pending entry's
  // bound at 0.9 * 0.4 = 0.36 >= q; a second fold would prune it
  // (0.9 * 0.16 < q).
  EvaluateRequest request;
  request.query = 9;
  request.tuple = Tuple(100, {1.0, 1.0}, 0.6);
  request.pruneLocal = true;
  request.seq = 1;

  const auto first = site.evaluate(request);
  EXPECT_EQ(first.prunedCount, 0u);
  ASSERT_EQ(site.pendingCount(9), 1u);

  const auto replay = site.evaluate(request);  // duplicate delivery
  EXPECT_EQ(replay.survival, first.survival);
  EXPECT_EQ(replay.prunedCount, first.prunedCount);
  EXPECT_EQ(site.pendingCount(9), 1u)
      << "a replayed evaluate must not fold extSurvival again";

  request.seq = 2;  // a genuinely new delivery folds (and now prunes)
  const auto second = site.evaluate(request);
  EXPECT_EQ(second.prunedCount, 1u);
  EXPECT_EQ(site.pendingCount(9), 0u);
}

// --- Deadlines -------------------------------------------------------------

TEST(DeadlineTest, InProcCallOverrunningDeadlineThrowsNetTimeout) {
  InProcChannel channel([](const Frame& f) {
    std::this_thread::sleep_for(std::chrono::milliseconds{20});
    return f;
  });
  const Frame ping(4, std::byte{1});
  EXPECT_EQ(channel.call(ping), ping);  // no deadline: slow is fine

  channel.setDeadline(std::chrono::milliseconds{5});
  EXPECT_THROW(channel.call(ping), NetTimeout);

  channel.setDeadline(std::chrono::milliseconds{0});
  EXPECT_EQ(channel.call(ping), ping);
}

// --- ChaosSpec validation ---------------------------------------------------

TEST(ChaosTest, RatesSummingPastOneAreRejected) {
  ChaosSpec spec;
  spec.dropRate = 0.7;
  spec.errorRate = 0.5;
  EXPECT_THROW(ChaosState(spec, 0), std::invalid_argument);
}

TEST(ChaosTest, OnlySiteMismatchIsInertAndConsumesNoRandomness) {
  ChaosSpec spec;
  spec.dropRate = 1.0;
  spec.onlySite = 3;
  ChaosState other(spec, 1);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(other.next(1), ChaosState::Fault::kNone);
  }
  EXPECT_EQ(other.faultsInjected(), 0u);

  ChaosState victim(spec, 3);
  EXPECT_EQ(victim.next(1), ChaosState::Fault::kDrop);
}

// --- Transient faults below the retry budget --------------------------------

TEST(ChaosTest, TransientFaultsBelowRetryBudgetAreBitIdentical) {
  const Dataset global = testGlobal();
  Rng rng(99);
  const auto siteData = partitionUniform(global, 5, rng);

  InProcCluster clean(Topology::fromPartitions(siteData));

  ClusterConfig chaotic;
  chaotic.chaos = ChaosSpec{.dropRate = 0.1, .errorRate = 0.1,
                            .seed = chaosSeed()};
  InProcCluster noisy(Topology::fromPartitions(siteData), chaotic);

  QueryOptions fault;
  fault.fault.retry.maxAttempts = 8;
  fault.fault.retry.initialBackoff = std::chrono::milliseconds{0};

  for (const Algo algo : {Algo::kDsud, Algo::kEdsud, Algo::kNaive}) {
    const QueryResult reference = clean.engine().run(algo, QueryConfig{});
    const QueryResult faulty = noisy.engine().run(algo, QueryConfig{}, fault);

    EXPECT_FALSE(faulty.degraded);
    EXPECT_TRUE(faulty.excludedSites.empty());
    ASSERT_EQ(faulty.skyline, reference.skyline)
        << "algo " << static_cast<int>(algo);
    // Retries replay whole operations, so the logical work counters are
    // attempt-invariant (wall time excepted).
    EXPECT_EQ(faulty.stats.tuplesShipped, reference.stats.tuplesShipped);
    EXPECT_EQ(faulty.stats.bytesShipped, reference.stats.bytesShipped);
    EXPECT_EQ(faulty.stats.roundTrips, reference.stats.roundTrips);
    EXPECT_EQ(faulty.stats.candidatesPulled, reference.stats.candidatesPulled);
    EXPECT_EQ(faulty.stats.broadcasts, reference.stats.broadcasts);
  }

  const obs::MetricsSnapshot snapshot = noisy.metricsRegistry().snapshot();
  EXPECT_GT(counterSum(snapshot, "dsud_retries_total"), 0u)
      << "a 20% fault rate over hundreds of calls must retry at least once";
  EXPECT_EQ(counterSum(snapshot, "dsud_breaker_trips_total"), 0u)
      << "transient faults below the retry budget must never trip a breaker";
  EXPECT_GT(counterSum(snapshot, "dsud_chaos_faults_total"), 0u);
  expectInflightZero(snapshot);
}

TEST(ChaosTest, RetriedRpcSpansDifferFromCleanOnlyByRetryAttrs) {
  // Tracing under transient faults: the protocol timeline is the same span
  // tree as the clean run — retries replay whole operations — and the ONLY
  // difference is the `attempts` / `breaker_state` annotations on the RPC
  // spans that had to retry.  The clean trace carries neither attribute.
  const Dataset global = testGlobal();
  Rng rng(99);
  const auto siteData = partitionUniform(global, 5, rng);

  InProcCluster clean(Topology::fromPartitions(siteData));
  ClusterConfig chaotic;
  chaotic.chaos = ChaosSpec{.dropRate = 0.1, .errorRate = 0.1,
                            .seed = chaosSeed()};
  InProcCluster noisy(Topology::fromPartitions(siteData), chaotic);

  QueryOptions options;  // default traceCapacity: tracing on, site tracing off
  options.fault.retry.maxAttempts = 8;
  options.fault.retry.initialBackoff = std::chrono::milliseconds{0};

  const auto isRetryAttr = [](const std::pair<std::string, double>& a) {
    return a.first == "attempts" || a.first == "breaker_state";
  };

  for (const Algo algo : {Algo::kDsud, Algo::kEdsud}) {
    const QueryResult reference = clean.engine().run(algo, QueryConfig{},
                                                     options);
    const QueryResult faulty = noisy.engine().run(algo, QueryConfig{},
                                                  options);
    ASSERT_FALSE(faulty.degraded);
    ASSERT_EQ(faulty.skyline, reference.skyline);

    const auto& cleanEvents = reference.trace.events;
    const auto& faultyEvents = faulty.trace.events;
    ASSERT_EQ(faultyEvents.size(), cleanEvents.size())
        << "algo " << static_cast<int>(algo);

    std::size_t retried = 0;
    for (std::size_t i = 0; i < cleanEvents.size(); ++i) {
      const obs::TraceEvent& c = cleanEvents[i];
      const obs::TraceEvent& f = faultyEvents[i];
      EXPECT_EQ(f.name, c.name) << "span " << i;
      EXPECT_EQ(f.parent, c.parent) << "span " << i << " (" << c.name << ")";

      EXPECT_TRUE(std::none_of(c.attrs.begin(), c.attrs.end(), isRetryAttr))
          << "clean span " << i << " (" << c.name
          << ") must not carry retry attrs";

      auto stripped = f.attrs;
      const auto tail =
          std::remove_if(stripped.begin(), stripped.end(), isRetryAttr);
      if (tail != stripped.end()) {
        ++retried;
        stripped.erase(tail, stripped.end());
      }
      EXPECT_EQ(stripped, c.attrs) << "span " << i << " (" << c.name << ")";
    }
    EXPECT_GT(retried, 0u)
        << "a 20% fault rate must force at least one annotated retry";
  }
}

// --- Degraded mode: a killed site -------------------------------------------

TEST(ChaosTest, KilledSiteDegradesBitIdenticallyToSurvivorCluster) {
  const Dataset global = testGlobal();
  Rng rng(99);
  const std::size_t m = 5;
  const SiteId victim = 2;
  const auto siteData = partitionUniform(global, m, rng);

  // Reference: the same partition without the victim (site ids shift, so
  // answers are compared by tuple id and probability, not origin).
  std::vector<Dataset> survivorData;
  for (std::size_t i = 0; i < siteData.size(); ++i) {
    if (i != victim) survivorData.push_back(siteData[i]);
  }
  InProcCluster reference(Topology::fromPartitions(survivorData));

  // The victim's kPrepare succeeds (killAfter = 1), then its first
  // kNextCandidate fails for good — before it contributed any candidate.
  ClusterConfig chaotic;
  chaotic.chaos = ChaosSpec{.killAfter = 1, .onlySite = victim,
                            .seed = chaosSeed()};

  QueryOptions degrade;
  degrade.fault.onSiteFailure = OnSiteFailure::kDegrade;

  for (const Algo algo : {Algo::kDsud, Algo::kEdsud}) {
    InProcCluster cluster(Topology::fromPartitions(siteData), chaotic);
    const QueryResult ref = reference.engine().run(algo, QueryConfig{});
    const QueryResult degraded =
        cluster.engine().run(algo, QueryConfig{}, degrade);

    EXPECT_TRUE(degraded.degraded);
    ASSERT_EQ(degraded.excludedSites, std::vector<SiteId>{victim});
    ASSERT_EQ(degraded.skyline.size(), ref.skyline.size())
        << "algo " << static_cast<int>(algo);
    for (std::size_t i = 0; i < ref.skyline.size(); ++i) {
      EXPECT_EQ(degraded.skyline[i].tuple.id, ref.skyline[i].tuple.id);
      EXPECT_EQ(degraded.skyline[i].localSkyProb, ref.skyline[i].localSkyProb);
      EXPECT_EQ(degraded.skyline[i].globalSkyProb,
                ref.skyline[i].globalSkyProb)
          << "degraded answers must be bit-identical to the survivor run";
    }
    EXPECT_TRUE(cluster.chaos(victim)->killed());

    const obs::MetricsSnapshot snapshot =
        cluster.metricsRegistry().snapshot();
    EXPECT_GT(counterSum(snapshot, "dsud_degraded_queries_total"), 0u);
    EXPECT_NE(counterOrNull(snapshot, obs::labeled("dsud_chaos_faults_total",
                                                   {{"site", "2"},
                                                    {"kind", "killed"}})),
              nullptr);
    expectInflightZero(snapshot);
  }
}

TEST(ChaosTest, KilledSiteUnderFailPolicyThrowsSiteFailure) {
  const Dataset global = testGlobal();
  Rng rng(99);
  const auto siteData = partitionUniform(global, 5, rng);

  ClusterConfig chaotic;
  chaotic.chaos = ChaosSpec{.killAfter = 1, .onlySite = 2,
                            .seed = chaosSeed()};
  InProcCluster cluster(Topology::fromPartitions(siteData), chaotic);

  try {
    // Default options: OnSiteFailure::kFail.
    cluster.engine().run(Algo::kDsud, QueryConfig{});
    FAIL() << "a dead site under kFail must abort the query";
  } catch (const SiteFailure& failure) {
    EXPECT_EQ(failure.site(), 2u);
    EXPECT_GE(failure.attempts(), 1u);
  }
  expectInflightZero(cluster.metricsRegistry().snapshot());
}

TEST(ChaosTest, NaiveDegradesOverSurvivors) {
  const Dataset global = testGlobal();
  Rng rng(99);
  const auto siteData = partitionUniform(global, 4, rng);

  std::vector<Dataset> survivorData;
  for (std::size_t i = 0; i < siteData.size(); ++i) {
    if (i != 1) survivorData.push_back(siteData[i]);
  }
  InProcCluster reference(Topology::fromPartitions(survivorData));

  // kShipAll frames carry no session id, so onlyQuery must stay 0 here;
  // killAfter = 0 faults from the very first matched call.
  ClusterConfig chaotic;
  chaotic.chaos = ChaosSpec{.dropRate = 1.0, .onlySite = 1,
                            .seed = chaosSeed()};
  InProcCluster cluster(Topology::fromPartitions(siteData), chaotic);

  QueryOptions degrade;
  degrade.fault.onSiteFailure = OnSiteFailure::kDegrade;
  const QueryResult degraded =
      cluster.engine().run(Algo::kNaive, QueryConfig{}, degrade);
  const QueryResult ref = reference.engine().run(Algo::kNaive, QueryConfig{});

  EXPECT_TRUE(degraded.degraded);
  ASSERT_EQ(degraded.excludedSites, std::vector<SiteId>{1});
  ASSERT_EQ(degraded.skyline.size(), ref.skyline.size());
  for (std::size_t i = 0; i < ref.skyline.size(); ++i) {
    EXPECT_EQ(degraded.skyline[i].tuple.id, ref.skyline[i].tuple.id);
    EXPECT_EQ(degraded.skyline[i].globalSkyProb, ref.skyline[i].globalSkyProb);
  }
}

// --- k-replica failover -----------------------------------------------------

TEST(ChaosTest, KilledMemberFailsOverToReplicaBitIdentically) {
  const Dataset global = testGlobal();
  Rng rng(99);
  const auto siteData = partitionUniform(global, 4, rng);

  // Reference: the same partitioning, healthy and unreplicated.  Replicas
  // hold bit-identical stores under the partition's own SiteId, so a
  // failed-over query must match it exactly — not degrade.
  InProcCluster reference(Topology::fromPartitions(siteData));

  ClusterConfig chaotic;
  chaotic.chaos = ChaosSpec{.killAfter = 1, .onlySite = 2,
                            .seed = chaosSeed()};
  InProcCluster cluster(Topology::fromPartitions(siteData, 2), chaotic);

  QueryOptions fast;  // keep the doomed retries of the dying store cheap
  fast.fault.retry.initialBackoff = std::chrono::milliseconds{0};

  for (const Algo algo : {Algo::kDsud, Algo::kEdsud, Algo::kNaive}) {
    const QueryResult ref = reference.engine().run(algo, QueryConfig{});
    const QueryResult survived =
        cluster.engine().run(algo, QueryConfig{}, fast);
    EXPECT_FALSE(survived.degraded)
        << "k=2 failover must lose zero results, algo "
        << static_cast<int>(algo);
    EXPECT_TRUE(survived.excludedSites.empty());
    ASSERT_EQ(survived.skyline, ref.skyline)
        << "algo " << static_cast<int>(algo);
  }
  EXPECT_TRUE(cluster.chaos(2)->killed());

  const obs::MetricsSnapshot snapshot = cluster.metricsRegistry().snapshot();
  EXPECT_GT(counterSum(snapshot, "dsud_failovers_total"), 0u);
  EXPECT_EQ(counterSum(snapshot, "dsud_degraded_queries_total"), 0u);
  expectInflightZero(snapshot);
}

TEST(ChaosTest, KilledMemberMidRepartitionRecoversFromReplicas) {
  const Dataset global = testGlobal();
  Rng rng(99);
  const auto siteData = partitionUniform(global, 4, rng);

  ClusterConfig chaotic;
  chaotic.chaos = ChaosSpec{.killAfter = 1, .onlySite = 1,
                            .seed = chaosSeed()};
  InProcCluster cluster(Topology::fromPartitions(siteData, 2), chaotic);

  // Member 1's first call consumes its kill budget: the query below both
  // kills it and proves mid-query failover to the replica on member 2.
  QueryOptions fast;
  fast.fault.retry.initialBackoff = std::chrono::milliseconds{0};
  const QueryResult firstQuery =
      cluster.engine().run(Algo::kEdsud, QueryConfig{}, fast);
  EXPECT_FALSE(firstQuery.degraded);
  EXPECT_TRUE(cluster.chaos(1)->killed());

  // Repartition with the member dead: gather() falls back to partition 1's
  // replica, and streaming the new cuts onto member 1 fails, so the next
  // epoch serves its partitions from the surviving hosts only.
  cluster.rebalance();
  EXPECT_EQ(cluster.membershipEpoch(), 2u);

  // Zero result loss: the rebalanced cluster answers bit-identically to a
  // healthy from-scratch cluster over the same STR cuts.
  InProcCluster fresh(Topology::fromPartitions(partitionSTR(global, 4)));
  for (const Algo algo : {Algo::kDsud, Algo::kEdsud}) {
    const QueryResult ref = fresh.engine().run(algo, QueryConfig{});
    const QueryResult result =
        cluster.engine().run(algo, QueryConfig{}, fast);
    EXPECT_FALSE(result.degraded);
    EXPECT_TRUE(result.excludedSites.empty());
    ASSERT_EQ(result.skyline, ref.skyline)
        << "algo " << static_cast<int>(algo);
  }
}

// --- Breaker integration ----------------------------------------------------

TEST(ChaosTest, PersistentlyDeadSiteTripsBreakerAcrossQueries) {
  const Dataset global = testGlobal();
  Rng rng(99);
  const auto siteData = partitionUniform(global, 4, rng);

  ClusterConfig config;
  config.chaos = ChaosSpec{.killAfter = 1, .onlySite = 0,
                           .seed = chaosSeed()};
  config.breaker = CircuitBreakerConfig{.failureThreshold = 2,
                                        .probeAfter = 100};
  InProcCluster cluster(Topology::fromPartitions(siteData), config);

  QueryOptions degrade;
  degrade.fault.onSiteFailure = OnSiteFailure::kDegrade;

  // Each degraded query records one operation failure against site 0; after
  // `failureThreshold` of them the breaker opens and later queries skip the
  // site without spending its retry budget (SiteFailure::attempts == 0
  // internally — surfaced here as an instant degrade).
  for (int i = 0; i < 4; ++i) {
    const QueryResult result =
        cluster.engine().run(Algo::kEdsud, QueryConfig{}, degrade);
    EXPECT_TRUE(result.degraded);
    ASSERT_EQ(result.excludedSites, std::vector<SiteId>{0});
  }
  EXPECT_EQ(cluster.coordinator().health(0).state(),
            SiteHealth::State::kOpen);
  EXPECT_GE(cluster.coordinator().health(0).trips(), 1u);

  const obs::MetricsSnapshot snapshot = cluster.metricsRegistry().snapshot();
  EXPECT_GE(counterSum(snapshot, "dsud_breaker_trips_total"), 1u);
}

}  // namespace
}  // namespace dsud
