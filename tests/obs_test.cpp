// Observability subsystem: instrument math, registry semantics, trace
// nesting, exporter formats, and the end-to-end wiring through a query run
// (non-empty QueryTrace + transport byte counters that agree with the
// BandwidthMeter on the in-process transport).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/cluster.hpp"
#include "gen/synthetic.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "prom_util.hpp"

namespace dsud {
namespace {

// ---------------------------------------------------------------------------
// Instruments

TEST(ObsCounterTest, Add) {
  obs::Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(ObsCounterTest, ConcurrentIncrementsFromPoolWorkers) {
  obs::Counter c;
  obs::Histogram h({1.0, 10.0, 100.0});
  constexpr std::size_t kTasks = 8;
  constexpr std::size_t kPerTask = 20000;
  {
    ThreadPool pool(4);
    std::vector<std::future<void>> done;
    for (std::size_t t = 0; t < kTasks; ++t) {
      done.push_back(pool.submit([&c, &h, t] {
        for (std::size_t i = 0; i < kPerTask; ++i) {
          c.inc();
          h.observe(static_cast<double>(t));
        }
      }));
    }
    for (auto& f : done) f.get();
  }
  EXPECT_EQ(c.value(), kTasks * kPerTask);
  EXPECT_EQ(h.count(), kTasks * kPerTask);
  // Sum accumulated through the CAS loop must be exact: sum_t t * kPerTask.
  EXPECT_DOUBLE_EQ(h.sum(), 28.0 * kPerTask);
}

TEST(ObsHistogramTest, BucketAssignmentWithInclusiveUpperEdge) {
  obs::Histogram h({1.0, 2.0, 4.0});
  h.observe(0.5);  // (0, 1]
  h.observe(1.0);  // exactly on the edge -> still bucket 0
  h.observe(1.5);  // (1, 2]
  h.observe(2.0);  // edge of bucket 1
  h.observe(4.0);  // edge of bucket 2
  h.observe(9.0);  // overflow
  const auto buckets = h.bucketCounts();
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0], 2u);
  EXPECT_EQ(buckets[1], 2u);
  EXPECT_EQ(buckets[2], 1u);
  EXPECT_EQ(buckets[3], 1u);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 2.0 + 4.0 + 9.0);
}

TEST(ObsHistogramTest, QuantileInterpolation) {
  obs::Histogram h({10.0, 20.0});
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);  // empty
  h.observe(5.0);
  h.observe(15.0);
  h.observe(16.0);
  h.observe(17.0);
  // One of four observations in (0, 10], three in (10, 20]: the median falls
  // in the second bucket, p25 and below in the first.
  EXPECT_GT(h.quantile(0.5), 10.0);
  EXPECT_LE(h.quantile(0.5), 20.0);
  EXPECT_GT(h.quantile(0.2), 0.0);
  EXPECT_LE(h.quantile(0.2), 10.0);
  EXPECT_LE(h.p99(), 20.0);
  // Values past every bound report the largest finite bound.
  obs::Histogram over({1.0, 2.0});
  over.observe(100.0);
  EXPECT_DOUBLE_EQ(over.quantile(0.99), 2.0);
}

TEST(ObsHistogramTest, ExponentialBoundsLadder) {
  const auto bounds = obs::Histogram::exponentialBounds(1e-6, 4.0, 5);
  ASSERT_EQ(bounds.size(), 5u);
  EXPECT_DOUBLE_EQ(bounds[0], 1e-6);
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_DOUBLE_EQ(bounds[i], bounds[i - 1] * 4.0);
  }
  const auto latency = obs::Histogram::latencyBounds();
  ASSERT_EQ(latency.size(), 14u);
  EXPECT_LT(latency.back(), 100.0);
  EXPECT_GT(latency.back(), 10.0);
}

TEST(ObsRegistryTest, StableAddressesAndKindChecks) {
  obs::MetricsRegistry reg;
  obs::Counter& a = reg.counter("x_total");
  obs::Counter& b = reg.counter("x_total");
  EXPECT_EQ(&a, &b);
  EXPECT_THROW(reg.gauge("x_total"), std::logic_error);
  EXPECT_THROW(reg.histogram("x_total", {1.0}), std::logic_error);

  obs::Histogram& h = reg.histogram("lat_seconds", {1.0, 2.0});
  EXPECT_EQ(&h, &reg.histogram("lat_seconds", {1.0, 2.0}));
  EXPECT_THROW(reg.histogram("lat_seconds", {3.0}), std::logic_error);
}

TEST(ObsRegistryTest, LabeledNameFormat) {
  EXPECT_EQ(obs::labeled("m_total", {{"algo", "edsud"}}),
            "m_total{algo=\"edsud\"}");
  EXPECT_EQ(obs::labeled("m_total", {{"a", "1"}, {"b", "2"}}),
            "m_total{a=\"1\",b=\"2\"}");
}

// ---------------------------------------------------------------------------
// Traces

TEST(ObsTraceTest, SpanNestingOrderAndAttrs) {
  obs::Tracer tracer(16);
  const obs::SpanId root = tracer.begin("root");
  {
    obs::TraceSpan a(tracer, "a");
    {
      obs::TraceSpan b(tracer, "b");
      b.attr("x", 1.5);
    }
    obs::TraceSpan c(tracer, "c");  // sibling of b: b already closed
  }
  tracer.end(root);
  const obs::QueryTrace trace = tracer.take();

  ASSERT_EQ(trace.events.size(), 4u);
  EXPECT_EQ(trace.droppedEvents, 0u);
  EXPECT_EQ(trace.events[0].name, "root");
  EXPECT_EQ(trace.events[0].parent, obs::kNoSpan);
  EXPECT_EQ(trace.events[1].name, "a");
  EXPECT_EQ(trace.events[1].parent, obs::SpanId{0});
  EXPECT_EQ(trace.events[2].name, "b");
  EXPECT_EQ(trace.events[2].parent, obs::SpanId{1});
  EXPECT_EQ(trace.events[3].name, "c");
  EXPECT_EQ(trace.events[3].parent, obs::SpanId{1});
  ASSERT_EQ(trace.events[2].attrs.size(), 1u);
  EXPECT_EQ(trace.events[2].attrs[0].first, "x");
  EXPECT_DOUBLE_EQ(trace.events[2].attrs[0].second, 1.5);
  for (const auto& e : trace.events) {
    EXPECT_NE(e.endNs, 0u) << e.name;
    EXPECT_GE(e.endNs, e.startNs) << e.name;
  }
  // Events are in span-start order.
  for (std::size_t i = 1; i < trace.events.size(); ++i) {
    EXPECT_GE(trace.events[i].startNs, trace.events[i - 1].startNs);
  }
}

TEST(ObsTraceTest, EventCapCountsDrops) {
  obs::Tracer tracer(2);
  const auto a = tracer.begin("a");
  const auto b = tracer.begin("b");
  const auto c = tracer.begin("c");  // past the cap
  EXPECT_NE(a, obs::kNoSpan);
  EXPECT_NE(b, obs::kNoSpan);
  EXPECT_EQ(c, obs::kNoSpan);
  tracer.end(c);  // must be a safe no-op
  const obs::QueryTrace trace = tracer.take();  // closes a and b
  EXPECT_EQ(trace.events.size(), 2u);
  EXPECT_EQ(trace.droppedEvents, 1u);
  EXPECT_NE(trace.events[0].endNs, 0u);
  EXPECT_NE(trace.events[1].endNs, 0u);
}

TEST(ObsTraceTest, DisabledTracerIsNoOp) {
  obs::Tracer tracer;
  EXPECT_FALSE(tracer.enabled());
  const auto id = tracer.begin("x");
  EXPECT_EQ(id, obs::kNoSpan);
  tracer.attr(id, "k", 1.0);
  tracer.end(id);
  EXPECT_TRUE(tracer.take().empty());
}

// ---------------------------------------------------------------------------
// Exporters
//
// The Prometheus conformance rules (typed families, cumulative histogram
// buckets ending in le="+Inf", ...) live in tests/prom_util.hpp, shared
// with server_test and the prom_lint CLI; here they surface as failures.

void expectValidExposition(const std::string& text) {
  for (const std::string& error : promtest::lintExposition(text)) {
    ADD_FAILURE() << error;
  }
}

TEST(ObsExportTest, PrometheusExpositionParses) {
  obs::MetricsRegistry reg;
  reg.counter(obs::labeled("dsud_rounds_total", {{"algo", "dsud"}})).add(3);
  reg.counter("plain_total").inc();
  reg.gauge("dsud_threshold").set(0.25);
  obs::Histogram& h =
      reg.histogram(obs::labeled("dsud_round_latency_seconds",
                                 {{"algo", "dsud"}}),
                    {0.001, 0.01, 0.1});
  h.observe(0.005);
  h.observe(0.5);

  const std::string text = obs::metricsToPrometheus(reg.snapshot());
  expectValidExposition(text);
  EXPECT_NE(text.find("# TYPE dsud_rounds_total counter"), std::string::npos);
  EXPECT_NE(text.find("dsud_rounds_total{algo=\"dsud\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE dsud_round_latency_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos);
  EXPECT_NE(text.find("dsud_round_latency_seconds_count{algo=\"dsud\"} 2"),
            std::string::npos);
}

/// Minimal structural JSON check: balanced braces/brackets outside strings,
/// no trailing garbage.  (A full parser is out of scope; the shape checks
/// below pin the schema.)
void expectBalancedJson(const std::string& json) {
  int depth = 0;
  bool inString = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (inString) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        inString = false;
      }
      continue;
    }
    if (c == '"') inString = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') {
      --depth;
      ASSERT_GE(depth, 0) << "unbalanced at offset " << i;
    }
  }
  EXPECT_FALSE(inString);
  EXPECT_EQ(depth, 0);
}

TEST(ObsExportTest, JsonRoundTripShape) {
  obs::MetricsRegistry reg;
  reg.counter(obs::labeled("c_total", {{"k", "v\"q"}})).add(5);
  reg.gauge("g").set(1.25);
  reg.histogram("h_seconds", {1.0, 2.0}).observe(1.5);

  const std::string json = obs::metricsToJson(reg.snapshot());
  expectBalancedJson(json);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\\\"q"), std::string::npos);  // escaped label quote
  EXPECT_NE(json.find("\"p95\""), std::string::npos);
  EXPECT_NE(json.find("\"bounds\""), std::string::npos);
}

TEST(ObsExportTest, TraceJson) {
  obs::Tracer tracer(8);
  {
    obs::TraceSpan a(tracer, "query.dsud");
    obs::TraceSpan b(tracer, "round");
    b.attr("site", 3);
  }
  const std::string json = obs::traceToJson(tracer.take());
  expectBalancedJson(json);
  EXPECT_NE(json.find("\"query.dsud\""), std::string::npos);
  EXPECT_NE(json.find("\"round\""), std::string::npos);
  EXPECT_NE(json.find("\"site\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// End-to-end wiring through real query runs

std::uint64_t transportBytes(const obs::MetricsSnapshot& snapshot) {
  std::uint64_t total = 0;
  for (const auto& [name, value] : snapshot.counters) {
    if (name.rfind("dsud_transport_bytes_total", 0) == 0) total += value;
  }
  return total;
}

const std::uint64_t* counterAt(const obs::MetricsSnapshot& snapshot,
                               const std::string& name) {
  return snapshot.counter(name);
}

TEST(ObsIntegrationTest, DsudRunProducesTraceAndMatchingByteCounters) {
  const Dataset global = generateSynthetic(
      SyntheticSpec{800, 3, ValueDistribution::kAnticorrelated, 42});
  InProcCluster cluster(Topology::uniform(global, 5, 43));
  QueryConfig config;
  config.q = 0.3;

  const QueryResult result = cluster.engine().run(Algo::kDsud, config);

  ASSERT_FALSE(result.trace.empty());
  EXPECT_EQ(result.trace.events.front().name, "query.dsud");
  EXPECT_EQ(result.trace.events.front().parent, obs::kNoSpan);
  bool sawRound = false, sawPull = false, sawBroadcast = false;
  for (const auto& e : result.trace.events) {
    sawRound |= e.name == "round";
    sawPull |= e.name == "pull";
    sawBroadcast |= e.name == "broadcast";
    EXPECT_NE(e.endNs, 0u) << e.name;
  }
  EXPECT_TRUE(sawRound);
  EXPECT_TRUE(sawPull);
  EXPECT_TRUE(sawBroadcast);

  const obs::MetricsSnapshot snapshot = cluster.metricsRegistry().snapshot();
  // In-process frames have no framing overhead, so the per-site transport
  // byte counters must equal the meter's payload bytes exactly.
  EXPECT_GT(result.stats.bytesShipped, 0u);
  EXPECT_EQ(transportBytes(snapshot), result.stats.bytesShipped);

  const auto* queries =
      counterAt(snapshot, "dsud_queries_total{algo=\"dsud\"}");
  ASSERT_NE(queries, nullptr);
  EXPECT_EQ(*queries, 1u);
  // Each loop iteration is one round; every broadcast happens inside one,
  // and the final iteration may break before broadcasting.
  const auto* rounds = counterAt(snapshot, "dsud_rounds_total{algo=\"dsud\"}");
  ASSERT_NE(rounds, nullptr);
  EXPECT_GE(*rounds, result.stats.broadcasts);
  EXPECT_GT(*rounds, 0u);
  const auto* pulls =
      counterAt(snapshot, "dsud_candidates_pulled_total{algo=\"dsud\"}");
  ASSERT_NE(pulls, nullptr);
  EXPECT_EQ(*pulls, result.stats.candidatesPulled);
  const auto* answers =
      counterAt(snapshot, "dsud_answers_total{algo=\"dsud\"}");
  ASSERT_NE(answers, nullptr);
  EXPECT_EQ(*answers, result.skyline.size());
  const auto* hist = snapshot.histogram(
      "dsud_round_latency_seconds{algo=\"dsud\"}");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, *rounds);

  // The whole snapshot must export as valid Prometheus text — this is the
  // exact code path `dsudctl metrics` prints.
  expectValidExposition(obs::metricsToPrometheus(snapshot));
}

TEST(ObsIntegrationTest, EdsudRunProducesTraceAndMatchingByteCounters) {
  const Dataset global = generateSynthetic(
      SyntheticSpec{800, 3, ValueDistribution::kAnticorrelated, 42});
  InProcCluster cluster(Topology::uniform(global, 5, 43));
  QueryConfig config;
  config.q = 0.3;

  const QueryResult result = cluster.engine().run(Algo::kEdsud, config);

  ASSERT_FALSE(result.trace.empty());
  EXPECT_EQ(result.trace.events.front().name, "query.edsud");

  const obs::MetricsSnapshot snapshot = cluster.metricsRegistry().snapshot();
  EXPECT_EQ(transportBytes(snapshot), result.stats.bytesShipped);
  const auto* expunged =
      counterAt(snapshot, "dsud_expunged_total{algo=\"edsud\"}");
  ASSERT_NE(expunged, nullptr);
  EXPECT_EQ(*expunged, result.stats.expunged);
  expectValidExposition(obs::metricsToPrometheus(snapshot));
}

TEST(ObsIntegrationTest, GaugesReturnToIdleAndPerSiteCountersMatchUsage) {
  const Dataset global = generateSynthetic(
      SyntheticSpec{700, 3, ValueDistribution::kAnticorrelated, 77});
  InProcCluster cluster(Topology::uniform(global, 4, 78));
  QueryConfig config;
  config.q = 0.3;

  const QueryResult dsud = cluster.engine().run(Algo::kDsud, config);
  const QueryResult edsud = cluster.engine().run(Algo::kEdsud, config);

  const obs::MetricsSnapshot snapshot = cluster.metricsRegistry().snapshot();
  // Gauge hygiene: every in-flight gauge is back to zero once the last
  // session finalized — a leak here means a session skipped its teardown.
  bool sawInflight = false;
  for (const auto& [name, value] : snapshot.gauges) {
    if (name.rfind("dsud_queries_inflight", 0) == 0) {
      sawInflight = true;
      EXPECT_EQ(value, 0.0) << name;
    }
  }
  EXPECT_TRUE(sawInflight);

  // The per-site wire counters must agree with the per-query usage sums:
  // in-process frames carry no overhead, so bytes match exactly, and every
  // round trip is one frame out plus one frame in.
  std::uint64_t frames = 0;
  for (const auto& [name, value] : snapshot.counters) {
    if (name.rfind("dsud_transport_frames_total", 0) == 0) frames += value;
  }
  EXPECT_EQ(transportBytes(snapshot),
            dsud.stats.bytesShipped + edsud.stats.bytesShipped);
  EXPECT_EQ(frames, 2 * (dsud.stats.roundTrips + edsud.stats.roundTrips));
}

std::uint64_t algoCounter(const obs::MetricsSnapshot& snapshot,
                          const char* base, const std::string& algo) {
  const std::uint64_t* value =
      snapshot.counter(obs::labeled(base, {{"algo", algo}}));
  EXPECT_NE(value, nullptr) << base << " " << algo;
  return value == nullptr ? 0 : *value;
}

// A run keeps one tally: its EXPLAIN rows sum to its QueryStats, and the
// per-algorithm counters it feeds equal that result, for every algorithm.
TEST(ObsIntegrationTest, SiteRowsAndCountersMatchStatsForEveryAlgorithm) {
  const Dataset global = generateSynthetic(
      SyntheticSpec{600, 3, ValueDistribution::kAnticorrelated, 91});
  QueryConfig config;
  config.q = 0.3;
  TopKConfig topk;
  topk.k = 5;
  topk.floorQ = 0.05;
  const std::vector<std::pair<std::string,
                              std::function<QueryResult(QueryEngine&)>>>
      cases = {
          {"naive", [&](QueryEngine& e) { return e.run(Algo::kNaive, config); }},
          {"dsud", [&](QueryEngine& e) { return e.run(Algo::kDsud, config); }},
          {"edsud", [&](QueryEngine& e) { return e.run(Algo::kEdsud, config); }},
          {"topk", [&](QueryEngine& e) { return e.run(topk); }},
      };
  for (const auto& [algo, run] : cases) {
    SCOPED_TRACE(algo);
    InProcCluster cluster(Topology::uniform(global, 4, 92));
    const QueryResult result = run(cluster.engine());
    ASSERT_FALSE(result.skyline.empty());

    SiteProfile sum;
    for (const SiteProfile& site : result.profile.sites) {
      sum.tuples += site.tuples;
      sum.bytes += site.bytes;
      sum.candidates += site.candidates;
      sum.pruned += site.pruned;
    }
    EXPECT_GT(result.stats.candidatesPulled, 0u);
    EXPECT_EQ(sum.tuples, result.stats.tuplesShipped);
    EXPECT_EQ(sum.bytes, result.stats.bytesShipped);
    EXPECT_EQ(sum.candidates, result.stats.candidatesPulled);
    EXPECT_EQ(sum.pruned, result.stats.prunedAtSites);

    const obs::MetricsSnapshot snapshot =
        cluster.metricsRegistry().snapshot();
    EXPECT_EQ(algoCounter(snapshot, "dsud_queries_total", algo), 1u);
    EXPECT_EQ(algoCounter(snapshot, "dsud_candidates_pulled_total", algo),
              result.stats.candidatesPulled);
    EXPECT_EQ(algoCounter(snapshot, "dsud_expunged_total", algo),
              result.stats.expunged);
    EXPECT_EQ(algoCounter(snapshot, "dsud_pruned_at_sites_total", algo),
              result.stats.prunedAtSites);
    EXPECT_EQ(algoCounter(snapshot, "dsud_answers_total", algo),
              result.skyline.size());
    EXPECT_EQ(algoCounter(snapshot, "dsud_degraded_queries_total", algo), 0u);
    const std::uint64_t rounds =
        algoCounter(snapshot, "dsud_rounds_total", algo);
    const auto* roundLatency = snapshot.histogram(
        obs::labeled("dsud_round_latency_seconds", {{"algo", algo}}));
    ASSERT_NE(roundLatency, nullptr);
    EXPECT_EQ(roundLatency->count, rounds);
    EXPECT_GE(rounds, result.stats.broadcasts);
    const auto* latency = snapshot.histogram(
        obs::labeled("dsud_query_latency_seconds", {{"algo", algo}}));
    ASSERT_NE(latency, nullptr);
    EXPECT_EQ(latency->count, 1u);
  }
}

// A run that never reaches finalize() still counts the rounds and pulls it
// made, but not as a query.
TEST(ObsIntegrationTest, CancelledRunCountsRoundsButNotQueries) {
  const Dataset global = generateSynthetic(
      SyntheticSpec{600, 3, ValueDistribution::kAnticorrelated, 91});
  InProcCluster cluster(Topology::uniform(global, 4, 92));
  QueryOptions options;
  options.cancel = std::make_shared<std::atomic<bool>>(false);
  options.progress = [&](const GlobalSkylineEntry&, const ProgressPoint&) {
    options.cancel->store(true);
  };
  QueryConfig config;
  config.q = 0.3;
  EXPECT_THROW(cluster.engine().run(Algo::kEdsud, config, options),
               QueryCancelled);

  const obs::MetricsSnapshot snapshot = cluster.metricsRegistry().snapshot();
  EXPECT_GT(algoCounter(snapshot, "dsud_rounds_total", "edsud"), 0u);
  EXPECT_GT(algoCounter(snapshot, "dsud_candidates_pulled_total", "edsud"),
            0u);
  EXPECT_EQ(algoCounter(snapshot, "dsud_answers_total", "edsud"), 1u);
  EXPECT_EQ(algoCounter(snapshot, "dsud_queries_total", "edsud"), 0u);
  const auto* latency = snapshot.histogram(
      obs::labeled("dsud_query_latency_seconds", {{"algo", "edsud"}}));
  EXPECT_TRUE(latency == nullptr || latency->count == 0u);
}

TEST(ObsIntegrationTest, TraceCapacityZeroDisablesTracing) {
  const Dataset global = generateSynthetic(
      SyntheticSpec{200, 2, ValueDistribution::kIndependent, 7});
  InProcCluster cluster(Topology::uniform(global, 3, 8));
  QueryOptions options;
  options.traceCapacity = 0;
  const QueryResult result =
      cluster.engine().run(Algo::kEdsud, QueryConfig{}, options);
  EXPECT_TRUE(result.trace.empty());
  EXPECT_EQ(result.trace.droppedEvents, 0u);
}

}  // namespace
}  // namespace dsud
