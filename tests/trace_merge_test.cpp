// Cross-site distributed tracing: the NTP-style clock alignment and span
// merge (obs/merge.hpp), the explicit-parent tracer API it builds on, and
// the end-to-end pipeline — site-side spans pulled with kFetchTrace over
// in-process and TCP transports, merged into the coordinator's timeline so
// every site span lands INSIDE its parent RPC span, exported as
// Perfetto-loadable JSON, and the slow-query log's `query.slow` event.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/cluster.hpp"
#include "core/query_engine.hpp"
#include "gen/partition.hpp"
#include "gen/synthetic.hpp"
#include "obs/export.hpp"
#include "obs/log.hpp"
#include "obs/merge.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "server/json.hpp"
#include "test_util.hpp"

namespace dsud {
namespace {

std::optional<double> attrOf(const obs::TraceEvent& e, std::string_view key) {
  for (const auto& [k, v] : e.attrs) {
    if (k == key) return v;
  }
  return std::nullopt;
}

bool isSiteSpan(const obs::TraceEvent& e) {
  return e.name.rfind("site.", 0) == 0 && e.name != "site.dead";
}

/// The acceptance criterion: every merged site span sits strictly inside
/// its parent span's [start, end] window, and carries its origin site.
void expectSiteSpansContained(const obs::QueryTrace& trace) {
  std::size_t siteSpans = 0;
  for (const obs::TraceEvent& e : trace.events) {
    if (!isSiteSpan(e)) continue;
    ++siteSpans;
    ASSERT_NE(e.parent, obs::kNoSpan) << e.name;
    ASSERT_LT(e.parent, trace.events.size()) << e.name;
    const obs::TraceEvent& parent = trace.events[e.parent];
    EXPECT_GE(e.startNs, parent.startNs)
        << e.name << " starts before its parent " << parent.name;
    EXPECT_LE(e.endNs, parent.endNs)
        << e.name << " ends after its parent " << parent.name;
    EXPECT_GE(e.endNs, e.startNs) << e.name;
    EXPECT_TRUE(attrOf(e, "site").has_value()) << e.name;
  }
  EXPECT_GT(siteSpans, 0u) << "no site spans reached the coordinator";
}

/// Per-site merge summaries, keyed by site id.
std::vector<const obs::TraceEvent*> mergeSummaries(
    const obs::QueryTrace& trace) {
  std::vector<const obs::TraceEvent*> out;
  for (const obs::TraceEvent& e : trace.events) {
    if (e.name == "merge.site") out.push_back(&e);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Tracer: explicit-parent spans and idempotent snapshots

TEST(TracerExplicitParentTest, DoesNotBecomeImplicitParent) {
  obs::Tracer tracer(8);
  const obs::SpanId a = tracer.begin("a");
  const obs::SpanId b = tracer.begin("b", a);  // explicit parent
  const obs::SpanId c = tracer.begin("c");     // implicit parent: still a
  tracer.end(c);
  tracer.end(b);
  tracer.end(a);
  const obs::QueryTrace trace = tracer.take();
  ASSERT_EQ(trace.events.size(), 3u);
  EXPECT_EQ(trace.events[b].parent, a);
  EXPECT_EQ(trace.events[c].parent, a)
      << "an explicit-parent span must not join the open-span stack";
}

TEST(TracerExplicitParentTest, RespectsCapAndNoSpanParent) {
  obs::Tracer tracer(1);
  const obs::SpanId a = tracer.begin("a");
  EXPECT_EQ(tracer.begin("over", a), obs::kNoSpan);  // past the cap
  tracer.end(a);
  obs::Tracer unrooted(4);
  const obs::SpanId flat = unrooted.begin("flat", obs::kNoSpan);
  unrooted.end(flat);
  const obs::QueryTrace trace = unrooted.take();
  ASSERT_EQ(trace.events.size(), 1u);
  EXPECT_EQ(trace.events[0].parent, obs::kNoSpan);
}

TEST(TracerSnapshotTest, CopiesWithoutClearingAndKeepsOpenSpans) {
  obs::Tracer tracer(8);
  const obs::SpanId a = tracer.begin("a");
  tracer.end(a);
  const obs::SpanId open = tracer.begin("open");
  const obs::QueryTrace first = tracer.snapshot();
  const obs::QueryTrace second = tracer.snapshot();  // idempotent read
  ASSERT_EQ(first.events.size(), 2u);
  EXPECT_EQ(first.events[open].endNs, 0u) << "snapshot must not close spans";
  ASSERT_EQ(second.events.size(), 2u);
  EXPECT_EQ(second.events[a].endNs, first.events[a].endNs);
  tracer.end(open);
  EXPECT_EQ(tracer.take().events.size(), 2u)
      << "snapshot must leave the trace in place";
}

// ---------------------------------------------------------------------------
// mergeSiteTraces: offset estimation, clamping, matching

/// Hand-built coordinator trace: root [0, 10ms] with one prepare, one pull
/// and one evaluate RPC addressed to site 0.
obs::QueryTrace coordinatorFixture() {
  obs::QueryTrace trace;
  auto add = [&trace](std::string name, obs::SpanId parent, std::uint64_t s,
                      std::uint64_t e,
                      std::vector<std::pair<std::string, double>> attrs) {
    obs::TraceEvent event;
    event.name = std::move(name);
    event.parent = parent;
    event.startNs = s;
    event.endNs = e;
    event.attrs = std::move(attrs);
    trace.events.push_back(std::move(event));
    return static_cast<obs::SpanId>(trace.events.size() - 1);
  };
  add("query.test", obs::kNoSpan, 0, 10'000'000, {});
  add("rpc.prepare", 0, 1'000'000, 2'000'000, {{"site", 0.0}});
  add("pull", 0, 3'000'000, 4'000'000, {{"site", 0.0}, {"seq", 1.0}});
  add("rpc.evaluate", 0, 5'000'000, 6'000'000, {{"site", 0.0}, {"seq", 1.0}});
  return trace;
}

obs::TraceEvent siteEvent(std::string name, std::uint64_t s, std::uint64_t e,
                          std::vector<std::pair<std::string, double>> attrs) {
  obs::TraceEvent event;
  event.name = std::move(name);
  event.parent = obs::kNoSpan;  // site traces ship flat
  event.startNs = s;
  event.endNs = e;
  event.attrs = std::move(attrs);
  return event;
}

TEST(MergeSiteTracesTest, MinDelaySampleAlignsAllSpansIntoTheirParents) {
  obs::QueryTrace trace = coordinatorFixture();

  // Site clock runs 1ms behind the coordinator's.  The pull pair has the
  // smallest delay (RPC 1ms, site work 0.8ms), so its midpoint difference —
  // exactly +1ms — is the offset applied to every span.
  obs::QueryTrace site;
  site.events.push_back(
      siteEvent("site.prepare", 450'000, 550'000, {{"nodes", 4.0}}));
  site.events.push_back(
      siteEvent("site.next", 2'100'000, 2'900'000, {{"seq", 1.0}}));
  site.events.push_back(
      siteEvent("site.evaluate", 4'450'000, 4'560'000, {{"seq", 1.0}}));

  const std::vector<obs::SiteTraceInput> inputs = {{0, &site}};
  obs::mergeSiteTraces(trace, inputs);

  ASSERT_EQ(trace.events.size(), 4u + 3u + 1u);  // + merged spans + summary
  const auto summaries = mergeSummaries(trace);
  ASSERT_EQ(summaries.size(), 1u);
  EXPECT_EQ(attrOf(*summaries[0], "offset_ns"), 1'000'000.0);
  EXPECT_EQ(attrOf(*summaries[0], "delay_ns"), 200'000.0);
  EXPECT_EQ(attrOf(*summaries[0], "samples"), 3.0);
  EXPECT_EQ(attrOf(*summaries[0], "matched"), 3.0);
  EXPECT_EQ(attrOf(*summaries[0], "unmatched"), 0.0);
  EXPECT_EQ(attrOf(*summaries[0], "clamped"), 0.0);

  // Every span mapped by exactly +1ms, parented under its RPC.
  const obs::TraceEvent& prepare = trace.events[4];
  EXPECT_EQ(prepare.name, "site.prepare");
  EXPECT_EQ(prepare.parent, obs::SpanId{1});
  EXPECT_EQ(prepare.startNs, 1'450'000u);
  EXPECT_EQ(prepare.endNs, 1'550'000u);
  EXPECT_EQ(attrOf(prepare, "nodes"), 4.0) << "site attrs must survive";
  const obs::TraceEvent& next = trace.events[5];
  EXPECT_EQ(next.parent, obs::SpanId{2});
  EXPECT_EQ(next.startNs, 3'100'000u);
  const obs::TraceEvent& eval = trace.events[6];
  EXPECT_EQ(eval.parent, obs::SpanId{3});
  EXPECT_EQ(eval.startNs, 5'450'000u);
  EXPECT_EQ(eval.endNs, 5'560'000u);

  expectSiteSpansContained(trace);
}

TEST(MergeSiteTracesTest, RetriedAndReplaySamplesAreExcludedFromTheOffset) {
  obs::QueryTrace trace = coordinatorFixture();
  // A retried evaluate whose midpoint would yield a wildly different (and
  // tempting: lowest-delay) offset sample.
  trace.events.push_back(siteEvent("rpc.evaluate", 8'000'000, 9'000'000,
                                   {{"site", 0.0},
                                    {"seq", 2.0},
                                    {"attempts", 2.0},
                                    {"breaker_state", 0.0}}));
  trace.events.back().parent = 0;

  obs::QueryTrace site;
  site.events.push_back(siteEvent("site.prepare", 450'000, 550'000, {}));
  // Clean sample: offset +1ms, delay 0.9ms.
  site.events.push_back(
      siteEvent("site.next", 2'450'000, 2'550'000, {{"seq", 1.0}}));
  // Replayed op: would be delay 0.8ms — must not be sampled.
  site.events.push_back(siteEvent("site.evaluate", 4'400'000, 4'600'000,
                                  {{"seq", 1.0}, {"replay", 1.0}}));
  // Matched to the retried RPC: delay 0.1ms — must not be sampled either.
  site.events.push_back(
      siteEvent("site.evaluate", 2'000'000, 2'900'000, {{"seq", 2.0}}));

  const std::vector<obs::SiteTraceInput> inputs = {{0, &site}};
  obs::mergeSiteTraces(trace, inputs);

  const auto summaries = mergeSummaries(trace);
  ASSERT_EQ(summaries.size(), 1u);
  // Only the prepare and next pairs were sampled; next (delay 0.9ms) beats
  // prepare (delay 0.9ms... prepare is also 0.9ms but next was taken last on
  // a strict '<', so prepare's +1ms offset stands either way).
  EXPECT_EQ(attrOf(*summaries[0], "samples"), 2.0);
  EXPECT_EQ(attrOf(*summaries[0], "offset_ns"), 1'000'000.0);

  // The replayed and retried spans still merged — attached and clamped.
  EXPECT_EQ(attrOf(*summaries[0], "matched"), 4.0);
  EXPECT_GE(attrOf(*summaries[0], "clamped").value(), 1.0)
      << "the seq-2 span maps outside its retried RPC and must clamp";
  expectSiteSpansContained(trace);
}

TEST(MergeSiteTracesTest, UnmatchedSpansAttachUnderRootAndClampToIt) {
  obs::QueryTrace trace = coordinatorFixture();
  obs::QueryTrace site;
  // No rpc counterpart (maintenance span), and timestamps past the root end.
  site.events.push_back(
      siteEvent("site.insert", 11'000'000, 12'000'000, {{"replica", 1.0}}));

  const std::vector<obs::SiteTraceInput> inputs = {{0, &site}};
  obs::mergeSiteTraces(trace, inputs);

  const auto summaries = mergeSummaries(trace);
  ASSERT_EQ(summaries.size(), 1u);
  EXPECT_EQ(attrOf(*summaries[0], "matched"), 0.0);
  EXPECT_EQ(attrOf(*summaries[0], "unmatched"), 1.0);
  EXPECT_EQ(attrOf(*summaries[0], "samples"), 0.0);
  EXPECT_EQ(attrOf(*summaries[0], "offset_ns"), 0.0)
      << "no clean sample leaves the offset at zero";

  const obs::TraceEvent& merged = trace.events[4];
  EXPECT_EQ(merged.name, "site.insert");
  EXPECT_EQ(merged.parent, obs::SpanId{0});
  EXPECT_LE(merged.endNs, trace.events[0].endNs);
  expectSiteSpansContained(trace);
}

TEST(MergeSiteTracesTest, EmptyInputsAreNoOps) {
  obs::QueryTrace trace = coordinatorFixture();
  const std::size_t before = trace.events.size();
  obs::QueryTrace empty;
  const std::vector<obs::SiteTraceInput> inputs = {{0, &empty}, {1, nullptr}};
  obs::mergeSiteTraces(trace, inputs);
  EXPECT_EQ(trace.events.size(), before);

  obs::QueryTrace none;  // merging into an empty trace is a no-op too
  obs::QueryTrace site;
  site.events.push_back(siteEvent("site.prepare", 0, 1, {}));
  const std::vector<obs::SiteTraceInput> one = {{0, &site}};
  obs::mergeSiteTraces(none, one);
  EXPECT_TRUE(none.events.empty());
}

// ---------------------------------------------------------------------------
// End-to-end: kFetchTrace over the in-process transport

/// Site tracing on: each site session records up to this many spans.
QueryOptions siteTraced() {
  QueryOptions options;
  options.siteTraceCapacity = 65536;
  return options;
}

TEST(SiteTraceE2ETest, FetchModeReadsSpansAtFinishTime) {
  const Dataset global = generateSynthetic(
      SyntheticSpec{900, 3, ValueDistribution::kAnticorrelated, 501});
  InProcCluster cluster(Topology::uniform(global, 5, 502));

  for (const Algo algo : {Algo::kEdsud, Algo::kDsud}) {
    const QueryResult result =
        cluster.engine().run(algo, QueryConfig{}, siteTraced());
    ASSERT_FALSE(result.trace.empty());
    expectSiteSpansContained(result.trace);
    std::size_t fetches = 0;
    for (const obs::TraceEvent& e : result.trace.events) {
      if (e.name == "rpc.fetch_trace") ++fetches;
      // The replay caches never fired on a clean transport.
      EXPECT_FALSE(attrOf(e, "replay").has_value()) << e.name;
    }
    EXPECT_EQ(fetches, 5u) << "one kFetchTrace per site at finish time";
    const auto summaries = mergeSummaries(result.trace);
    ASSERT_EQ(summaries.size(), 5u) << "one merge summary per site";
    for (const obs::TraceEvent* s : summaries) {
      EXPECT_GT(attrOf(*s, "matched").value_or(0.0), 0.0)
          << "site " << attrOf(*s, "site").value_or(-1.0);
      EXPECT_GT(attrOf(*s, "samples").value_or(0.0), 0.0);
    }
  }
}

TEST(SiteTraceE2ETest, SiteTraceOffKeepsTheWirePayloadIdentical) {
  const Dataset global = generateSynthetic(
      SyntheticSpec{600, 2, ValueDistribution::kAnticorrelated, 503});
  InProcCluster plain(Topology::uniform(global, 4, 504));
  InProcCluster traced(Topology::uniform(global, 4, 504));

  QueryOptions off;  // tracing on, site tracing off (the default)
  const QueryResult a = plain.engine().run(Algo::kEdsud, QueryConfig{});
  const QueryResult b = traced.engine().run(Algo::kEdsud, QueryConfig{}, off);
  EXPECT_EQ(a.stats.bytesShipped, b.stats.bytesShipped)
      << "site tracing off must keep responses byte-identical";

  // Site tracing leaves every query response untouched and costs exactly
  // one kFetchTrace round trip per site.
  const QueryResult c =
      traced.engine().run(Algo::kEdsud, QueryConfig{}, siteTraced());
  EXPECT_EQ(testutil::idsOf(c.skyline), testutil::idsOf(a.skyline))
      << "tracing must not change the answer";
  EXPECT_EQ(c.stats.tuplesShipped, a.stats.tuplesShipped);
  EXPECT_EQ(c.stats.roundTrips, a.stats.roundTrips + 4);
}

// ---------------------------------------------------------------------------
// End-to-end: kFetchTrace over real TCP sockets

TEST(SiteTraceE2ETest, TcpClusterAlignsSiteClocksIntoRpcSpans) {
  const Dataset global = generateSynthetic(
      SyntheticSpec{700, 2, ValueDistribution::kAnticorrelated, 507});
  Rng rng(508);
  const auto siteData = partitionUniform(global, 4, rng);
  TcpCluster cluster(Topology::fromPartitions(siteData));

  const QueryResult result =
      cluster.engine().run(Algo::kEdsud, QueryConfig{}, siteTraced());
  ASSERT_FALSE(result.trace.empty());
  expectSiteSpansContained(result.trace);
  const auto summaries = mergeSummaries(result.trace);
  ASSERT_EQ(summaries.size(), 4u);
  for (const obs::TraceEvent* s : summaries) {
    EXPECT_GT(attrOf(*s, "samples").value_or(0.0), 0.0)
        << "every site needs at least one clean offset sample";
  }
}

// ---------------------------------------------------------------------------
// Perfetto export and the slow-query log

TEST(SiteTraceE2ETest, PerfettoExportPutsSiteSpansOnSiteTracks) {
  const Dataset global = generateSynthetic(
      SyntheticSpec{500, 2, ValueDistribution::kAnticorrelated, 509});
  InProcCluster cluster(Topology::uniform(global, 3, 510));
  const QueryResult result =
      cluster.engine().run(Algo::kEdsud, QueryConfig{}, siteTraced());

  const std::string json = obs::traceToPerfetto(result.trace);
  EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"droppedEvents\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"coordinator\""), std::string::npos);
  for (int site = 0; site < 3; ++site) {
    EXPECT_NE(json.find("\"name\": \"site " + std::to_string(site) + "\""),
              std::string::npos)
        << "every site needs a named track";
  }
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_EQ(json.find("\"ph\": \"B\""), std::string::npos)
      << "complete events only";

  // Balanced braces/brackets outside strings; no trailing garbage.
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
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0) << "unbalanced at offset " << i;
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(inString);
}

/// The `query.slow` events the flight recorder retained since `sinceNs`.
std::vector<server::Json> slowQueryEvents(std::uint64_t sinceNs) {
  std::vector<server::Json> slow;
  for (const std::string& line : obs::flightRecorder().snapshot(sinceNs)) {
    server::Json event = server::Json::parse(line);
    if (event.find("event")->asString() == "query.slow") {
      slow.push_back(std::move(event));
    }
  }
  return slow;
}

TEST(SiteTraceE2ETest, SlowQueryLogEmitsEventAndCounts) {
  const Dataset global = generateSynthetic(
      SyntheticSpec{500, 2, ValueDistribution::kAnticorrelated, 511});
  InProcCluster cluster(Topology::uniform(global, 3, 512));
  const std::uint64_t startNs = obs::wallClockNs();

  QueryOptions options = siteTraced();
  options.slowQueryThreshold = 1e-9;  // every real query exceeds this
  const QueryResult result =
      cluster.engine().run(Algo::kEdsud, QueryConfig{}, options);

  const std::vector<server::Json> slow = slowQueryEvents(startNs);
  ASSERT_EQ(slow.size(), 1u);
  const server::Json& event = slow[0];
  EXPECT_EQ(event.find("level")->asString(), "warn");
  EXPECT_EQ(event.find("component")->asString(), "engine");
  ASSERT_NE(event.find("query"), nullptr);
  EXPECT_EQ(event.find("query")->asNumber(),
            static_cast<double>(result.id));
  ASSERT_NE(event.find("algo"), nullptr);
  EXPECT_EQ(event.find("algo")->asString(), "edsud");
  ASSERT_NE(event.find("seconds"), nullptr);
  EXPECT_EQ(event.find("seconds")->asNumber(), result.stats.seconds);
  ASSERT_NE(event.find("tuples"), nullptr);
  EXPECT_EQ(event.find("tuples")->asNumber(),
            static_cast<double>(result.stats.tuplesShipped));

  const char* const counter = "dsud_slow_queries_total{algo=\"edsud\"}";
  const obs::MetricsSnapshot slowSnapshot =
      cluster.metricsRegistry().snapshot();
  ASSERT_NE(slowSnapshot.counter(counter), nullptr);
  EXPECT_EQ(*slowSnapshot.counter(counter), 1u);

  // Fast queries (threshold sky-high) neither log nor count.
  QueryOptions fast;
  fast.slowQueryThreshold = 1e9;
  (void)cluster.engine().run(Algo::kEdsud, QueryConfig{}, fast);
  EXPECT_EQ(slowQueryEvents(startNs).size(), 1u);
  const obs::MetricsSnapshot fastSnapshot =
      cluster.metricsRegistry().snapshot();
  EXPECT_EQ(*fastSnapshot.counter(counter), 1u);
}

}  // namespace
}  // namespace dsud
