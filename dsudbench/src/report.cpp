#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <unordered_map>

#include "core/protocol.hpp"

namespace dsudbench {

void Report::add(std::string name, double value, std::string unit,
                 std::size_t samples, std::string note) {
  metrics_.push_back({std::move(name), value, std::move(unit), samples,
                      std::move(note)});
}

void Report::ensure(const std::string& name, const std::string& unit) {
  for (const Metric& m : metrics_) {
    if (m.name == name) return;
  }
  add(name, 0.0, unit);
}

void Report::printTable() const {
  for (const Metric& m : metrics_) {
    std::printf("  %-26s %14.6g %-7s", m.name.c_str(), m.value, m.unit.c_str());
    if (m.samples > 0) std::printf("  n=%zu", m.samples);
    if (!m.note.empty()) std::printf("  %s", m.note.c_str());
    std::printf("\n");
  }
}

void Report::printResult(bool correct, std::uint64_t attempted,
                         std::uint64_t failed) const {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

namespace {

constexpr double kMs = 1e-6;  // ns -> ms
constexpr double kUs = 1e-3;  // ns -> us

bool isOp(const Span& s, dsud::MsgType type) {
  return s.op == static_cast<Op>(type);
}

Interval interval(const Span& s) { return {s.start, s.end}; }

std::vector<Interval> intervals(const std::vector<const Span*>& spans) {
  std::vector<Interval> out;
  out.reserve(spans.size());
  for (const Span* s : spans) out.push_back(interval(*s));
  return out;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Running sum and count of one per-call quantity.
struct Acc {
  double sum = 0.0;
  std::size_t n = 0;
  void add(double v) {
    sum += v;
    ++n;
  }
  double mean() const { return ratio(sum, static_cast<double>(n)); }
};

}  // namespace

void addLayerMetrics(Report& report, const LayerInputs& in) {
  struct QuerySpans {
    std::vector<const Span*> handle, channel, site, update;
  };
  std::unordered_map<std::uint64_t, QuerySpans> byQuery;
  for (const Span& s : in.spans) {
    QuerySpans& q = byQuery[s.query];
    switch (s.layer) {
      case Layer::kHandle: q.handle.push_back(&s); break;
      case Layer::kChannel: q.channel.push_back(&s); break;
      case Layer::kSite: q.site.push_back(&s); break;
      case Layer::kUpdate: q.update.push_back(&s); break;
    }
  }

  // --- Queries: client latency partitioned into server / core / net / site.
  Acc pre, post, ack, coreSelf, stubQ, netQ, siteQ, latency, bytes;
  Acc prepareSum, prepareMax, prepareCalls, nextCalls, evalCalls;
  Acc stubPerCall, rttPerCall, siteNext, siteEval;
  std::vector<double> hitMs;
  double answers = 0.0;
  double candidates = 0.0;
  std::size_t cacheHits = 0;
  std::size_t nonHits = 0;
  std::set<std::uint64_t> sessions;
  for (const QueryRecord* r : in.queries) {
    const double lat = static_cast<double>(r->done - r->origin) * kMs;
    if (r->cache == "hit") {
      ++cacheHits;
    } else {
      ++nonHits;
    }
    if (in.hasServer && r->ack != 0) ack.add(static_cast<double>(r->ack - r->origin) * kMs);
    const auto it = byQuery.find(r->query);
    if (r->query == dsud::kNoQuery || it == byQuery.end() || it->second.handle.empty()) {
      hitMs.push_back(lat);
      continue;
    }
    const QuerySpans& q = it->second;
    std::int64_t first = q.handle.front()->start;
    std::int64_t last = q.handle.front()->end;
    double handleSum = 0.0;
    double channelSum = 0.0;
    double siteSum = 0.0;
    double prep = 0.0;
    double prepMax = 0.0;
    std::size_t nPrep = 0, nNext = 0, nEval = 0;
    for (const Span* s : q.handle) {
      first = std::min(first, s->start);
      last = std::max(last, s->end);
      handleSum += static_cast<double>(s->end - s->start);
      nPrep += isOp(*s, dsud::MsgType::kPrepare);
      nNext += isOp(*s, dsud::MsgType::kNextCandidate);
      nEval += isOp(*s, dsud::MsgType::kEvaluate);
    }
    double queryBytes = 0.0;
    for (const Span* s : q.channel) {
      channelSum += static_cast<double>(s->end - s->start);
      queryBytes += s->bytes;
    }
    for (const Span* s : q.site) {
      const double d = static_cast<double>(s->end - s->start);
      siteSum += d;
      if (isOp(*s, dsud::MsgType::kPrepare)) {
        prep += d;
        prepMax = std::max(prepMax, d);
      } else if (isOp(*s, dsud::MsgType::kNextCandidate)) {
        siteNext.add(d * kUs);
      } else if (isOp(*s, dsud::MsgType::kEvaluate)) {
        siteEval.add(d * kUs);
      }
    }
    sessions.insert(r->query);
    // Yield over queries that ran a descent: replayed answers pull nothing.
    answers += static_cast<double>(r->answers.size());
    candidates += static_cast<double>(r->stats.candidatesPulled);
    const double uH = static_cast<double>(unionLength(intervals(q.handle)));
    const double uC = static_cast<double>(unionLength(intervals(q.channel)));
    const double uS = static_cast<double>(unionLength(intervals(q.site)));
    double preNs = static_cast<double>(first - r->origin);
    double postNs = static_cast<double>(r->done - last);
    double selfNs = static_cast<double>(last - first) - uH;
    if (!in.hasServer) {
      // Library path: no server layer, the whole run is the coordinator's.
      selfNs += preNs + postNs;
      preNs = postNs = 0.0;
    }
    latency.add(lat);
    pre.add(preNs * kMs);
    post.add(postNs * kMs);
    coreSelf.add(selfNs * kMs);
    stubQ.add((uH - uC) * kMs);
    netQ.add((uC - uS) * kMs);
    siteQ.add(uS * kMs);
    bytes.add(queryBytes);
    prepareSum.add(prep * kMs);
    prepareMax.add(prepMax * kMs);
    prepareCalls.add(static_cast<double>(nPrep));
    nextCalls.add(static_cast<double>(nNext));
    evalCalls.add(static_cast<double>(nEval));
    if (!q.handle.empty()) {
      stubPerCall.sum += (handleSum - channelSum) * kUs;
      stubPerCall.n += q.handle.size();
    }
    if (!q.channel.empty()) {
      rttPerCall.sum += (channelSum - siteSum) * kUs;
      rttPerCall.n += q.channel.size();
    }
  }

  const std::size_t n = latency.n;
  if (n > 0) {
    std::printf("  partition over %zu session queries: latency %.4f ms = server %.4f"
                " + core %.4f + stub %.4f + net %.4f + site %.4f\n",
                n, latency.mean(), pre.mean() + post.mean(), coreSelf.mean(),
                stubQ.mean(), netQ.mean(), siteQ.mean());
  }
  report.add("server.pre_ms", pre.mean(), "ms", n);
  report.add("server.post_ms", post.mean(), "ms", n);
  report.add("server.ack_ms", ack.mean(), "ms", ack.n);
  report.add("server.hit_ms", median(hitMs), "ms", hitMs.size());
  report.add("cache.hit_ratio",
             ratio(static_cast<double>(cacheHits), static_cast<double>(in.queries.size())),
             "ratio", in.queries.size());
  report.add("batch.width",
             ratio(static_cast<double>(nonHits), static_cast<double>(sessions.size())),
             "queries", sessions.size());
  report.add("core.self_ms", coreSelf.mean(), "ms", n);
  report.add("core.stub_us", stubPerCall.mean(), "us", stubPerCall.n);
  report.add("core.prepare_calls", prepareCalls.mean(), "calls", n);
  report.add("core.next_calls", nextCalls.mean(), "calls", n);
  report.add("core.evaluate_calls", evalCalls.mean(), "calls", n);
  report.add("core.yield", ratio(answers, candidates), "ratio", n);
  report.add("net.rtt_us", rttPerCall.mean(), "us", rttPerCall.n);
  report.add("net.busy_ms_per_query", netQ.mean(), "ms", n);
  report.add("net.bytes_per_query", bytes.mean(), "bytes", n);
  report.add("site.prepare_ms", prepareSum.mean(), "ms", n);
  report.add("site.prepare_max_ms", prepareMax.mean(), "ms", n);
  report.add("site.next_us", siteNext.mean(), "us", siteNext.n);
  report.add("site.evaluate_us", siteEval.mean(), "us", siteEval.n);
  report.add("site.busy_ms_per_query", siteQ.mean(), "ms", n);

  // --- Updates: session-less maintenance traffic under its update context.
  Acc apply, repair, rpcs, maintSelf;
  for (const auto& [key, q] : byQuery) {
    if ((key & kUpdateContextBit) == 0 || q.update.empty()) continue;
    const Span& u = *q.update.front();
    rpcs.add(static_cast<double>(q.handle.size()));
    maintSelf.add(static_cast<double>(selfTime(interval(u), intervals(q.handle))) * kMs);
    for (const Span* s : q.site) {
      const double d = static_cast<double>(s->end - s->start) * kUs;
      if (isOp(*s, dsud::MsgType::kApplyInsert) || isOp(*s, dsud::MsgType::kApplyDelete)) {
        apply.add(d);
      } else if (isOp(*s, dsud::MsgType::kRepairDelete)) {
        repair.add(d);
      }
    }
  }
  report.add("site.apply_us", apply.mean(), "us", apply.n);
  report.add("site.repair_us", repair.mean(), "us", repair.n);
  report.add("maint.rpc_per_update", rpcs.mean(), "RPCs", rpcs.n);
  report.add("maint.self_ms", maintSelf.mean(), "ms", maintSelf.n);
}

double peakRssMb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace dsudbench
