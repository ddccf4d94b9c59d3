#include "core/query_run.hpp"

#include <algorithm>
#include <exception>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/bound_queue.hpp"
#include "core/failover.hpp"
#include "obs/log.hpp"
#include "obs/merge.hpp"
#include "obs/recorder.hpp"

namespace dsud::internal {
namespace {

/// Slow-query log: whether the run exceeded QueryOptions::slowQueryThreshold.
bool isSlow(const QueryOptions& options, const QueryStats& stats) {
  return options.slowQueryThreshold > 0.0 &&
         stats.seconds >= options.slowQueryThreshold;
}

}  // namespace

QueryRun::QueryRun(Coordinator& c, const char* algo, const QueryOptions& opts,
                   QueryId qid)
    : coord(c), id(qid), options(opts), tracer(opts.traceCapacity),
      view(c.view()), sites(view->partitions.size()), algo(algo) {
  result.id = id;
  for (std::size_t i = 0; i < sites.size(); ++i) {
    const ReplicaChain& chain = view->partitions[i];
    Site& site = sites[i];
    site.row.site = chain.partition;
    if (chain.replicas.size() == 1) {
      site.session = chain.replicas[0]->openSession(
          &site.usage, options.fault, chain.health[0], c.metrics());
      continue;
    }
    // k >= 2: one session per replica store, stitched into a single
    // failover handle so a dying store is replaced mid-query with zero
    // result loss (core/failover.hpp).
    std::vector<std::unique_ptr<SiteHandle>> replicas;
    replicas.reserve(chain.replicas.size());
    for (std::size_t r = 0; r < chain.replicas.size(); ++r) {
      replicas.push_back(chain.replicas[r]->openSession(
          &site.usage, options.fault, chain.health[r], c.metrics()));
    }
    site.session = std::make_unique<FailoverSiteHandle>(
        chain.partition, std::move(replicas), c.metrics());
  }
  root = tracer.begin(std::string("query.") + algo);
  if (obs::MetricsRegistry* reg = coord.metrics(); reg != nullptr) {
    roundLatency =
        &reg->histogram(obs::labeled("dsud_round_latency_seconds",
                                     {{"algo", algo}}),
                        obs::Histogram::latencyBounds());
    inflight = &reg->gauge(obs::labeled("dsud_queries_inflight",
                                        {{"algo", algo}}));
    inflight->add(1);
  }
  obs::eventLog().emit(LogLevel::kDebug, "engine", "query.start",
                       {obs::field("query", id), obs::field("algo", algo),
                        obs::field("sites", sites.size())});
}

QueryRun::~QueryRun() {
  finish();  // best-effort when unwinding; no-op after finalize()
  if (inflight != nullptr) inflight->sub(1);
  try {
    feedMetrics();
  } catch (const std::exception& e) {
    // A name registered as another kind: log it rather than throw from a
    // destructor; the run's own outcome stands.
    obs::eventLog().emit(LogLevel::kError, "engine", "query.metrics_failed",
                         {obs::field("query", id), obs::field("algo", algo),
                          obs::field("error", e.what())});
  }
}

/// The engine's per-algorithm counters, fed once per run from the tally.
/// Rounds, pulls, expunges, answers and degradation count for every run,
/// failed and cancelled ones included; queries, their latency, site prunes
/// and slow queries count only runs that reached finalize().
void QueryRun::feedMetrics() {
  obs::MetricsRegistry* reg = coord.metrics();
  if (reg == nullptr) return;
  std::uint64_t pulled = 0;
  bool degraded = false;
  for (const Site& site : sites) {
    pulled += site.row.candidates;
    degraded |= site.row.dead;
  }
  const bool finalized = answered.has_value();
  const auto count = [&](const char* base, std::uint64_t n) {
    reg->counter(obs::labeled(base, {{"algo", algo}})).add(n);
  };
  count("dsud_rounds_total", rounds);
  count("dsud_candidates_pulled_total", pulled);
  count("dsud_expunged_total", result.stats.expunged);
  count("dsud_answers_total", answered.value_or(result.skyline.size()));
  count("dsud_degraded_queries_total", degraded ? 1 : 0);
  count("dsud_queries_total", finalized ? 1 : 0);
  count("dsud_pruned_at_sites_total",
        finalized ? result.stats.prunedAtSites : 0);
  count("dsud_slow_queries_total",
        finalized && isSlow(options, result.stats) ? 1 : 0);
  obs::Histogram& latency =
      reg->histogram(obs::labeled("dsud_query_latency_seconds",
                                  {{"algo", algo}}),
                     obs::Histogram::latencyBounds());
  if (finalized) latency.observe(result.stats.seconds);
}

QueryRun::Site& QueryRun::siteById(SiteId site) {
  for (Site& s : sites) {
    if (s.row.site == site) return s;
  }
  throw std::out_of_range("QueryRun: unknown site id " +
                          std::to_string(site));
}

bool QueryRun::isDead(SiteId site) const noexcept {
  const std::vector<SiteId>& dead = result.excludedSites;
  return std::find(dead.begin(), dead.end(), site) != dead.end();
}

void QueryRun::markDead(Site& site) {
  if (site.row.dead) return;
  site.row.dead = true;
  result.degraded = true;
  result.excludedSites.push_back(site.row.site);
  obs::TraceSpan s = span("site.dead");
  s.attr("site", site.row.site);
  obs::eventLog().emit(LogLevel::kWarn, "engine", "site.dead",
                       {obs::field("query", id), obs::field("algo", algo),
                        obs::field("site", site.row.site)});
}

/// Marks an RPC span that needed transport retries: the attempt count and
/// the site breaker's state (0 closed, 1 open, 2 half-open).  Clean RPCs
/// stay unannotated, so a faulty run's trace differs from a clean one only
/// by these attrs.  The breaker comes from the session handle itself (the
/// active replica's, under failover) — positional coordinator lookups are
/// not stable once sites join and leave.  Also folds the extra attempts
/// into the site's row.
void QueryRun::annotateRetries(obs::TraceSpan& rpc, Site& site) {
  const SiteHandle& handle = *site.session;
  if (const std::uint32_t attempts = handle.lastAttempts(); attempts > 1) {
    site.row.retries += attempts - 1;
    rpc.attr("attempts", attempts);
    if (const SiteHealth* health = handle.sessionHealth(); health != nullptr) {
      rpc.attr("breaker_state",
               static_cast<double>(static_cast<int>(health->state())));
    }
  }
}

void QueryRun::send(std::vector<Rpc>& wave, Site& site,
                    SessionRequest request, std::string_view name,
                    obs::SpanId parent) {
  obs::TraceSpan rpc(tracer, name, parent);
  rpc.attr("site", site.row.site);
  site.session->send(std::move(request));
  wave.push_back({&site, std::move(rpc)});
}

template <typename Apply>
void QueryRun::receive(std::vector<Rpc>& wave, Apply&& apply) {
  std::exception_ptr failure;
  for (Rpc& rpc : wave) {
    Site& site = *rpc.site;
    try {
      SessionResponse response = site.session->receive();
      if (!failure) apply(rpc, std::move(response));
      annotateRetries(rpc.span, site);
    } catch (const NetError&) {
      if (degradeOk()) {
        markDead(site);
      } else if (!failure) {
        failure = std::current_exception();
      }
    } catch (...) {
      if (!failure) failure = std::current_exception();
    }
    rpc.span.close();
  }
  if (failure) std::rethrow_exception(failure);
}

std::optional<Candidate> QueryRun::pulled(Site& site, obs::TraceSpan& rpc,
                                          NextCandidateResponse response) {
  ++site.row.rounds;
  if (siteTracing()) {
    // Matches this round trip to the site-side "site.next" span carrying
    // the same sequence number (see obs::mergeSiteTraces).
    rpc.attr("seq", static_cast<double>(site.session->lastNextSeq()));
  }
  if (!response.candidate) return std::nullopt;
  ++site.row.candidates;
  return std::move(response.candidate);
}

void QueryRun::prepare(PrepareRequest request,
                       const std::function<void(Candidate)>& first) {
  obs::TraceSpan prepareSpan = span("prepare");
  if (siteTracing()) {
    request.traceCapacity = static_cast<std::uint32_t>(std::min<std::size_t>(
        options.siteTraceCapacity, std::numeric_limits<std::uint32_t>::max()));
  }
  // Open before sending, so a mid-prepare failure still releases the sites
  // that did prepare.
  sessionsOpen = true;
  std::vector<Rpc> wave;
  wave.reserve(sites.size());
  for (Site& site : sites) {
    send(wave, site, request, "rpc.prepare", prepareSpan.id());
  }
  receive(wave, [](Rpc&, SessionResponse&&) {});
  if (result.excludedSites.size() == sites.size()) {
    throw NetError("prepare: all sites unavailable");
  }
  result.profile.prepareSeconds = watch.elapsedSeconds();
  wave.clear();
  for (Site& site : sites) {
    if (site.row.dead) continue;
    send(wave, site, NextCandidateRequest{id}, "pull", prepareSpan.id());
  }
  receive(wave, [&](Rpc& rpc, SessionResponse&& response) {
    if (auto c = pulled(*rpc.site, rpc.span,
                        std::get<NextCandidateResponse>(std::move(response)))) {
      first(std::move(*c));
    }
  });
}

/// Releases the site-side session state (kFinishQuery, idempotent).
/// Exceptions are swallowed: finish is cleanup, and the sites drop unknown
/// ids anyway.  Dead sites are skipped — their retry budget was already
/// spent detecting the failure.  With site tracing on this is the last
/// chance to read the site-side spans (kFinishQuery destroys the session
/// tracer with the rest of the session), so every live site gets one
/// best-effort kFetchTrace first.  Both go out as waves.
void QueryRun::finish() noexcept {
  if (!sessionsOpen) return;
  sessionsOpen = false;
  // A refill pull still in flight (the run ended between a broadcast and
  // its pull, say by a throwing progress callback) holds its site's
  // channel; receive it before the teardown waves need that channel.
  for (Site& site : sites) {
    if (!site.refill) continue;
    site.refill.reset();
    try {
      site.session->receive();
    } catch (...) {
    }
  }
  if (siteTracing()) {
    std::vector<Rpc> wave;
    for (Site& site : sites) {
      if (site.row.dead) continue;
      try {
        send(wave, site, FetchTraceRequest{id}, "rpc.fetch_trace", root);
      } catch (...) {
      }
    }
    for (Rpc& rpc : wave) {
      try {
        rpc.site->trace =
            std::get<FetchTraceResponse>(rpc.site->session->receive()).trace;
      } catch (...) {
        // A site whose trace cannot be read still answers the query.
      }
      rpc.span.close();
    }
  }
  std::vector<SiteHandle*> live;
  for (Site& site : sites) {
    if (site.row.dead) continue;
    try {
      site.session->send(FinishQueryRequest{id});
      live.push_back(site.session.get());
    } catch (...) {
    }
  }
  for (SiteHandle* session : live) {
    try {
      session->receive();
    } catch (...) {
    }
  }
}

double QueryRun::broadcast(const Candidate& c, DimMask mask,
                           const std::optional<Rect>& window) {
  obs::TraceSpan broadcastSpan = span("broadcast");
  broadcastSpan.attr("site", c.site);
  broadcastSpan.attr("tuple", static_cast<double>(c.tuple.id));
  double globalSkyProb = c.localSkyProb;
  const EvaluateRequest request{id, c.tuple, mask, /*pruneLocal=*/true,
                                window};
  std::vector<Rpc> wave;
  wave.reserve(sites.size());
  for (Site& site : sites) {
    if (site.row.dead) continue;
    if (site.row.site != c.site) {
      send(wave, site, request, "rpc.evaluate", broadcastSpan.id());
      continue;
    }
    // Evaluates skip the origin, so its next candidate cannot depend on
    // them: its refill pull rides this wave, at its place in view order.
    site.refill.emplace(tracer, "pull", broadcastSpan.id());
    site.refill->attr("site", site.row.site);
    site.session->send(NextCandidateRequest{id});
  }
  receive(wave, [&](Rpc& rpc, SessionResponse&& response) {
    const auto& r = std::get<EvaluateResponse>(response);
    if (siteTracing()) {
      rpc.span.attr("seq",
                    static_cast<double>(rpc.site->session->lastEvalSeq()));
    }
    globalSkyProb *= r.survival;
    rpc.site->row.pruned += r.prunedCount;
  });
  ++result.stats.broadcasts;
  return globalSkyProb;
}

std::optional<Candidate> QueryRun::pull(SiteId siteId) {
  Site& site = siteById(siteId);
  if (site.row.dead) return std::nullopt;
  std::optional<obs::TraceSpan> refill = std::exchange(site.refill, {});
  obs::TraceSpan pullSpan = refill ? std::move(*refill) : span("pull");
  try {
    if (!refill) {
      pullSpan.attr("site", siteId);
      site.session->send(NextCandidateRequest{id});
    }
    auto c = pulled(site, pullSpan,
                    std::get<NextCandidateResponse>(site.session->receive()));
    annotateRetries(pullSpan, site);
    return c;
  } catch (const NetError&) {
    if (!degradeOk()) throw;
    markDead(site);
    return std::nullopt;
  }
}

void QueryRun::throwIfCancelled() const {
  if (options.cancel != nullptr &&
      options.cancel->load(std::memory_order_relaxed)) {
    throw QueryCancelled(id);
  }
}

void QueryRun::emit(const Candidate& c, double globalSkyProb) {
  GlobalSkylineEntry entry;
  entry.site = c.site;
  entry.tuple = c.tuple;
  entry.localSkyProb = c.localSkyProb;
  entry.globalSkyProb = globalSkyProb;

  ProgressPoint point;
  point.reported = result.skyline.size() + 1;
  for (const Site& site : sites) {
    point.tuplesShipped += site.usage.totals().tuples;
  }
  point.seconds = watch.elapsedSeconds();

  {
    obs::TraceSpan s = span("emit");
    s.attr("site", entry.site);
    s.attr("tuple", static_cast<double>(entry.tuple.id));
    s.attr("p_gsky", globalSkyProb);
  }

  if (options.progress) options.progress(entry, point);
  result.skyline.push_back(std::move(entry));
  result.progress.push_back(point);
}

void QueryRun::boundQueueLoop(
    const PrepareRequest& request, FeedbackBound bound, bool sweep,
    const std::function<double()>& threshold,
    const std::function<void(const Candidate&, double)>& confirmed) {
  BoundQueue queue(request.mask, bound);
  const auto pullFrom = [&](SiteId site) {
    if (auto next = pull(site)) queue.add(std::move(*next));
  };
  const auto expunge = [&](std::size_t index) {
    const Candidate victim = queue.take(index);
    {
      obs::TraceSpan s = span("expunge");
      s.attr("site", victim.site);
      s.attr("tuple", static_cast<double>(victim.tuple.id));
    }
    ++result.stats.expunged;
    pullFrom(victim.site);
  };

  prepare(request, [&](Candidate c) { queue.add(std::move(c)); });
  while (!queue.empty()) {
    const auto round = roundScope();

    // Purge candidates whose site died mid-query: they can no longer be
    // broadcast or replaced.  Removing an entry only loses a *witness*,
    // which can only raise the surviving bounds — every expunge after the
    // purge stays provably safe.
    if (!result.excludedSites.empty()) {
      for (std::size_t i = 0; i < queue.size();) {
        if (isDead(queue.candidate(i).site)) {
          queue.take(i);
        } else {
          ++i;
        }
      }
      if (queue.empty()) break;
    }

    if (sweep) {
      // Expunge sweep to a fixpoint: replacements pulled for an expunged
      // candidate see all retained witnesses and may be expunged in turn.
      for (std::size_t i = queue.findExpungeable(threshold());
           i != BoundQueue::npos; i = queue.findExpungeable(threshold())) {
        expunge(i);
      }
      if (queue.empty()) break;
    }

    const std::size_t best = queue.selectQualified(threshold());
    if (best == BoundQueue::npos) {
      // Every entry is provably unqualified; release one stream.
      expunge(queue.size() - 1);
      continue;
    }

    const Candidate c = queue.take(best);
    const double globalSkyProb = broadcast(c, request.mask, request.window);
    queue.confirm(c.tuple, globalSkyProb);
    confirmed(c, globalSkyProb);
    pullFrom(c.site);
  }
}

QueryResult QueryRun::finalize() {
  const double executeDone = watch.elapsedSeconds();
  // Release the site sessions before reading the totals so the finish
  // round trips land in this query's stats deterministically.
  finish();
  QueryStats& stats = result.stats;
  stats.seconds = watch.elapsedSeconds();

  // The profile (EXPLAIN/ANALYZE) and QueryStats, derived from the slots in
  // one pass.  Cheap and unconditional — whether the client *sees* the
  // profile is the protocol's choice, so answers are bit-identical with
  // profiling on or off.
  QueryProfile& profile = result.profile;
  profile.algo = algo;
  profile.executeSeconds =
      std::max(0.0, executeDone - profile.prepareSeconds);
  profile.finalizeSeconds = std::max(0.0, stats.seconds - executeDone);
  profile.sites.reserve(sites.size());
  for (Site& site : sites) {
    const UsageTotals t = site.usage.totals();
    site.row.tuples = t.tuples;
    site.row.bytes = t.bytes;
    site.row.failovers = site.session->failovers();
    stats.tuplesShipped += t.tuples;
    stats.bytesShipped += t.bytes;
    stats.roundTrips += t.calls;
    stats.candidatesPulled += site.row.candidates;
    stats.prunedAtSites += site.row.pruned;
    profile.failovers += site.row.failovers;
    profile.sites.push_back(site.row);
  }

  tracer.end(root);
  result.trace = tracer.take();
  if (siteTracing()) {
    std::vector<obs::SiteTraceInput> inputs;
    inputs.reserve(sites.size());
    for (const Site& site : sites) {
      inputs.push_back({site.row.site, &site.trace});
    }
    obs::mergeSiteTraces(result.trace, inputs);
  }

  // query.done (info) for every run; query.degraded (warn) plus a flight-
  // recorder anomaly dump when sites were lost — the dump is the always-on
  // record of *why* (retries → breaker trips → site.dead precede it in the
  // ring); query.slow (warn) past QueryOptions::slowQueryThreshold.
  obs::EventLog& log = obs::eventLog();
  log.emit(LogLevel::kInfo, "engine", "query.done",
           {obs::field("query", id), obs::field("algo", algo),
            obs::field("answers", result.skyline.size()),
            obs::field("tuples", stats.tuplesShipped),
            obs::field("bytes", stats.bytesShipped),
            obs::field("round_trips", stats.roundTrips),
            obs::field("seconds", stats.seconds),
            obs::field("degraded", result.degraded),
            obs::field("failovers", profile.failovers)});
  if (result.degraded) {
    log.emit(LogLevel::kWarn, "engine", "query.degraded",
             {obs::field("query", id), obs::field("algo", algo),
              obs::field("excluded", result.excludedSites.size())});
    obs::flightRecorder().anomaly("degraded_query");
  }
  if (isSlow(options, stats)) {
    log.emit(LogLevel::kWarn, "engine", "query.slow",
             {obs::field("query", id), obs::field("algo", algo),
              obs::field("seconds", stats.seconds),
              obs::field("threshold", options.slowQueryThreshold),
              obs::field("tuples", stats.tuplesShipped),
              obs::field("round_trips", stats.roundTrips)});
  }

  answered = result.skyline.size();
  QueryResult out = std::move(result);
  result.stats = out.stats;  // ~QueryRun feeds the engine metrics from it
  return out;
}

}  // namespace dsud::internal
