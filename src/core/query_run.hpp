// Internal per-query session state shared by the algorithm implementations.
//
// One QueryRun is one session: it owns everything that was once
// coordinator-global — the monotonic clock, the bandwidth scope, the
// protocol timeline, the progress callback, and the per-query site views —
// so N runs execute concurrently over one cluster without sharing mutable
// state.  Construction opens the session (per-query SiteHandle views,
// in-flight gauge); finalize() (or unwinding) releases the site-side state
// with kFinishQuery.  Not part of the public API.
#pragma once

#include <algorithm>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/stopwatch.hpp"
#include "core/coordinator.hpp"
#include "core/failover.hpp"
#include "obs/log.hpp"
#include "obs/merge.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"

namespace dsud::internal {

struct QueryRun {
  Coordinator& coord;
  QueryId id;
  QueryOptions options;  ///< immutable for the run
  QueryResult result;
  /// Per-chain bandwidth scopes, parallel to `sessions`: each chain's RPC
  /// traffic lands in its own QueryUsage (sums into the meter too) so the
  /// EXPLAIN profile can attribute bytes and tuples per site.  Aggregate
  /// stats are the sum over chains — integer sums, so bit-identical to the
  /// former single-scope accounting.
  std::vector<std::unique_ptr<QueryUsage>> siteUsage;
  Stopwatch watch;   ///< session-owned monotonic clock
  double prepareDoneSeconds = 0.0;  ///< stamp at end of prepareAll
  obs::Tracer tracer;
  obs::SpanId root = obs::kNoSpan;
  /// Topology snapshot this session runs over, pinned at construction: a
  /// membership change installs the next epoch without invalidating it, and
  /// holding the pointer keeps the epoch's stores alive until the run ends.
  std::shared_ptr<const ClusterView> view;
  /// Per-query views of the pinned partitions (one per chain; replicated
  /// partitions get a FailoverSiteHandle over all their stores); all session
  /// traffic flows through these so it lands in `usage`.
  std::vector<std::unique_ptr<SiteHandle>> sessions;
  /// Site-side span timelines, parallel to `sessions` (empty when site
  /// tracing is off), filled by one kFetchTrace per site at finish() time.
  std::vector<obs::QueryTrace> siteTraces;
  const char* algo;  ///< instrument label; also names slow-query dumps
  bool sessionsOpen = false;  ///< prepare sent; sites hold state under `id`
  /// Sites excluded from this run after exhausting their retry budget
  /// (QueryOptions::fault.onSiteFailure == kDegrade only; under kFail the
  /// first SiteFailure aborts the query instead).  Order = detection order.
  std::vector<SiteId> dead;

  // Cached instruments (null when the coordinator has no registry).
  obs::Counter* queries = nullptr;
  obs::Counter* rounds = nullptr;
  obs::Counter* answers = nullptr;
  obs::Counter* pulls = nullptr;
  obs::Counter* expunges = nullptr;
  obs::Counter* sitePrunes = nullptr;
  obs::Counter* degradedQueries = nullptr;
  obs::Counter* slowQueries = nullptr;
  obs::Histogram* roundLatency = nullptr;
  obs::Histogram* queryLatency = nullptr;
  obs::Gauge* inflight = nullptr;

  /// `algo` labels every instrument ("naive", "dsud", "edsud", "topk") and
  /// names the root span of the timeline.
  QueryRun(Coordinator& c, const char* algo, const QueryOptions& opts,
           QueryId qid)
      : coord(c), id(qid), options(opts), tracer(opts.traceCapacity),
        view(c.view()), algo(algo) {
    result.id = id;
    sessions.reserve(view->partitions.size());
    siteUsage.reserve(view->partitions.size());
    for (const ReplicaChain& chain : view->partitions) {
      // One scope per chain: all replicas of a partition record into it, so
      // failover traffic stays attributed to the logical site.
      siteUsage.push_back(std::make_unique<QueryUsage>());
      QueryUsage* scope = siteUsage.back().get();
      if (chain.replicas.size() == 1) {
        sessions.push_back(chain.replicas[0]->openSession(
            scope, options.fault, chain.health[0], c.metrics()));
      } else {
        // k >= 2: one session per replica store, stitched into a single
        // failover handle so a dying store is replaced mid-query with zero
        // result loss (core/failover.hpp).
        std::vector<std::unique_ptr<SiteHandle>> replicas;
        replicas.reserve(chain.replicas.size());
        for (std::size_t r = 0; r < chain.replicas.size(); ++r) {
          replicas.push_back(chain.replicas[r]->openSession(
              scope, options.fault, chain.health[r], c.metrics()));
        }
        sessions.push_back(std::make_unique<FailoverSiteHandle>(
            chain.partition, std::move(replicas), c.metrics()));
      }
    }
    // One EXPLAIN row per chain, parallel to `sessions`: the protocol
    // steps count into it as they happen; buildProfile adds the wire totals.
    result.profile.sites.resize(sessions.size());
    for (std::size_t i = 0; i < sessions.size(); ++i) {
      result.profile.sites[i].site = sessions[i]->siteId();
    }
    // Site tracing needs a coordinator trace to merge into.
    if (options.traceCapacity > 0 && options.siteTraceCapacity > 0) {
      siteTraces.resize(sessions.size());
    }
    root = tracer.begin(std::string("query.") + algo);
    if (obs::MetricsRegistry* reg = coord.metrics(); reg != nullptr) {
      const auto name = [algo](const char* base) {
        return obs::labeled(base, {{"algo", algo}});
      };
      queries = &reg->counter(name("dsud_queries_total"));
      rounds = &reg->counter(name("dsud_rounds_total"));
      answers = &reg->counter(name("dsud_answers_total"));
      pulls = &reg->counter(name("dsud_candidates_pulled_total"));
      expunges = &reg->counter(name("dsud_expunged_total"));
      sitePrunes = &reg->counter(name("dsud_pruned_at_sites_total"));
      degradedQueries = &reg->counter(name("dsud_degraded_queries_total"));
      slowQueries = &reg->counter(name("dsud_slow_queries_total"));
      roundLatency = &reg->histogram(name("dsud_round_latency_seconds"),
                                     obs::Histogram::latencyBounds());
      queryLatency = &reg->histogram(name("dsud_query_latency_seconds"),
                                     obs::Histogram::latencyBounds());
      inflight = &reg->gauge(name("dsud_queries_inflight"));
      inflight->add(1);
    }
    obs::eventLog().emit(LogLevel::kDebug, "engine", "query.start",
                         {obs::field("query", id), obs::field("algo", algo),
                          obs::field("sites", sessions.size())});
  }

  ~QueryRun() {
    finish();  // best-effort when unwinding; no-op after finalize()
    if (inflight != nullptr) inflight->sub(1);
  }

  QueryRun(const QueryRun&) = delete;
  QueryRun& operator=(const QueryRun&) = delete;

  /// Session view of the site by id; throws std::out_of_range when unknown.
  SiteHandle& siteById(SiteId site) {
    return *sessions[sessionIndexOf(site)];
  }

  /// Position of `site` in `sessions` (== its position in the pinned view);
  /// throws std::out_of_range when unknown.
  std::size_t sessionIndexOf(SiteId site) const {
    for (std::size_t i = 0; i < sessions.size(); ++i) {
      if (sessions[i]->siteId() == site) return i;
    }
    throw std::out_of_range("QueryRun: unknown site id " +
                            std::to_string(site));
  }

  bool siteTracing() const noexcept { return !siteTraces.empty(); }

  /// Marks an RPC span that needed transport retries: the attempt count and
  /// the site breaker's state (0 closed, 1 open, 2 half-open).  Clean RPCs
  /// stay unannotated, so a faulty run's trace differs from a clean one
  /// only by these attrs.  The breaker comes from the session handle itself
  /// (the active replica's, under failover) — positional coordinator
  /// lookups are not stable once sites join and leave.  Also folds the
  /// extra attempts into the site's profile row.
  void annotateRetries(obs::TraceSpan& rpc, std::size_t index) {
    const SiteHandle& handle = *sessions[index];
    if (const std::uint32_t attempts = handle.lastAttempts(); attempts > 1) {
      result.profile.sites[index].retries += attempts - 1;
      rpc.attr("attempts", attempts);
      if (const SiteHealth* health = handle.sessionHealth();
          health != nullptr) {
        rpc.attr("breaker_state",
                 static_cast<double>(static_cast<int>(health->state())));
      }
    }
  }

  // --- Degraded-mode bookkeeping ------------------------------------------

  bool degradeOk() const noexcept {
    return options.fault.onSiteFailure == OnSiteFailure::kDegrade;
  }

  bool isDead(SiteId site) const noexcept {
    return std::find(dead.begin(), dead.end(), site) != dead.end();
  }

  /// Excludes `site` from the rest of the run (idempotent).  From here on
  /// the answer is the skyline of the surviving sites' union — exact over
  /// what stayed reachable, silent about the dead site's data.
  void markDead(SiteId site) {
    if (isDead(site)) return;
    dead.push_back(site);
    result.degraded = true;
    result.excludedSites.push_back(site);
    if (degradedQueries != nullptr && dead.size() == 1) {
      degradedQueries->inc();
    }
    obs::TraceSpan s = span("site.dead");
    s.attr("site", site);
    obs::eventLog().emit(LogLevel::kWarn, "engine", "site.dead",
                         {obs::field("query", id), obs::field("algo", algo),
                          obs::field("site", site)});
  }

  /// Opens the site-side sessions: kPrepare to every site.  Marks the
  /// session open first so a mid-prepare failure still releases the sites
  /// that did prepare.  In degraded mode an unreachable site is excluded
  /// instead of failing the query; only losing *every* site is fatal.
  /// When site tracing is on, the request is stamped with the session's
  /// trace capacity before it goes out.
  void prepareAll(PrepareRequest request) {
    if (siteTracing()) {
      request.traceCapacity = static_cast<std::uint32_t>(std::min<
          std::size_t>(options.siteTraceCapacity,
                       std::numeric_limits<std::uint32_t>::max()));
    }
    sessionsOpen = true;
    for (std::size_t i = 0; i < sessions.size(); ++i) {
      const auto& s = sessions[i];
      obs::TraceSpan rpc = span("rpc.prepare");
      rpc.attr("site", s->siteId());
      try {
        s->prepare(request);
        annotateRetries(rpc, i);
      } catch (const NetError&) {
        if (!degradeOk()) throw;
        markDead(s->siteId());
      }
    }
    if (dead.size() == sessions.size()) {
      throw NetError("prepareAll: all sites unavailable");
    }
    prepareDoneSeconds = watch.elapsedSeconds();
  }

  /// Releases the site-side session state (kFinishQuery, idempotent).
  /// Exceptions are swallowed: finish is cleanup, and the sites drop
  /// unknown ids anyway.  Dead sites are skipped — their retry budget was
  /// already spent detecting the failure.  With site tracing on this is the
  /// last chance to read the site-side spans (kFinishQuery destroys the
  /// session tracer with the rest of the session), so every live site gets
  /// one best-effort kFetchTrace first.
  void finish() noexcept {
    if (!sessionsOpen) return;
    sessionsOpen = false;
    if (siteTracing()) {
      const FetchTraceRequest fetch{id};
      for (std::size_t i = 0; i < sessions.size(); ++i) {
        if (isDead(sessions[i]->siteId())) continue;
        obs::TraceSpan rpc = span("rpc.fetch_trace");
        rpc.attr("site", sessions[i]->siteId());
        try {
          siteTraces[i] = sessions[i]->fetchTrace(fetch).trace;
        } catch (...) {
          // A site whose trace cannot be read still answers the query.
        }
      }
    }
    const FinishQueryRequest request{id};
    for (const auto& s : sessions) {
      if (isDead(s->siteId())) continue;
      try {
        s->finishQuery(request);
      } catch (...) {
      }
    }
  }

  /// Broadcasts `c.tuple` to every site except its origin and multiplies
  /// the returned survival factors onto the local probability (Lemma 1),
  /// one site at a time in site order.
  ///
  /// In degraded mode a site failing its broadcast is excluded and its
  /// survival factor skipped — the candidate's probability is then exact
  /// over the survivors.  Under kFail the SiteFailure propagates.
  ///
  /// Each per-site round trip gets an "rpc.evaluate" span hung off
  /// `broadcastSpan` (the caller's "broadcast" span).
  double evaluateGlobally(const Candidate& c, bool pruneLocal, DimMask mask,
                          const std::optional<Rect>& window,
                          obs::SpanId broadcastSpan = obs::kNoSpan) {
    double globalSkyProb = c.localSkyProb;
    const EvaluateRequest request{id, c.tuple, mask, pruneLocal, window};
    for (std::size_t i = 0; i < sessions.size(); ++i) {
      const auto& s = sessions[i];
      if (s->siteId() == c.site || isDead(s->siteId())) continue;
      obs::TraceSpan rpc(tracer, "rpc.evaluate", broadcastSpan);
      rpc.attr("site", s->siteId());
      try {
        const EvaluateResponse r = s->evaluate(request);
        if (siteTracing()) {
          rpc.attr("seq", static_cast<double>(s->lastEvalSeq()));
        }
        annotateRetries(rpc, i);
        globalSkyProb *= r.survival;
        result.profile.sites[i].pruned += r.prunedCount;
      } catch (const NetError&) {
        if (!degradeOk()) throw;
        markDead(s->siteId());
      }
    }
    ++result.stats.broadcasts;
    return globalSkyProb;
  }

  /// One To-Server pull from `site`: traces the round trip (with the
  /// attempt count when retries happened), counts the candidate, and — in
  /// degraded mode — excludes a site that stays unreachable instead of
  /// failing the query.  Dead sites return nothing.
  std::optional<Candidate> pull(SiteId site, const NextCandidateRequest& cursor,
                                QueryStats& stats) {
    if (isDead(site)) return std::nullopt;
    const std::size_t index = sessionIndexOf(site);
    SiteHandle& handle = *sessions[index];
    obs::TraceSpan pullSpan = span("pull");
    pullSpan.attr("site", site);
    try {
      auto response = handle.nextCandidate(cursor);
      SiteProfile& row = result.profile.sites[index];
      ++row.rounds;
      if (siteTracing()) {
        // Matches this round trip to the site-side "site.next" span carrying
        // the same sequence number (see obs::mergeSiteTraces).
        pullSpan.attr("seq", static_cast<double>(handle.lastNextSeq()));
      }
      annotateRetries(pullSpan, index);
      if (!response.candidate) return std::nullopt;
      ++row.candidates;
      countPull(stats);
      return std::move(response.candidate);
    } catch (const NetError&) {
      if (!degradeOk()) throw;
      markDead(site);
      return std::nullopt;
    }
  }

  /// Sums the per-chain scopes into one aggregate (what the single session
  /// scope used to hold).
  UsageTotals usageTotals() const {
    UsageTotals sum;
    for (const auto& scope : siteUsage) {
      const UsageTotals t = scope->totals();
      sum.tuples += t.tuples;
      sum.bytes += t.bytes;
      sum.calls += t.calls;
    }
    return sum;
  }

  std::uint64_t tuplesSoFar() const { return usageTotals().tuples; }

  /// Cooperative cancellation: aborts the run with QueryCancelled once the
  /// shared flag (QueryOptions::cancel) has been set.  Checked at every
  /// round boundary (roundScope) and per site in the naive baseline, so a
  /// cancelled query stops within one protocol round; unwinding releases
  /// the site sessions through finish() as usual.
  void throwIfCancelled() const {
    if (options.cancel != nullptr &&
        options.cancel->load(std::memory_order_relaxed)) {
      throw QueryCancelled(id);
    }
  }

  obs::TraceSpan span(std::string_view name) { return {tracer, name}; }

  /// One To-Server pull that returned a candidate.
  void countPull(QueryStats& stats) {
    ++stats.candidatesPulled;
    if (pulls != nullptr) pulls->inc();
  }

  /// One candidate killed by the e-DSUD bound (no broadcast spent).
  void countExpunge(QueryStats& stats) {
    ++stats.expunged;
    if (expunges != nullptr) expunges->inc();
  }

  /// RAII scope for one protocol round: a "round" span in the timeline plus
  /// a sample in the per-round latency histogram.
  struct RoundScope {
    QueryRun* run;
    obs::TraceSpan span;
    Stopwatch clock;

    explicit RoundScope(QueryRun& r) : run(&r), span(r.span("round")) {
      r.throwIfCancelled();
    }
    RoundScope(RoundScope&&) = delete;
    ~RoundScope() {
      if (run->rounds != nullptr) run->rounds->inc();
      if (run->roundLatency != nullptr) {
        run->roundLatency->observe(clock.elapsedSeconds());
      }
    }
  };
  RoundScope roundScope() { return RoundScope(*this); }

  void emit(const Candidate& c, double globalSkyProb) {
    GlobalSkylineEntry entry;
    entry.site = c.site;
    entry.tuple = c.tuple;
    entry.localSkyProb = c.localSkyProb;
    entry.globalSkyProb = globalSkyProb;

    ProgressPoint point;
    point.reported = result.skyline.size() + 1;
    point.tuplesShipped = tuplesSoFar();
    point.seconds = watch.elapsedSeconds();

    {
      obs::TraceSpan s = span("emit");
      s.attr("site", entry.site);
      s.attr("tuple", static_cast<double>(entry.tuple.id));
      s.attr("p_gsky", globalSkyProb);
    }
    if (answers != nullptr) answers->inc();

    if (options.progress) options.progress(entry, point);
    result.skyline.push_back(std::move(entry));
    result.progress.push_back(point);
  }

  QueryResult finalize() {
    const double executeDone = watch.elapsedSeconds();
    // Release the site sessions before reading the totals so the finish
    // round trips land in this query's stats deterministically.
    finish();
    result.stats.seconds = watch.elapsedSeconds();
    const UsageTotals totals = usageTotals();
    result.stats.tuplesShipped = totals.tuples;
    result.stats.bytesShipped = totals.bytes;
    result.stats.roundTrips = totals.calls;
    for (const SiteProfile& site : result.profile.sites) {
      result.stats.prunedAtSites += site.pruned;
    }
    if (queries != nullptr) {
      queries->inc();
      sitePrunes->add(result.stats.prunedAtSites);
      queryLatency->observe(result.stats.seconds);
    }
    tracer.end(root);
    result.trace = tracer.take();
    if (siteTracing()) {
      std::vector<obs::SiteTraceInput> inputs;
      inputs.reserve(sessions.size());
      for (std::size_t i = 0; i < sessions.size(); ++i) {
        inputs.push_back({sessions[i]->siteId(), &siteTraces[i]});
      }
      obs::mergeSiteTraces(result.trace, inputs);
    }
    buildProfile(executeDone);
    emitLifecycleEvents();
    noteSlowQuery();
    return std::move(result);
  }

  /// Completes the EXPLAIN/ANALYZE profile: phase times, plus each site
  /// row's wire totals from its usage scope and its failover state.  Cheap
  /// and unconditional — whether the client *sees* it is the protocol's
  /// choice, so answers are bit-identical with profiling on or off.
  void buildProfile(double executeDone) {
    QueryProfile& p = result.profile;
    p.algo = algo;
    p.prepareSeconds = prepareDoneSeconds;
    p.executeSeconds = std::max(0.0, executeDone - prepareDoneSeconds);
    p.finalizeSeconds =
        std::max(0.0, result.stats.seconds - executeDone);
    for (std::size_t i = 0; i < sessions.size(); ++i) {
      SiteProfile& site = p.sites[i];
      const UsageTotals t = siteUsage[i]->totals();
      site.tuples = t.tuples;
      site.bytes = t.bytes;
      site.failovers = sessions[i]->failovers();
      site.dead = isDead(site.site);
      p.failovers += site.failovers;
    }
  }

  /// query.done (info) for every run; query.degraded (warn) plus a flight-
  /// recorder anomaly dump when sites were lost — the dump is the always-on
  /// record of *why* (retries → breaker trips → site.dead precede it in the
  /// ring).
  void emitLifecycleEvents() {
    obs::EventLog& log = obs::eventLog();
    log.emit(LogLevel::kInfo, "engine", "query.done",
             {obs::field("query", id), obs::field("algo", algo),
              obs::field("answers", result.skyline.size()),
              obs::field("tuples", result.stats.tuplesShipped),
              obs::field("bytes", result.stats.bytesShipped),
              obs::field("round_trips", result.stats.roundTrips),
              obs::field("seconds", result.stats.seconds),
              obs::field("degraded", result.degraded),
              obs::field("failovers", result.profile.failovers)});
    if (result.degraded) {
      log.emit(LogLevel::kWarn, "engine", "query.degraded",
               {obs::field("query", id), obs::field("algo", algo),
                obs::field("excluded", result.excludedSites.size())});
      obs::flightRecorder().anomaly("degraded_query");
    }
  }

  /// Slow-query log: when the run exceeded QueryOptions::slowQueryThreshold,
  /// count it and emit a `query.slow` event into the structured log (one
  /// stream with everything else; the flight recorder retains it).
  void noteSlowQuery() {
    if (options.slowQueryThreshold <= 0.0 ||
        result.stats.seconds < options.slowQueryThreshold) {
      return;
    }
    if (slowQueries != nullptr) slowQueries->inc();
    obs::eventLog().emit(
        LogLevel::kWarn, "engine", "query.slow",
        {obs::field("query", id), obs::field("algo", algo),
         obs::field("seconds", result.stats.seconds),
         obs::field("threshold", options.slowQueryThreshold),
         obs::field("tuples", result.stats.tuplesShipped),
         obs::field("round_trips", result.stats.roundTrips)});
  }
};

}  // namespace dsud::internal
