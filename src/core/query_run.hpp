// Internal per-query session state shared by the algorithm implementations.
//
// One QueryRun is one session: it owns everything that was once
// coordinator-global — the monotonic clock, the protocol timeline, the
// progress callback, and the per-query site views — so N runs execute
// concurrently over one cluster without sharing mutable state.
// Construction opens the session (per-query SiteHandle views, in-flight
// gauge); finalize() (or unwinding) releases the site-side state with
// kFinishQuery.
//
// The run keeps one tally: a slot per site (its usage scope and EXPLAIN
// row) plus the few counts that belong to no site (rounds, broadcasts,
// expunges, answers).  finalize() derives QueryStats and the profile from
// it once; the destructor feeds the engine metrics from it once, so a
// failed or cancelled run still counts the rounds and pulls it made.  Only
// the in-flight gauge and the per-round latency histogram are live.
// Not part of the public API.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "common/stopwatch.hpp"
#include "core/coordinator.hpp"
#include "obs/trace.hpp"

namespace dsud::internal {

struct QueryRun {
  /// Everything the run keeps about one replica chain of the pinned view.
  struct Site {
    /// The chain's RPC traffic (every replica records here, so failover
    /// traffic stays attributed to the logical site).  Sums into the meter.
    /// Declared before `session`, which records into it, to outlive it.
    QueryUsage usage;
    std::unique_ptr<SiteHandle> session;  ///< all session traffic goes here
    obs::QueryTrace trace;  ///< site-side spans, fetched by finish()
    SiteProfile row;        ///< this site's EXPLAIN row
    /// The span of the refill pull `broadcast` sent with its wave; set
    /// while that pull is in flight, until pull() receives it.
    std::optional<obs::TraceSpan> refill;
  };

  Coordinator& coord;
  QueryId id;
  QueryOptions options;  ///< immutable for the run
  QueryResult result;
  Stopwatch watch;  ///< session-owned monotonic clock
  obs::Tracer tracer;
  obs::SpanId root = obs::kNoSpan;
  /// Topology snapshot this session runs over, pinned at construction: a
  /// membership change installs the next epoch without invalidating it, and
  /// holding the pointer keeps the epoch's stores alive until the run ends.
  std::shared_ptr<const ClusterView> view;
  /// One slot per chain of `view`, in view order.  Sized once at
  /// construction and never resized: sessions record into `usage` by
  /// address.
  std::vector<Site> sites;
  const char* algo;  ///< instrument label; names the root span
  bool sessionsOpen = false;  ///< prepare sent; sites hold state under `id`
  std::uint64_t rounds = 0;   ///< protocol rounds started
  /// Answers in the finalized result; empty until finalize(), so the
  /// destructor can tell a finished run from a failed one.
  std::optional<std::size_t> answered;
  obs::Histogram* roundLatency = nullptr;  ///< null without a registry
  obs::Gauge* inflight = nullptr;

  /// `algo` labels every instrument ("naive", "dsud", "edsud", "topk") and
  /// names the root span of the timeline.
  QueryRun(Coordinator& c, const char* algo, const QueryOptions& opts,
           QueryId qid);
  ~QueryRun();

  QueryRun(const QueryRun&) = delete;
  QueryRun& operator=(const QueryRun&) = delete;

  // --- Degraded-mode bookkeeping ------------------------------------------

  bool degradeOk() const noexcept {
    return options.fault.onSiteFailure == OnSiteFailure::kDegrade;
  }

  /// Whether `site` was excluded from this run (QueryOptions::fault
  /// kDegrade only; under kFail the first SiteFailure aborts the query).
  bool isDead(SiteId site) const noexcept;

  /// Excludes `site` from the rest of the run (idempotent).  From here on
  /// the answer is the skyline of the surviving sites' union — exact over
  /// what stayed reachable, silent about the dead site's data.
  void markDead(Site& site);

  // --- Protocol steps --------------------------------------------------------

  /// Opens the site-side sessions (a wave of kPrepare to every site), then
  /// pulls each live site's first candidate into `first` (a second wave),
  /// all under one "prepare" span.  In degraded mode an unreachable site is
  /// excluded instead of failing the query; only losing *every* site is
  /// fatal.
  void prepare(PrepareRequest request,
               const std::function<void(Candidate)>& first);

  /// One To-Server pull from `site`: traces the round trip and counts the
  /// candidate in the site's row.  Receives the refill pull the last
  /// broadcast sent, if any, instead of sending another.  Dead sites return
  /// nothing; in degraded mode a site that stays unreachable is excluded
  /// instead of failing the query.
  std::optional<Candidate> pull(SiteId site);

  /// Server-Delivery: broadcasts `c.tuple` to every live site except its
  /// origin and multiplies the returned survival factors onto the local
  /// probability in site order (Lemma 1).  Returns the exact P_gsky (over
  /// the survivors, in degraded mode).  The evaluates go out as one wave
  /// together with the origin's refill pull, which no evaluate can affect;
  /// the caller's next pull(c.site) receives it.  Traced as one "broadcast"
  /// span with an "rpc.evaluate" child per site and the refill's "pull".
  double broadcast(const Candidate& c, DimMask mask,
                   const std::optional<Rect>& window);

  /// Reports one answer: progress point, callback, "emit" span.
  void emit(const Candidate& c, double globalSkyProb);

  /// The bound-queue loop e-DSUD and top-k share (core/bound_queue.hpp,
  /// with feedback `bound`).  After `prepare`, each round purges the
  /// candidates of sites that died, expunges (when `sweep`) every entry
  /// whose bound fell below `threshold()` and refills from its site,
  /// broadcasts the best qualified entry, confirms its exact probability,
  /// hands it to `confirmed`, and pulls the origin site's next candidate.
  /// When no entry qualifies, the last one is expunged to release its
  /// stream (kPark).  After a sweep every entry qualifies, so only a
  /// sweep-less run takes that step.
  void boundQueueLoop(const PrepareRequest& request, FeedbackBound bound,
                      bool sweep, const std::function<double()>& threshold,
                      const std::function<void(const Candidate&, double)>&
                          confirmed);

  /// Cooperative cancellation: aborts the run with QueryCancelled once the
  /// shared flag (QueryOptions::cancel) has been set.  Checked at every
  /// round boundary (roundScope) and per site in the naive baseline, so a
  /// cancelled query stops within one protocol round; unwinding releases
  /// the site sessions through finish() as usual.
  void throwIfCancelled() const;

  obs::TraceSpan span(std::string_view name) { return {tracer, name}; }

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
      ++run->rounds;
      if (run->roundLatency != nullptr) {
        run->roundLatency->observe(clock.elapsedSeconds());
      }
    }
  };
  RoundScope roundScope() { return RoundScope(*this); }

  /// Releases the sessions, derives QueryStats and the EXPLAIN profile from
  /// the per-site slots, merges the site traces, and emits the lifecycle
  /// events.  Call once, last.
  QueryResult finalize();

 private:
  Site& siteById(SiteId site);
  bool siteTracing() const noexcept {
    return options.traceCapacity > 0 && options.siteTraceCapacity > 0;
  }
  void finish() noexcept;
  void annotateRetries(obs::TraceSpan& rpc, Site& site);

  /// One request of a wave: its site and its RPC span.
  struct Rpc {
    Site* site;
    obs::TraceSpan span;
  };
  /// Sends `request` to `site` under an RPC span `name` (a child of
  /// `parent`) and appends it to `wave`.  Waves send in view order, so
  /// concurrent queries lease their channels in one order.
  void send(std::vector<Rpc>& wave, Site& site, SessionRequest request,
            std::string_view name, obs::SpanId parent);
  /// Receives every reply of `wave` in view order, hands each to `apply`
  /// and then closes its span.  A transport failure marks the site dead
  /// under kDegrade; any other failure, or any failure under kFail, is
  /// rethrown after the last reply, so no request stays in flight.
  template <typename Apply>
  void receive(std::vector<Rpc>& wave, Apply&& apply);
  /// Books one pull's response in `site`'s row and `rpc` span.
  std::optional<Candidate> pulled(Site& site, obs::TraceSpan& rpc,
                                  NextCandidateResponse response);
  void feedMetrics();
};

}  // namespace dsud::internal
