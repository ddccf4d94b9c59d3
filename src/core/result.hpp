// Query result and statistics types shared by all distributed algorithms.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/dataset.hpp"
#include "core/protocol.hpp"
#include "net/fault.hpp"
#include "obs/trace.hpp"

namespace dsud {

/// One qualified global skyline answer reported at the coordinator.
struct GlobalSkylineEntry {
  SiteId site = kNoSite;  ///< origin site
  Tuple tuple;
  double localSkyProb = 0.0;   ///< P_sky(t, D_site)
  double globalSkyProb = 0.0;  ///< exact P_gsky(t)

  friend bool operator==(const GlobalSkylineEntry&,
                         const GlobalSkylineEntry&) = default;
};

/// Progressiveness sample recorded when the k-th answer is emitted
/// (paper Figs. 12–13: bandwidth and CPU time as functions of answers
/// reported so far).
struct ProgressPoint {
  std::size_t reported = 0;         ///< answers emitted so far (this one included)
  std::uint64_t tuplesShipped = 0;  ///< cumulative bandwidth at emission
  double seconds = 0.0;             ///< CPU/wall time since query start
};

/// Work counters for one distributed query run.
struct QueryStats {
  std::uint64_t tuplesShipped = 0;  ///< the paper's bandwidth metric
  std::uint64_t bytesShipped = 0;
  std::uint64_t roundTrips = 0;
  std::size_t candidatesPulled = 0;  ///< To-Server tuples
  std::size_t broadcasts = 0;        ///< Server-Delivery feedback rounds
  std::size_t expunged = 0;          ///< e-DSUD: candidates killed by bound
  std::size_t prunedAtSites = 0;     ///< Local-Pruning victims
  double seconds = 0.0;

  friend bool operator==(const QueryStats&, const QueryStats&) = default;
};

/// Per-site slice of a query's EXPLAIN/ANALYZE profile: how much work one
/// site contributed and how the coordinator's fault machinery treated it.
struct SiteProfile {
  SiteId site = kNoSite;
  std::uint64_t rounds = 0;      ///< sorted-access pulls served (To-Server)
  std::uint64_t tuples = 0;      ///< tuples shipped from/to this site
  std::uint64_t bytes = 0;       ///< wire bytes attributed to this site
  std::uint64_t candidates = 0;  ///< candidates this site contributed
  std::uint64_t pruned = 0;      ///< tuples its Local-Pruning withheld
  std::uint64_t retries = 0;     ///< RPC attempts beyond the first
  std::uint64_t failovers = 0;   ///< replica switches on this chain
  bool dead = false;             ///< excluded after exhausting replicas

  friend bool operator==(const SiteProfile&, const SiteProfile&) = default;
};

/// EXPLAIN/ANALYZE profile of one query run: where the rounds and bytes
/// went (per site), how the serving layer disposed of the query (cache /
/// batch / failover), and where its wall time was spent.  Always collected
/// — the fields are tallied on the coordinator thread from state the run
/// maintains anyway — and carried on the `done` protocol frame only when
/// the client asked for it, so answers are bit-identical either way.
struct QueryProfile {
  std::string algo;   ///< "naive" | "dsud" | "edsud" | "topk"
  /// Result-cache disposition: "hit" (answer replayed from cache), "miss"
  /// (executed, then inserted), or "bypass" (cache absent or query not
  /// share-eligible).
  std::string cache = "bypass";
  /// Shared-work disposition: "solo" (ran alone), "leader" (its descent
  /// served the whole group), or "member" (answer split out of a leader's
  /// run).
  std::string batch = "solo";
  std::uint64_t batchWidth = 1;  ///< group size when batched (else 1)
  std::uint64_t failovers = 0;   ///< replica switches across all chains
  double prepareSeconds = 0.0;   ///< session open + site prepare
  double executeSeconds = 0.0;   ///< protocol rounds until last answer
  double finalizeSeconds = 0.0;  ///< finish + trace merge + accounting
  std::vector<SiteProfile> sites;

  friend bool operator==(const QueryProfile&, const QueryProfile&) = default;
};

struct QueryResult {
  QueryId id = kNoQuery;  ///< session id the engine assigned to this query
  std::vector<GlobalSkylineEntry> skyline;  ///< in emission order
  QueryStats stats;
  std::vector<ProgressPoint> progress;  ///< one point per emitted answer
  /// Protocol timeline of this run (prepare, rounds, broadcasts, expunges,
  /// emits).  Empty when the session's tracing is disabled.
  obs::QueryTrace trace;
  /// True when one or more sites became unreachable mid-query and the run
  /// completed over the survivors (QueryOptions::fault.onSiteFailure ==
  /// kDegrade).  The answer then equals the skyline of the surviving sites'
  /// union — exact over what was reachable, silent about the rest.
  bool degraded = false;
  /// Sites excluded from a degraded run, in the order their failures were
  /// detected.  Empty when `degraded` is false.
  std::vector<SiteId> excludedSites;
  /// EXPLAIN/ANALYZE cost profile (always populated by the engine paths).
  QueryProfile profile;
};

/// Invoked the moment an answer qualifies (progressive reporting).
using ProgressCallback =
    std::function<void(const GlobalSkylineEntry&, const ProgressPoint&)>;

/// Thrown by a run whose QueryOptions::cancel flag was set.  Cancellation
/// is cooperative: the flag is checked at every protocol round boundary
/// (and per site in the naive baseline), so an abandoned query stops within
/// one round, releases its site sessions, and never delivers a partial
/// result as if it were complete.
class QueryCancelled : public std::runtime_error {
 public:
  explicit QueryCancelled(QueryId id)
      : std::runtime_error("query " + std::to_string(id) + " cancelled"),
        id_(id) {}
  QueryId id() const noexcept { return id_; }

 private:
  QueryId id_;
};

/// The threshold algorithms QueryEngine::run dispatches over (top-k is the
/// run overload that takes a TopKConfig instead).
enum class Algo {
  kNaive,  ///< Sec. 3.2 baseline: ship everything, answer centrally
  kDsud,   ///< Sec. 5.1: sorted access + exact broadcast evaluation
  kEdsud,  ///< Sec. 5.2: + global-probability upper bounds and expunging
};

/// Opt-in shared-work execution (QueryEngine::submit): a submitted
/// query waits up to `windowSeconds` for compatible queries — same
/// algorithm, subspace, window, and execution knobs; any thresholds — and
/// the whole group runs as ONE site-side descent at the loosest threshold,
/// split back out per query at the coordinator.  Answers are bit-identical
/// to solo runs; stats describe the shared descent (see docs/ARCHITECTURE
/// "Shared-work execution & result cache").
struct BatchingOptions {
  bool enabled = false;
  /// How long a submitted query may wait to be merged.  0 still merges
  /// queries that arrive while a flush is pending but adds no delay.
  double windowSeconds = 0.002;
  /// Flush early once this many queries merged into one group.
  std::size_t maxMerge = 64;
};

/// Per-query execution options, immutable for the lifetime of the query.
/// Everything that was once mutable coordinator-wide state (progress
/// callback, trace capacity) lives here so N queries can run concurrently
/// with independent settings.
struct QueryOptions {
  /// Invoked from the running query's thread as each answer qualifies.
  ProgressCallback progress;

  /// Cooperative cancellation flag, shared with whoever may abort the query
  /// (e.g. the dsudd daemon when its client disconnects).  Null = never
  /// cancelled.  Once another thread stores true, the run throws
  /// QueryCancelled at its next round boundary.
  std::shared_ptr<std::atomic<bool>> cancel;

  /// Caps the query's protocol timeline at this many spans (0 disables
  /// tracing; QueryResult::trace comes back empty).  Default: 65536 —
  /// roughly 16k feedback rounds before events are dropped, ~100 bytes per
  /// retained span.
  std::size_t traceCapacity = 65536;

  /// Fault handling for this query: per-call deadline, retry budget, and
  /// what to do when a site stays unreachable after retries.  The defaults
  /// (no deadline, single attempt, kFail) reproduce fail-fast behaviour:
  /// the first transport error aborts the query with SiteFailure.
  FaultOptions fault;

  /// Caps each site session's tracer at this many spans (0, the default,
  /// disables site tracing).  Site spans leave the sites in one kFetchTrace
  /// RPC per live site at finish time, so query responses stay
  /// byte-identical either way; tracing costs exactly one extra round trip
  /// per site.  Ignored when `traceCapacity == 0` — without a coordinator
  /// trace there is nothing to merge site spans into.
  std::size_t siteTraceCapacity = 0;

  /// When > 0 and the query's wall time exceeds this many seconds, the run
  /// emits a `query.slow` event and counts in dsud_slow_queries_total.
  double slowQueryThreshold = 0.0;

  /// Shared-work batching window (QueryEngine::submit only; synchronous
  /// runs ignore it).
  BatchingOptions batching;
};

/// Sorts answers by descending global skyline probability (ties: id) — the
/// canonical order used when comparing algorithm outputs.
void sortByGlobalProbability(std::vector<GlobalSkylineEntry>& entries);

/// Canonical lowercase name of each algorithm, indexed by its Algo value;
/// shared by the wire protocol, the profile, and the structured event log.
inline constexpr const char* kAlgoNames[] = {"naive", "dsud", "edsud"};

inline const char* algoName(Algo algo) noexcept {
  return kAlgoNames[static_cast<std::size_t>(algo)];
}

}  // namespace dsud
