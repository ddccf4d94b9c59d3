// A local site S_i: owns the uncertain database D_i, its PR-tree, the
// per-query sessions of every in-flight query, and the replica of SKY(H)
// used by update maintenance (paper Secs. 4–6).
#pragma once

#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/dataset.hpp"
#include "core/protocol.hpp"
#include "index/prtree.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "skyline/skyline_result.hpp"

namespace dsud {

/// Site-side protocol engine.
///
/// Thread-safety contract: every protocol method is internally synchronised
/// by one site-wide mutex, so any number of query sessions may call
/// concurrently — calls serialise per site but proceed in parallel across
/// sites.  Query state is keyed by QueryId, so
/// interleaved sessions never observe each other's cursors or pruning.
/// Update maintenance (applyInsert/applyDelete/...) mutates the PR-tree;
/// individual calls are safe against concurrent queries, but a query that
/// spans an update observes a half-applied database — run updates only
/// while no query is in flight (see docs/ARCHITECTURE.md §9).
class LocalSite {
 public:
  /// Builds the PR-tree over `db` by STR bulk load.  The store is live
  /// (serving queries) immediately.
  LocalSite(SiteId id, const Dataset& db, PRTree::Options options = {});

  /// Staging store for an online join/repartition: starts empty and
  /// query-rejecting; tuples arrive via streamTuples and joinSite seals it
  /// with the same STR bulk load as the live constructor — a store built by
  /// streaming is bit-identical to one built from the assembled dataset.
  LocalSite(SiteId id, std::size_t dims, PRTree::Options options = {});

  /// Lifecycle of a store under elastic membership.  kStaging rejects
  /// queries (data still streaming in); kLive serves everything; kDraining
  /// keeps serving — its tree holds the retired epoch's full partition —
  /// so sessions that pinned that epoch's view finish correctly even if
  /// they prepare after the drain.  The store dies when the last pinned
  /// view drops its shared_ptr.
  enum class Phase : std::uint8_t { kStaging, kLive, kDraining };
  Phase phase() const;

  SiteId id() const noexcept { return id_; }
  std::size_t size() const noexcept { return tree_.size(); }
  const PRTree& tree() const noexcept { return tree_; }

  /// Attaches a metrics registry (null detaches).  The site then maintains
  /// per-site instruments: `dsud_site_node_accesses_total{site=...}`
  /// (PR-tree nodes visited by its query walks) and
  /// `dsud_site_pruned_total{site=...}` (Local-Pruning victims).  The
  /// registry must outlive the site.  Wiring-time only: must not race with
  /// protocol calls.
  void setMetrics(obs::MetricsRegistry* registry);

  // --- Query protocol ------------------------------------------------------

  /// Local computing phase (framework step 1): computes SKY(D_i) = {t :
  /// P_sky(t, D_i) >= q} sorted by descending probability and stores it as
  /// the session state of `request.query` (replacing any previous session
  /// with that id).
  PrepareResponse prepare(const PrepareRequest& request);

  /// To-Server phase: the best remaining local-skyline tuple of the
  /// requested session, or empty when it is exhausted (or unknown).
  NextCandidateResponse nextCandidate(const NextCandidateRequest& request);

  /// Server-Delivery + Local-Pruning phases: returns Π (1 − P(t')) over the
  /// local dominators of the delivered tuple (Observation 1) in the
  /// requested subspace and, when requested, prunes the remaining local
  /// skyline of `request.query` with that session's configured rule.
  EvaluateResponse evaluate(const EvaluateRequest& request);

  /// Naive baseline: the whole local database.
  ShipAllResponse shipAll() const;

  /// Drops the session state of one query (idempotent).
  void finishQuery(const FinishQueryRequest& request);

  /// Snapshot of one session's span timeline (empty for an unknown or
  /// untraced session).  Non-clearing, so a retried fetch is idempotent;
  /// spans are released by finishQuery with the session.
  FetchTraceResponse fetchTrace(const FetchTraceRequest& request) const;

  // --- Elastic membership (online join / leave) ----------------------------

  /// Appends one ordered batch to the staging dataset.  Replay-protected by
  /// `seq` (a repeated or stale seq acks without appending — batch append is
  /// not idempotent).  Throws std::logic_error on a live store and
  /// std::invalid_argument on a partition/dimensionality mismatch.
  StreamTuplesResponse streamTuples(const StreamTuplesRequest& request);

  /// Seals a staging store: one STR bulk load over everything streamed, then
  /// the store is live.  Idempotent — joining a live store just acks.
  JoinSiteResponse joinSite(const JoinSiteRequest& request);

  /// Marks the store draining: the cluster has retired it from routing, but
  /// it keeps serving sessions pinned to the retired epoch until the last
  /// pinned view releases it.  Idempotent.
  LeaveSiteResponse leaveSite(const LeaveSiteRequest& request);

  // --- Update maintenance (Sec. 5.4) ---------------------------------------

  /// Throws std::invalid_argument, changing nothing, for an id the store
  /// already holds.
  ApplyInsertResponse applyInsert(const ApplyInsertRequest& request);
  ApplyDeleteResponse applyDelete(const ApplyDeleteRequest& request);

  /// Monotone mutation counter of this site's database: 0 at construction,
  /// bumped by every applyInsert and every applyDelete that actually erased
  /// a tuple.  Stamped on the maintenance responses so the coordinator's
  /// combined dataset version (and with it the result cache) tracks the
  /// cluster state without extra RPCs.
  std::uint64_t datasetVersion() const;

  /// After a delete elsewhere: search the region dominated by the deleted
  /// tuple for local tuples that may now qualify globally (not already in
  /// the replica, provable upper bound >= request.q).
  RepairDeleteResponse repairDelete(const RepairDeleteRequest& request);

  void replicaAdd(const ReplicaAddRequest& request);
  void replicaRemove(const ReplicaRemoveRequest& request);

  /// Current replica of SKY(H) (for tests and examples).
  struct ReplicaEntry {
    Candidate entry;
    double globalSkyProb = 0.0;
  };
  std::vector<ReplicaEntry> replica() const;

  /// Remaining (unshipped, unpruned) local skyline size of one session
  /// (0 for unknown ids).
  std::size_t pendingCount(QueryId query) const;
  /// Number of query sessions currently holding state at this site.
  std::size_t sessionCount() const;

 private:
  /// Π (1 − P(r)) over replica entries from *other* sites dominating `v`.
  double replicaExternalSurvivalLocked(std::span<const double> v,
                                       DimMask mask) const;

  /// Publishes the PR-tree node-access delta since the last flush.
  void flushTreeMetricsLocked();

  struct PendingEntry {
    ProbSkylineEntry entry;
    /// Running Π (1 − P(t)) over external feedback tuples dominating this
    /// entry (threshold prune rule).
    double extSurvival = 1.0;
  };

  /// State of one query at this site — the session the coordinator opens
  /// with kPrepare and releases with kFinishQuery.
  ///
  /// The replay caches give retried kNextCandidate/kEvaluate exactly-once
  /// semantics: the coordinator numbers each logical operation (seq, per
  /// session and direction), and a request repeating the last seen seq is
  /// answered with the cached response instead of re-executing — cursor
  /// advancement and extSurvival accumulation are not idempotent.  One slot
  /// each suffices because the RPC layer never pipelines: a new seq is only
  /// issued once the previous operation succeeded or was abandoned.
  struct Session {
    double q = 0.3;
    DimMask mask = 0;
    PruneRule prune = PruneRule::kThresholdBound;
    std::optional<Rect> window;          // constrained-query session window
    std::vector<PendingEntry> pending;   // descending skyProb; front is next
    std::uint64_t lastNextSeq = 0;       // replay cache: kNextCandidate
    NextCandidateResponse lastNext;
    std::uint64_t lastEvalSeq = 0;       // replay cache: kEvaluate
    EvaluateResponse lastEval;
    /// Session span timeline (null when the query doesn't trace), read
    /// by kFetchTrace before kFinishQuery releases it.
    std::unique_ptr<obs::Tracer> tracer;
  };

  SiteId id_;
  PRTree tree_;
  DimMask fullMask_;
  PRTree::Options treeOptions_;  ///< for the joinSite seal
  Phase phase_ = Phase::kLive;
  /// Streamed tuples awaiting the seal (non-null only while kStaging).
  std::unique_ptr<Dataset> staging_;
  std::uint64_t lastStreamSeq_ = 0;  ///< replay cache: kStreamTuples

  mutable std::mutex mutex_;  // guards sessions_, replica_, tree_ walks
  std::unordered_map<QueryId, Session> sessions_;
  std::vector<ReplicaEntry> replica_;
  std::uint64_t datasetVersion_ = 0;  // mutations applied to tree_

  // Observability (null when no registry is attached).
  obs::Counter* nodeAccesses_ = nullptr;
  obs::Counter* pruned_ = nullptr;
  std::uint64_t flushedAccesses_ = 0;
};

/// Frame dispatcher: decodes requests, invokes the site, encodes responses.
/// The returned handler is what both transports plug into.  Stateless apart
/// from the site pointer, so one server may back any number of channels —
/// thread-safety is the site's (see LocalSite).
class SiteServer {
 public:
  explicit SiteServer(LocalSite& site) : site_(&site) {}

  Frame handle(const Frame& request);

  FrameHandler handler() {
    return [this](const Frame& f) { return handle(f); };
  }

 private:
  LocalSite* site_;
};

}  // namespace dsud
