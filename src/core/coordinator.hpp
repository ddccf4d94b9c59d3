// The central server H (paper Sec. 3–5).
//
// A Coordinator owns the cluster-wide services every query shares — the
// bandwidth meter, the metrics registry, the query-id allocator, the
// per-member circuit breakers — plus the current *topology snapshot*: an
// immutable ClusterView naming, for every partition, the session handles of
// its k replica stores.  Queries themselves run through QueryEngine
// (core/query_engine.hpp), which opens an immutable per-query session over
// the pinned snapshot — N sessions execute concurrently without touching
// coordinator state.
//
// Elastic membership: InProcCluster (or any other wiring layer) installs a
// new ClusterView whenever sites join, leave, or a rebalance completes.
// Installation is atomic; in-flight sessions keep the shared_ptr of the
// snapshot they started on, so the stores of a retired epoch stay reachable
// until the last pinned session releases them.  The membership epoch is
// folded into the result-cache key, retiring cached answers of older
// layouts by construction.
//
// Thread-safety contract: `view()`, `installView()`, `healthFor()`,
// `nextQueryId()`, `datasetVersion()`, and `membershipEpoch()` are fully
// thread-safe.  The positional accessors (`siteCount()`, `site()`,
// `siteById()`, `health()`) read the *current* view and hand out references
// into it; they are safe against concurrent queries, but callers must not
// hold them across a membership change (update maintenance and admin
// operations are sequential by contract — see docs/ARCHITECTURE.md §9).
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/health.hpp"
#include "core/result.hpp"
#include "core/site_handle.hpp"
#include "net/bandwidth.hpp"
#include "obs/metrics.hpp"

namespace dsud {

/// One partition's replica chain inside a topology snapshot: the shared
/// session factories of its stores (primary first) and, parallel to them,
/// the circuit breaker of each hosting member.  All replicas share the
/// partition's SiteId and hold bit-identical data, which is what makes
/// failover answer-preserving.
struct ReplicaChain {
  SiteId partition = kNoSite;
  std::vector<std::shared_ptr<SiteHandle>> replicas;  ///< [0] = primary
  /// Breakers of the hosting members (owned by the coordinator, stable
  /// across epochs so consecutive failures accumulate through rebalances).
  std::vector<SiteHealth*> health;
};

/// Immutable snapshot of the cluster layout at one membership epoch.
/// Partitions are ordered by id; the order fixes the survival-product
/// reduction order, so two clusters with equal views answer bit-identically.
struct ClusterView {
  std::uint64_t epoch = 1;
  std::vector<ReplicaChain> partitions;
};

class Coordinator {
 public:
  /// Topology-less construction: services only.  `installView` must run
  /// before the first query.  `meter` and `metrics` may be null (no
  /// bandwidth accounting / no instruments) and must outlive the
  /// coordinator; `breaker` configures every per-member circuit breaker.
  Coordinator(BandwidthMeter* meter, std::size_t dims,
              obs::MetricsRegistry* metrics = nullptr,
              CircuitBreakerConfig breaker = {});

  /// Static single-epoch construction from one handle per partition (no
  /// replicas, no elasticity) — the TCP wiring and handle-level tests use
  /// this; InProcCluster builds views itself.
  Coordinator(std::vector<std::unique_ptr<SiteHandle>> sites,
              BandwidthMeter* meter, std::size_t dims,
              obs::MetricsRegistry* metrics = nullptr,
              CircuitBreakerConfig breaker = {});

  std::size_t dims() const noexcept { return dims_; }
  BandwidthMeter* meter() const noexcept { return meter_; }
  obs::MetricsRegistry* metrics() const noexcept { return metrics_; }

  // --- Topology snapshots ----------------------------------------------------

  /// Pins the current topology snapshot.  Query sessions hold the returned
  /// pointer for their whole run; a concurrent rebalance installs the next
  /// epoch without invalidating it.
  std::shared_ptr<const ClusterView> view() const;

  /// Atomically replaces the topology snapshot (membership change or
  /// completed rebalance).  The view must be non-empty and well-formed.
  void installView(std::shared_ptr<const ClusterView> view);

  /// Membership epoch of the current view — folded into the result-cache
  /// key so answers can never outlive the layout they were computed on.
  std::uint64_t membershipEpoch() const { return view()->epoch; }

  /// Circuit breaker of the member hosting stores under `host`, created on
  /// first use and stable across epochs.  Thread-safe.
  SiteHealth& healthFor(SiteId host);

  // --- Positional accessors over the current view ---------------------------

  std::size_t siteCount() const { return view()->partitions.size(); }
  /// Primary handle of the partition at `index` in the current view.
  SiteHandle& site(std::size_t index) { return *view()->partitions[index].replicas[0]; }
  /// Primary handle by partition id; throws std::out_of_range when unknown.
  SiteHandle& siteById(SiteId id);
  /// Breaker of the member primarily hosting the partition at `index`.
  SiteHealth& health(std::size_t index) { return *view()->partitions[index].health[0]; }

  /// Allocates the next session id (thread-safe; ids start at 1 — 0 is the
  /// wire protocol's session-less id).
  QueryId nextQueryId() noexcept {
    return nextId_.fetch_add(1, std::memory_order_relaxed);
  }

  // --- Dataset versioning (result-cache invalidation) -----------------------

  /// Combined dataset version of the cluster as last reported by the sites:
  /// the sum of the per-site mutation counters piggybacked on maintenance
  /// responses (Sec. 5.4 traffic).  0 until the first update; monotone
  /// thereafter.  The result cache keys on this value *and* the membership
  /// epoch, so an update or a layout change retires every cached verdict
  /// computed over the previous database.  Thread-safe.
  std::uint64_t datasetVersion() const noexcept {
    return datasetVersion_.load(std::memory_order_acquire);
  }

  /// Folds a per-site version stamp into the combined dataset version.
  /// Idempotent per (site, version): replaying a stamp never double-counts.
  /// Thread-safe, though maintenance itself is sequential by contract.
  void noteSiteVersion(SiteId site, std::uint64_t version);

  /// Forgets the per-site version stamps.  A rebalance replaces every store
  /// with a fresh one whose mutation counter restarts at zero; without the
  /// reset, post-rebalance updates would compare as stale against the old
  /// stamps and never advance the combined version.  The combined version
  /// itself is untouched (monotone), and the epoch change already retired
  /// the old cache entries.
  void resetSiteVersions();

  /// Maintenance ops routed through the coordinator so the response's
  /// version stamp is folded in before the caller acts on it — use these
  /// instead of siteById(id).applyInsert/applyDelete whenever a result
  /// cache may be attached to an engine over this coordinator.  The
  /// mutation is applied to *every* replica of the partition (same data on
  /// every host is the failover invariant); the primary's response wins.
  ApplyInsertResponse applyInsert(SiteId site, const ApplyInsertRequest& r);
  ApplyDeleteResponse applyDelete(SiteId site, const ApplyDeleteRequest& r);

 private:
  const ReplicaChain& chainById(const ClusterView& view, SiteId id) const;

  BandwidthMeter* meter_;
  std::size_t dims_;
  obs::MetricsRegistry* metrics_ = nullptr;
  CircuitBreakerConfig breaker_;
  std::atomic<QueryId> nextId_{1};

  mutable std::mutex viewMutex_;  // guards view_ swaps (reads copy the ptr)
  std::shared_ptr<const ClusterView> view_;
  obs::Gauge* epochGauge_ = nullptr;

  std::mutex healthMutex_;  // guards health_ (breaker registry by member)
  std::unordered_map<SiteId, std::unique_ptr<SiteHealth>> health_;

  std::atomic<std::uint64_t> datasetVersion_{0};
  std::mutex versionMutex_;  // guards siteVersions_
  std::unordered_map<SiteId, std::uint64_t> siteVersions_;
};

}  // namespace dsud
