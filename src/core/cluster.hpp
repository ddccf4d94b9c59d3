// One-call construction of a complete in-process cluster from a Topology: a
// store (LocalSite + SiteServer + channel pool + RPC handle) for every
// replica of every partition, wired to a Coordinator + QueryEngine through
// the in-process transport with a shared BandwidthMeter.  This is the
// harness used by tests, benches, and most examples.  TcpCluster (below)
// builds the same static cluster over loopback sockets, one server thread
// per site.
//
// Elasticity: the cluster is the wiring layer of the dynamic-membership
// design (docs/ARCHITECTURE.md §13).  `addSite()` / `removeSite()` change
// the member set; `rebalance()` repartitions the database over the current
// members *in the background of the query path* — it gathers every
// partition (falling back to replicas when a host is unreachable), cuts the
// canonical global dataset with the deterministic STR partitioner, streams
// the cuts into fresh staging stores over kStreamTuples, seals them with
// kJoinSite, and atomically installs the next ClusterView.  In-flight query
// sessions pin the epoch they started on and finish against the old stores;
// only new sessions see the new layout.  With replicas >= 2 in the
// Topology, every query session fails over between a partition's stores
// with zero result loss (core/failover.hpp).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/dataset.hpp"
#include "core/coordinator.hpp"
#include "core/local_site.hpp"
#include "core/query_engine.hpp"
#include "core/topology.hpp"
#include "net/chaos.hpp"
#include "net/tcp_transport.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"

namespace dsud {

/// Everything configurable about a cluster, in one immutable bag.
struct ClusterConfig {
  PRTree::Options tree;
  /// Channel-pool capacity per site (`transport.inprocChannelsPerSite`).
  TransportConfig transport;
  /// Per-member circuit breakers shared by every query session.
  CircuitBreakerConfig breaker;
  /// When set, every channel is wrapped in a ChaosChannel driven by one
  /// shared per-member ChaosState — deterministic fault injection for tests
  /// and the chaos bench.  Chaos is keyed by the *hosting* member, so
  /// killing a member fails all stores it hosts while the partitions'
  /// replicas on other members keep serving.
  std::optional<ChaosSpec> chaos;
};

class InProcCluster {
 public:
  /// Builds the whole stack for `topology` (see Topology::uniform /
  /// Topology::fromPartitions).  The topology's seed data is consumed; its
  /// replica factor decides how many stores each partition gets.
  explicit InProcCluster(Topology topology, ClusterConfig config = {});

  InProcCluster(const InProcCluster&) = delete;
  InProcCluster& operator=(const InProcCluster&) = delete;

  Coordinator& coordinator() noexcept { return *coordinator_; }
  /// The query entry point: immutable per-query sessions, safe for any
  /// number of concurrent run calls.
  QueryEngine& engine() noexcept { return *engine_; }
  BandwidthMeter& meter() noexcept { return meter_; }
  /// The registry every layer of this cluster reports into.
  obs::MetricsRegistry& metricsRegistry() noexcept { return metrics_; }
  std::size_t dims() const noexcept { return dims_; }

  /// Partitions in the current layout (== member count).
  std::size_t siteCount() const;
  /// Store of partition `id` (`replica` 0 = primary); throws
  /// std::out_of_range for unknown ids.  SiteId-keyed on purpose: positions
  /// are not stable once sites join and leave.
  LocalSite& site(SiteId id, std::size_t replica = 0);
  /// Stores currently holding partition `id`.
  std::size_t replicaCount(SiteId id) const;

  /// Chaos state of the member `host` when ClusterConfig::chaos is set
  /// (null otherwise) — lets tests kill a member or inspect injected-fault
  /// counts.  States are stable across rebalances: a killed member stays
  /// killed in the next epoch.
  ChaosState* chaos(SiteId host);

  // --- Elastic membership ---------------------------------------------------

  /// Current topology (copy — safe against concurrent admin calls).
  Topology topology() const;
  /// Membership epoch of the current layout.
  std::uint64_t membershipEpoch() const { return coordinator_->membershipEpoch(); }

  /// Admits a new member and returns its id.  The member hosts no data (and
  /// serves no queries) until the next rebalance() spreads partitions onto
  /// it; the epoch bump alone already retires cached answers.
  SiteId addSite();

  /// Retires member `id`: gathers every partition it hosts (from the member
  /// itself, or from a replica when it is unreachable), removes it from the
  /// membership, and rebalances the database over the survivors.  Throws
  /// std::runtime_error when some partition's data is unrecoverable (every
  /// host unreachable) — the membership is then left unchanged.
  void removeSite(SiteId id);

  /// Repartitions the database over the current members (STR cuts of the
  /// canonical gathered dataset) and installs the next epoch.  Runs in the
  /// background of the query path: in-flight sessions finish on the layout
  /// they pinned, new sessions start on the new one, and nothing blocks in
  /// between.  Admin operations serialize against each other.
  void rebalance();

 private:
  /// One replica store: the site, its server, and the coordinator-facing
  /// RPC handle whose channel-pool factory keeps site + server alive for as
  /// long as any topology snapshot (or pinned session) references the
  /// handle.
  struct Store {
    std::shared_ptr<LocalSite> site;
    std::shared_ptr<SiteServer> server;
    std::shared_ptr<SiteHandle> handle;
    SiteId host = kNoSite;
  };

  Store wireStore(std::shared_ptr<LocalSite> site, SiteId host);
  std::shared_ptr<ChaosState> chaosFor(SiteId host);
  /// Publishes stores_ as the coordinator's current ClusterView (epoch =
  /// topology_.epoch()).
  void refreshView();
  /// Canonical global dataset: every partition read from its first
  /// reachable store, merged, sorted by tuple id.
  Dataset gather() const;
  /// STR-cuts `global` over the current members, streams the cuts into
  /// fresh staging stores, seals them, and installs the next epoch.
  void repartition(const Dataset& global);

  std::size_t dims_ = 0;
  BandwidthMeter meter_;
  obs::MetricsRegistry metrics_;
  ClusterConfig config_;

  /// Serializes admin operations (add/remove/rebalance) and guards
  /// topology_ / stores_ / chaos_.  Never taken by the query path.
  mutable std::mutex adminMutex_;
  Topology topology_;
  /// Stores of the current epoch by partition id ([0] = primary).  Retired
  /// epochs' stores live on through the shared_ptr chain view -> handle ->
  /// pool -> factory -> site/server until the last pinned session drops.
  std::map<SiteId, std::vector<Store>> stores_;
  std::unordered_map<SiteId, std::shared_ptr<ChaosState>> chaos_;

  std::unique_ptr<Coordinator> coordinator_;
  std::unique_ptr<QueryEngine> engine_;
};

/// The same protocol over real TCP loopback sockets: per partition a
/// LocalSite, its SiteServer, a TcpSiteServer serving on its own thread,
/// and one connected TcpClientChannel (so each site serialises concurrent
/// sessions on its one connection), all reporting into the cluster's meter
/// and registry.  Static: one epoch, one store per partition, no failover.
/// Answers and counts equal InProcCluster's over the same topology; only
/// the byte totals add kFrameHeaderBytes per frame in each direction.
class TcpCluster {
 public:
  /// Decorates one site's frame handler (fault injection).  A handler that
  /// throws ends that site's server loop, which closes its connection.
  using WrapHandler = std::function<FrameHandler(SiteId, FrameHandler)>;

  /// Builds and connects every site of `topology`, consuming its seed data.
  /// Throws std::invalid_argument for a topology whose seed data is gone
  /// (another cluster consumed it) and for a replica factor above 1.  A
  /// failure partway (a connect that fails, say) stops and joins the
  /// servers already started before it propagates.
  explicit TcpCluster(Topology topology, const WrapHandler& wrap = {});
  /// Engine, then coordinator (closing every channel, which ends each
  /// server loop), then stop() and join.
  ~TcpCluster();

  TcpCluster(const TcpCluster&) = delete;
  TcpCluster& operator=(const TcpCluster&) = delete;

  QueryEngine& engine() noexcept { return *engine_; }
  BandwidthMeter& meter() noexcept { return meter_; }
  obs::MetricsRegistry& metricsRegistry() noexcept { return metrics_; }
  /// Store of partition `id` (ids are the positions 0..m-1); throws
  /// std::out_of_range for unknown ids.
  LocalSite& site(SiteId id) { return *sites_.at(id); }

 private:
  void shutdown() noexcept;

  BandwidthMeter meter_;
  obs::MetricsRegistry metrics_;
  std::vector<std::unique_ptr<LocalSite>> sites_;
  std::vector<std::unique_ptr<SiteServer>> dispatchers_;
  std::vector<std::unique_ptr<TcpSiteServer>> servers_;
  std::vector<std::thread> threads_;
  std::unique_ptr<Coordinator> coordinator_;
  std::unique_ptr<QueryEngine> engine_;
};

}  // namespace dsud
