#include "core/cluster.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>
#include <utility>

#include "gen/partition.hpp"
#include "net/channel_pool.hpp"
#include "net/inproc_transport.hpp"
#include "obs/log.hpp"

namespace dsud {

namespace {
/// Tuples per kStreamTuples frame during a rebalance — large enough to
/// amortize round trips, small enough that repartition traffic interleaves
/// with query RPCs on the shared channel pools.
constexpr std::size_t kStreamBatch = 512;

/// Bound on each TcpCluster connect.  The site listens before its channel
/// connects, so the handshake completes at once; the bound turns a broken
/// loopback into a NetTimeout instead of a hang.
constexpr std::chrono::milliseconds kConnectTimeout{2000};

/// The topology's per-partition seed data.  Throws std::invalid_argument
/// when there is none to build from: a topology whose data a cluster
/// already consumed.
std::vector<Dataset> takeSeed(Topology& topology, const char* who) {
  std::vector<Dataset> seed = topology.takeSeedData();
  if (seed.empty()) {
    throw std::invalid_argument(std::string(who) +
                                ": topology holds no seed data");
  }
  return seed;
}
}  // namespace

InProcCluster::InProcCluster(Topology topology, ClusterConfig config)
    : config_(std::move(config)), topology_(std::move(topology)) {
  dims_ = topology_.dims();
  coordinator_ = std::make_unique<Coordinator>(&meter_, dims_, &metrics_,
                                               config_.breaker);
  std::vector<Dataset> seed = takeSeed(topology_, "InProcCluster");
  const std::vector<PartitionDesc> parts = topology_.partitions();
  for (std::size_t i = 0; i < parts.size(); ++i) {
    std::vector<Store>& chain = stores_[parts[i].id];
    for (const SiteId host : parts[i].hosts) {
      chain.push_back(wireStore(
          std::make_shared<LocalSite>(parts[i].id, seed[i], config_.tree),
          host));
    }
  }
  refreshView();
  engine_ = std::make_unique<QueryEngine>(*coordinator_);
}

std::shared_ptr<ChaosState> InProcCluster::chaosFor(SiteId host) {
  if (!config_.chaos) return nullptr;
  auto& slot = chaos_[host];
  if (slot == nullptr) {
    slot = std::make_shared<ChaosState>(*config_.chaos, host);
  }
  return slot;
}

InProcCluster::Store InProcCluster::wireStore(std::shared_ptr<LocalSite> site,
                                              SiteId host) {
  Store store;
  store.site = std::move(site);
  store.host = host;
  store.site->setMetrics(&metrics_);
  store.server = std::make_shared<SiteServer>(*store.site);
  const SiteId partition = store.site->id();
  // The factory captures the site and server by shared_ptr: any pinned
  // topology snapshot keeps its stores alive through handle -> pool ->
  // factory even after the cluster has moved on to a newer epoch.
  auto pool = std::make_shared<ChannelPool>(
      [partition, site = store.site, server = store.server, meter = &meter_,
       metrics = &metrics_, chaos = chaosFor(host)] {
        auto channel = std::make_unique<InProcChannel>(server->handler());
        channel->bindAccounting(partition, meter, metrics);
        std::unique_ptr<ClientChannel> out = std::move(channel);
        if (chaos != nullptr) {
          out = std::make_unique<ChaosChannel>(std::move(out), chaos, metrics);
        }
        return out;
      },
      config_.transport.inprocChannelsPerSite);
  store.handle =
      std::make_shared<RpcSiteHandle>(partition, std::move(pool), &meter_);
  return store;
}

void InProcCluster::refreshView() {
  auto view = std::make_shared<ClusterView>();
  view->epoch = topology_.epoch();
  view->partitions.reserve(stores_.size());
  for (const auto& [partition, chain] : stores_) {
    ReplicaChain out;
    out.partition = partition;
    for (const Store& s : chain) {
      out.replicas.push_back(s.handle);
      out.health.push_back(&coordinator_->healthFor(s.host));
    }
    view->partitions.push_back(std::move(out));
  }
  coordinator_->installView(std::move(view));
}

std::size_t InProcCluster::siteCount() const {
  std::lock_guard lock(adminMutex_);
  return stores_.size();
}

LocalSite& InProcCluster::site(SiteId id, std::size_t replica) {
  std::lock_guard lock(adminMutex_);
  return *stores_.at(id).at(replica).site;
}

std::size_t InProcCluster::replicaCount(SiteId id) const {
  std::lock_guard lock(adminMutex_);
  return stores_.at(id).size();
}

ChaosState* InProcCluster::chaos(SiteId host) {
  std::lock_guard lock(adminMutex_);
  const auto it = chaos_.find(host);
  return it == chaos_.end() ? nullptr : it->second.get();
}

Topology InProcCluster::topology() const {
  std::lock_guard lock(adminMutex_);
  return topology_;
}

SiteId InProcCluster::addSite() {
  std::lock_guard lock(adminMutex_);
  const SiteId id = topology_.addSite();
  // Layout unchanged until the next rebalance, but the epoch bump must be
  // visible now: it retires cached answers and stamps new sessions.
  refreshView();
  obs::eventLog().emit(LogLevel::kInfo, "topology", "topology.join",
                       {obs::field("site", id),
                        obs::field("epoch", topology_.epoch()),
                        obs::field("members", topology_.members().size())});
  return id;
}

void InProcCluster::removeSite(SiteId id) {
  std::lock_guard lock(adminMutex_);
  if (!topology_.isMember(id)) {
    throw std::out_of_range("InProcCluster: unknown member " +
                            std::to_string(id));
  }
  // Gather before touching the membership: when a partition turns out to be
  // unrecoverable this throws and the cluster keeps its current state.
  Dataset global = gather();
  topology_.removeSite(id);
  repartition(global);
  obs::eventLog().emit(LogLevel::kInfo, "topology", "topology.leave",
                       {obs::field("site", id),
                        obs::field("epoch", topology_.epoch()),
                        obs::field("members", topology_.members().size())});
}

void InProcCluster::rebalance() {
  std::lock_guard lock(adminMutex_);
  repartition(gather());
  obs::eventLog().emit(LogLevel::kInfo, "topology", "topology.rebalance",
                       {obs::field("epoch", topology_.epoch()),
                        obs::field("members", topology_.members().size())});
}

Dataset InProcCluster::gather() const {
  std::vector<Tuple> tuples;
  for (const auto& [partition, chain] : stores_) {
    bool read = false;
    for (const Store& s : chain) {
      try {
        ShipAllResponse response = s.handle->shipAll();
        tuples.reserve(tuples.size() + response.tuples.size());
        std::move(response.tuples.begin(), response.tuples.end(),
                  std::back_inserter(tuples));
        read = true;
        break;
      } catch (const NetError&) {
        // Host unreachable: fall back to the next replica.
      }
    }
    if (!read) {
      throw std::runtime_error("InProcCluster: partition " +
                               std::to_string(partition) +
                               " unrecoverable: every replica unreachable");
    }
  }
  // Canonical order: the gathered dataset (and therefore every STR cut) is
  // a pure function of the tuple set, independent of which replica served
  // each partition or how earlier epochs had cut the data.
  std::sort(tuples.begin(), tuples.end(),
            [](const Tuple& a, const Tuple& b) { return a.id < b.id; });
  Dataset global(dims_);
  global.reserve(tuples.size());
  for (const Tuple& t : tuples) global.add(t);
  return global;
}

void InProcCluster::repartition(const Dataset& global) {
  const std::size_t members = topology_.members().size();
  std::vector<Dataset> cuts = partitionSTR(global, members);
  std::vector<PartitionDesc> descs = topology_.placement(members);
  const std::uint64_t nextEpoch = topology_.epoch() + 1;

  // Build and seed the next epoch's stores while the current ones keep
  // serving queries.  A host that fails mid-stream loses its store only;
  // the partition survives on its other hosts.
  std::map<SiteId, std::vector<Store>> fresh;
  for (std::size_t i = 0; i < descs.size(); ++i) {
    std::vector<Store>& chain = fresh[descs[i].id];
    for (const SiteId host : descs[i].hosts) {
      Store store = wireStore(
          std::make_shared<LocalSite>(descs[i].id, dims_, config_.tree),
          host);
      try {
        StreamTuplesRequest batch;
        batch.partition = descs[i].id;
        for (std::size_t row = 0; row < cuts[i].size();) {
          batch.tuples.clear();
          for (std::size_t n = 0; n < kStreamBatch && row < cuts[i].size();
               ++n, ++row) {
            batch.tuples.push_back(cuts[i].tuple(row));
          }
          store.handle->streamTuples(batch);
        }
        store.handle->joinSite(JoinSiteRequest{nextEpoch});
        chain.push_back(std::move(store));
      } catch (const NetError&) {
        // Dropped from the chain; queries fail over to the other hosts.
      }
    }
    if (chain.empty()) {
      throw std::runtime_error("InProcCluster: no reachable host to seed "
                               "partition " + std::to_string(descs[i].id));
    }
  }

  topology_.installPartitions(std::move(descs));
  std::map<SiteId, std::vector<Store>> retired = std::move(stores_);
  stores_ = std::move(fresh);
  refreshView();
  // The fresh stores' mutation counters restart at zero; forget the old
  // stamps so post-rebalance updates fold into the combined version again.
  coordinator_->resetSiteVersions();

  // Drain the retired stores (best-effort: new sessions are already routed
  // to the new epoch, and pinned in-flight sessions finish regardless).
  for (auto& [partition, chain] : retired) {
    for (Store& s : chain) {
      try {
        s.handle->leaveSite(LeaveSiteRequest{nextEpoch});
      } catch (...) {
      }
    }
  }
}

TcpCluster::TcpCluster(Topology topology, const WrapHandler& wrap) {
  if (topology.replicaFactor() > 1) {
    throw std::invalid_argument(
        "TcpCluster: one store per partition (no failover wiring); got "
        "replica factor " + std::to_string(topology.replicaFactor()));
  }
  std::vector<Dataset> seed = takeSeed(topology, "TcpCluster");
  const std::vector<PartitionDesc>& parts = topology.partitions();
  std::vector<std::unique_ptr<SiteHandle>> handles;
  try {
    for (std::size_t i = 0; i < parts.size(); ++i) {
      const SiteId id = parts[i].id;
      sites_.push_back(std::make_unique<LocalSite>(id, std::move(seed[i])));
      sites_.back()->setMetrics(&metrics_);
      dispatchers_.push_back(std::make_unique<SiteServer>(*sites_.back()));
      FrameHandler handler = dispatchers_.back()->handler();
      if (wrap) handler = wrap(id, std::move(handler));
      servers_.push_back(std::make_unique<TcpSiteServer>(std::move(handler)));
      // Connect before serving: the listener queues the connection, so a
      // started server always has a peer whose close ends its loop.
      auto channel = std::make_unique<TcpClientChannel>(
          servers_.back()->port(), TcpSocketOptions{kConnectTimeout});
      channel->bindAccounting(id, &meter_, &metrics_);
      handles.push_back(
          std::make_unique<RpcSiteHandle>(id, std::move(channel), &meter_));
      threads_.emplace_back([server = servers_.back().get()] {
        try {
          server->serve();
        } catch (const std::exception&) {
          // The handler threw (a stopped site) or the reply met a closed
          // connection: the loop is over, and the client reports it as a
          // NetError on its next read.
        }
      });
    }
    coordinator_ = std::make_unique<Coordinator>(
        std::move(handles), &meter_, topology.dims(), &metrics_);
    engine_ = std::make_unique<QueryEngine>(*coordinator_);
  } catch (...) {
    handles.clear();  // closes the channels connected so far
    shutdown();
    throw;
  }
}

TcpCluster::~TcpCluster() { shutdown(); }

void TcpCluster::shutdown() noexcept {
  engine_.reset();
  coordinator_.reset();
  for (auto& server : servers_) server->stop();
  for (auto& thread : threads_) thread.join();
}

}  // namespace dsud
