#include "core/coordinator.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/log.hpp"

namespace dsud {

void sortByGlobalProbability(std::vector<GlobalSkylineEntry>& entries) {
  std::sort(entries.begin(), entries.end(),
            [](const GlobalSkylineEntry& a, const GlobalSkylineEntry& b) {
              if (a.globalSkyProb != b.globalSkyProb) {
                return a.globalSkyProb > b.globalSkyProb;
              }
              return a.tuple.id < b.tuple.id;
            });
}

Coordinator::Coordinator(BandwidthMeter* meter, std::size_t dims,
                         obs::MetricsRegistry* metrics,
                         CircuitBreakerConfig breaker)
    : meter_(meter), dims_(dims), metrics_(metrics), breaker_(breaker) {
  if (metrics_ != nullptr) {
    epochGauge_ = &metrics_->gauge("dsud_membership_epoch");
  }
}

Coordinator::Coordinator(std::vector<std::unique_ptr<SiteHandle>> sites,
                         BandwidthMeter* meter, std::size_t dims,
                         obs::MetricsRegistry* metrics,
                         CircuitBreakerConfig breaker)
    : Coordinator(meter, dims, metrics, breaker) {
  if (sites.empty()) {
    throw std::invalid_argument("Coordinator: at least one site required");
  }
  auto view = std::make_shared<ClusterView>();
  view->partitions.reserve(sites.size());
  for (auto& s : sites) {
    if (!s) throw std::invalid_argument("Coordinator: null site handle");
    ReplicaChain chain;
    chain.partition = s->siteId();
    chain.health.push_back(&healthFor(chain.partition));
    chain.replicas.emplace_back(std::move(s));
    view->partitions.push_back(std::move(chain));
  }
  installView(std::move(view));
}

std::shared_ptr<const ClusterView> Coordinator::view() const {
  std::lock_guard lock(viewMutex_);
  return view_;
}

void Coordinator::installView(std::shared_ptr<const ClusterView> view) {
  if (!view || view->partitions.empty()) {
    throw std::invalid_argument("Coordinator: view needs >= 1 partition");
  }
  for (const ReplicaChain& chain : view->partitions) {
    if (chain.replicas.empty() ||
        chain.replicas.size() != chain.health.size()) {
      throw std::invalid_argument(
          "Coordinator: malformed replica chain for partition " +
          std::to_string(chain.partition));
    }
    for (const auto& r : chain.replicas) {
      if (!r || r->siteId() != chain.partition) {
        throw std::invalid_argument(
            "Coordinator: replica id mismatch for partition " +
            std::to_string(chain.partition));
      }
    }
  }
  if (epochGauge_ != nullptr) {
    epochGauge_->set(static_cast<double>(view->epoch));
  }
  obs::eventLog().emit(
      LogLevel::kInfo, "topology", "topology.install",
      {obs::field("epoch", view->epoch),
       obs::field("partitions", view->partitions.size())});
  std::lock_guard lock(viewMutex_);
  view_ = std::move(view);
}

SiteHealth& Coordinator::healthFor(SiteId host) {
  std::lock_guard lock(healthMutex_);
  auto& slot = health_[host];
  if (!slot) {
    slot = std::make_unique<SiteHealth>(host, breaker_, metrics_);
  }
  return *slot;
}

const ReplicaChain& Coordinator::chainById(const ClusterView& view,
                                           SiteId id) const {
  for (const ReplicaChain& chain : view.partitions) {
    if (chain.partition == id) return chain;
  }
  throw std::out_of_range("Coordinator: unknown site id " +
                          std::to_string(id));
}

SiteHandle& Coordinator::siteById(SiteId id) {
  return *chainById(*view(), id).replicas[0];
}

void Coordinator::noteSiteVersion(SiteId site, std::uint64_t version) {
  std::lock_guard lock(versionMutex_);
  std::uint64_t& seen = siteVersions_[site];
  if (version <= seen) return;  // replayed or stale stamp
  datasetVersion_.fetch_add(version - seen, std::memory_order_acq_rel);
  seen = version;
}

void Coordinator::resetSiteVersions() {
  std::lock_guard lock(versionMutex_);
  siteVersions_.clear();
}

ApplyInsertResponse Coordinator::applyInsert(SiteId site,
                                             const ApplyInsertRequest& r) {
  const auto view = this->view();
  const ReplicaChain& chain = chainById(*view, site);
  ApplyInsertResponse response = chain.replicas[0]->applyInsert(r);
  for (std::size_t i = 1; i < chain.replicas.size(); ++i) {
    chain.replicas[i]->applyInsert(r);  // keep replica stores bit-identical
  }
  noteSiteVersion(site, response.datasetVersion);
  return response;
}

ApplyDeleteResponse Coordinator::applyDelete(SiteId site,
                                             const ApplyDeleteRequest& r) {
  const auto view = this->view();
  const ReplicaChain& chain = chainById(*view, site);
  ApplyDeleteResponse response = chain.replicas[0]->applyDelete(r);
  for (std::size_t i = 1; i < chain.replicas.size(); ++i) {
    chain.replicas[i]->applyDelete(r);  // keep replica stores bit-identical
  }
  noteSiteVersion(site, response.datasetVersion);
  return response;
}

}  // namespace dsud
