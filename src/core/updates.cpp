#include "core/updates.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

#include "common/stopwatch.hpp"

namespace dsud {
namespace {

/// Meter/clock bracket for one update.  Measures cost as a global-meter
/// delta, which is only exact while nothing else uses the links — part of
/// the maintainer's no-concurrent-queries contract.
class UpdateScope {
 public:
  UpdateScope(Coordinator& coordinator, UpdateStats& stats)
      : coordinator_(coordinator), stats_(stats) {
    if (coordinator_.meter() != nullptr) {
      baseline_ = coordinator_.meter()->totals();
    }
  }

  ~UpdateScope() {
    stats_.seconds = watch_.elapsedSeconds();
    if (coordinator_.meter() != nullptr) {
      const UsageTotals now = coordinator_.meter()->totals();
      stats_.tuplesShipped = now.tuples - baseline_.tuples;
      stats_.bytesShipped = now.bytes - baseline_.bytes;
    }
  }

 private:
  Coordinator& coordinator_;
  UpdateStats& stats_;
  UsageTotals baseline_;
  Stopwatch watch_;
};

/// Exact P_gsky of `c` (Lemma 1): broadcasts its tuple to every partition
/// but its origin, session-less (QueryId 0) and without local pruning, and
/// multiplies the survival factors onto its local probability.  The
/// maintenance twin of a query's broadcast (internal::QueryRun).
double evaluateGlobally(Coordinator& coordinator, const Candidate& c,
                        DimMask mask) {
  const auto view = coordinator.view();
  double globalSkyProb = c.localSkyProb;
  const EvaluateRequest request{kNoQuery, c.tuple, mask,
                                /*pruneLocal=*/false, std::nullopt};
  for (const ReplicaChain& chain : view->partitions) {
    if (chain.partition == c.site) continue;
    globalSkyProb *= chain.replicas[0]->evaluate(request).survival;
  }
  return globalSkyProb;
}

}  // namespace

SkylineMaintainer::SkylineMaintainer(Coordinator& coordinator,
                                     QueryConfig config,
                                     MaintenanceStrategy strategy)
    : coordinator_(coordinator), engine_(coordinator),
      config_(std::move(config)), strategy_(strategy) {
  if (config_.window.has_value()) {
    throw std::invalid_argument(
        "SkylineMaintainer: constrained (windowed) queries are one-shot; "
        "maintenance supports full-space configurations only");
  }
}

QueryResult SkylineMaintainer::initialize() {
  QueryResult result = engine_.run(Algo::kEdsud, config_);
  sky_.clear();
  for (const GlobalSkylineEntry& e : result.skyline) {
    sky_.emplace(e.tuple.id, e);
  }
  if (strategy_ == MaintenanceStrategy::kIncremental) installReplicas();
  initialized_ = true;
  return result;
}

void SkylineMaintainer::installReplicas() {
  for (const auto& [id, entry] : sky_) {
    ReplicaAddRequest request;
    request.entry = Candidate{entry.site, entry.tuple, entry.localSkyProb};
    request.globalSkyProb = entry.globalSkyProb;
    for (std::size_t i = 0; i < coordinator_.siteCount(); ++i) {
      coordinator_.site(i).replicaAdd(request);
    }
  }
}

UpdateStats SkylineMaintainer::apply(const UpdateEvent& event) {
  if (!initialized_) {
    throw std::logic_error("SkylineMaintainer: initialize() before apply()");
  }
  return strategy_ == MaintenanceStrategy::kIncremental
             ? applyIncremental(event)
             : applyNaive(event);
}

UpdateStats SkylineMaintainer::applyNaive(const UpdateEvent& event) {
  UpdateStats stats;
  UpdateScope scope(coordinator_, stats);

  // Apply the raw update, then recompute from scratch (paper's strawman).
  if (event.kind == UpdateEvent::Kind::kInsert) {
    coordinator_.applyInsert(event.site, ApplyInsertRequest{event.tuple});
  } else {
    coordinator_.applyDelete(
        event.site, ApplyDeleteRequest{event.tuple.id, event.tuple.values});
  }

  const QueryResult result = engine_.run(Algo::kEdsud, config_);
  std::unordered_map<TupleId, GlobalSkylineEntry> fresh;
  for (const GlobalSkylineEntry& e : result.skyline) {
    fresh.emplace(e.tuple.id, e);
  }
  stats.broadcasts = result.stats.broadcasts;
  stats.skylineChanged = fresh.size() != sky_.size() ||
                         !std::all_of(fresh.begin(), fresh.end(),
                                      [&](const auto& kv) {
                                        return sky_.contains(kv.first);
                                      });
  sky_ = std::move(fresh);
  return stats;
}

UpdateStats SkylineMaintainer::applyIncremental(const UpdateEvent& event) {
  UpdateStats stats;
  UpdateScope scope(coordinator_, stats);
  if (event.kind == UpdateEvent::Kind::kInsert) {
    incrementalInsert(event, stats);
  } else {
    incrementalDelete(event, stats);
  }
  return stats;
}

void SkylineMaintainer::addSkyline(const Candidate& c, double globalSkyProb) {
  GlobalSkylineEntry entry;
  entry.site = c.site;
  entry.tuple = c.tuple;
  entry.localSkyProb = c.localSkyProb;
  entry.globalSkyProb = globalSkyProb;
  sky_[c.tuple.id] = std::move(entry);

  ReplicaAddRequest request{c, globalSkyProb};
  for (std::size_t i = 0; i < coordinator_.siteCount(); ++i) {
    coordinator_.site(i).replicaAdd(request);
  }
}

void SkylineMaintainer::removeSkyline(TupleId id) {
  sky_.erase(id);
  const ReplicaRemoveRequest request{id};
  for (std::size_t i = 0; i < coordinator_.siteCount(); ++i) {
    coordinator_.site(i).replicaRemove(request);
  }
}

void SkylineMaintainer::incrementalInsert(const UpdateEvent& event,
                                          UpdateStats& stats) {
  const Tuple& t = event.tuple;
  const ApplyInsertResponse response =
      coordinator_.applyInsert(event.site, ApplyInsertRequest{t});

  // Exact, network-free rescale of dominated skyline members: the new tuple
  // multiplies their global probability by (1 − P(t)).
  for (const TupleId id : response.dominatedReplica) {
    auto it = sky_.find(id);
    if (it == sky_.end()) continue;
    it->second.globalSkyProb *= 1.0 - t.prob;
    if (it->second.globalSkyProb < config_.q) {
      removeSkyline(id);
      stats.skylineChanged = true;
    }
  }

  // The new tuple itself joins only when its provable bound reaches q.
  if (response.globalUpperBound >= config_.q) {
    const Candidate c{event.site, t, response.localSkyProb};
    const double globalSkyProb = evaluateGlobally(
        coordinator_, c, config_.effectiveMask(coordinator_.dims()));
    ++stats.broadcasts;
    if (globalSkyProb >= config_.q) {
      addSkyline(c, globalSkyProb);
      stats.skylineChanged = true;
    }
  }
}

void SkylineMaintainer::incrementalDelete(const UpdateEvent& event,
                                          UpdateStats& stats) {
  const ApplyDeleteResponse response = coordinator_.applyDelete(
      event.site, ApplyDeleteRequest{event.tuple.id, event.tuple.values});
  if (!response.existed) return;

  const Tuple deleted{event.tuple.id, event.tuple.values, response.prob};

  if (sky_.contains(deleted.id)) {
    removeSkyline(deleted.id);
    stats.skylineChanged = true;
  }

  // Surviving members the deleted tuple used to dominate regain the
  // (1 − P(t)) factor; exact and network-free.  (P(t) = 1 cannot occur here:
  // such a dominator forces every dominated probability to zero.)
  const DimMask mask = config_.effectiveMask(deleted.values.size());
  if (deleted.prob < 1.0) {
    for (auto& [id, entry] : sky_) {
      if (dominates(deleted.values, entry.tuple.values, mask)) {
        entry.globalSkyProb /= 1.0 - deleted.prob;
      }
    }
  }

  // Promotion repair: previously unqualified tuples dominated by the deleted
  // tuple may now pass q; every site searches that region.
  std::vector<Candidate> candidates;
  std::unordered_set<TupleId> seen;
  for (std::size_t i = 0; i < coordinator_.siteCount(); ++i) {
    RepairDeleteResponse repair = coordinator_.site(i).repairDelete(
        RepairDeleteRequest{deleted, event.site, config_.q, mask});
    ++stats.broadcasts;
    for (Candidate& c : repair.candidates) {
      if (sky_.contains(c.tuple.id)) continue;
      if (!seen.insert(c.tuple.id).second) continue;
      candidates.push_back(std::move(c));
    }
  }
  for (const Candidate& c : candidates) {
    const double globalSkyProb = evaluateGlobally(coordinator_, c, mask);
    ++stats.broadcasts;
    if (globalSkyProb >= config_.q) {
      addSkyline(c, globalSkyProb);
      stats.skylineChanged = true;
    }
  }
}

std::vector<GlobalSkylineEntry> SkylineMaintainer::skyline() const {
  std::vector<GlobalSkylineEntry> result;
  result.reserve(sky_.size());
  for (const auto& [id, entry] : sky_) result.push_back(entry);
  sortByGlobalProbability(result);
  return result;
}

}  // namespace dsud
