#include "core/query_engine.hpp"

#include <stdexcept>
#include <utility>

#include "common/stopwatch.hpp"
#include "core/result_cache.hpp"
#include "obs/log.hpp"

namespace dsud {

bool shareEligible(Algo algo, const QueryConfig& config) noexcept {
  // kDominance feedback pruning is lossy and feedback-order dependent: what
  // a site drops depends on which candidates the coordinator broadcast,
  // which depends on q.  kThresholdBound only ever drops candidates whose
  // provable bound is below the session threshold, so a looser run's answer
  // stream is a superset of every tighter run's, in the same order.
  if (config.prune != PruneRule::kThresholdBound) return false;
  // e-DSUD's kPark stalls a site stream while its head is unqualified; how
  // long it stalls depends on q, so the emission order is not q-invariant.
  // kEager keeps every stream flowing and preserves the descending
  // local-probability order regardless of threshold.
  if (algo == Algo::kEdsud && config.expunge == ExpungePolicy::kPark) {
    return false;
  }
  return true;
}

QueryEngine::QueryEngine(Coordinator& coordinator)
    : coord_(&coordinator), batch_(*this, coordinator.metrics()) {}

QueryResult QueryEngine::run(Algo algo, const QueryConfig& config,
                             const QueryOptions& options, QueryId id) {
  if (id == kNoQuery) id = coord_->nextQueryId();
  if (options.batching.enabled && shareEligible(algo, config)) {
    return batch_.run(algo, config, options, id);
  }
  return dispatch(algo, config, options, id);
}

QueryResult QueryEngine::run(const TopKConfig& config,
                             const QueryOptions& options, QueryId id) {
  return topkImpl(config, options,
                  id == kNoQuery ? coord_->nextQueryId() : id);
}

QueryResult QueryEngine::execute(Algo algo, const QueryConfig& config,
                                 const QueryOptions& options, QueryId id) {
  switch (algo) {
    case Algo::kNaive:
      return naiveImpl(config, options, id);
    case Algo::kDsud:
      return dsudImpl(config, options, id);
    case Algo::kEdsud:
      return edsudImpl(config, options, id);
  }
  throw std::invalid_argument("QueryEngine: unknown algorithm");
}

QueryResult QueryEngine::dispatch(Algo algo, const QueryConfig& config,
                                  const QueryOptions& options, QueryId id) {
  ResultCache* cache = cache_;
  if (cache == nullptr || !shareEligible(algo, config)) {
    QueryResult result = execute(algo, config, options, id);
    result.profile.cache = "bypass";
    return result;
  }

  ResultCache::Key key;
  key.datasetVersion = coord_->datasetVersion();
  key.epoch = coord_->membershipEpoch();
  key.algo = algo;
  key.mask = config.effectiveMask(coord_->dims());
  key.prune = config.prune;
  key.bound = config.bound;
  key.expunge = config.expunge;
  key.window = config.window;

  if (auto hit = cache->lookup(key, config.q)) {
    obs::eventLog().emit(LogLevel::kInfo, "cache", "cache.hit",
                         {obs::field("query", id),
                          obs::field("algo", algoName(algo)),
                          obs::field("answers", hit->size())});
    QueryResult result = fromCache(std::move(*hit), options, id);
    result.profile.algo = algoName(algo);
    result.profile.cache = "hit";
    return result;
  }
  obs::eventLog().emit(LogLevel::kDebug, "cache", "cache.miss",
                       {obs::field("query", id),
                        obs::field("algo", algoName(algo))});
  QueryResult result = execute(algo, config, options, id);
  result.profile.cache = "miss";
  // Degraded answers describe a survivor subset, not the cluster; if
  // maintenance landed mid-run the answer may straddle two versions; and if
  // the membership epoch moved the answer belongs to a retired layout.
  // None of those is a safe verdict to replay.
  if (!result.degraded && coord_->datasetVersion() == key.datasetVersion &&
      coord_->membershipEpoch() == key.epoch) {
    cache->insert(key, config.q, result.skyline);
  }
  return result;
}

QueryResult QueryEngine::fromCache(std::vector<GlobalSkylineEntry> entries,
                                   const QueryOptions& options, QueryId id) {
  if (options.cancel != nullptr &&
      options.cancel->load(std::memory_order_relaxed)) {
    throw QueryCancelled(id);
  }
  Stopwatch watch;
  obs::Tracer tracer(options.traceCapacity);
  const obs::SpanId span = tracer.begin("cache_hit");

  QueryResult result;
  result.id = id;
  result.skyline = std::move(entries);
  result.progress.reserve(result.skyline.size());
  for (std::size_t i = 0; i < result.skyline.size(); ++i) {
    // Replayed answers ship no tuples; the progress curve is flat at zero
    // bandwidth, which is exactly the cache's value proposition.
    ProgressPoint point;
    point.reported = i + 1;
    point.seconds = watch.elapsedSeconds();
    result.progress.push_back(point);
    if (options.progress) options.progress(result.skyline[i], point);
  }
  tracer.attr(span, "answers", static_cast<double>(result.skyline.size()));
  tracer.end(span);
  result.trace = tracer.take();
  result.stats.seconds = watch.elapsedSeconds();
  return result;
}

}  // namespace dsud
