// Top-k probabilistic skyline over distributed uncertain data.
//
// An extension in the spirit of the representative-skyline work the paper
// cites ([4]): instead of a fixed threshold q, report the k tuples with the
// largest global skyline probability.  The machinery is e-DSUD's — sorted
// To-Server access, Observation-2/Corollary-2 bounds, expunging — driven by
// an *adaptive* threshold τ: the k-th best confirmed probability so far
// (the floor `floorQ` until k candidates are confirmed).  τ only grows, so
// every expunge stays provably safe; when the queue drains, no unseen or
// expunged tuple can beat the k-th answer.
//
// Sites enumerate their local skylines down to floorQ, which bounds the
// search: the result is exact whenever at least k tuples have
// P_gsky >= floorQ (P_gsky <= local P_sky, Corollary 1, so nothing below
// the floor locally can reach it globally).
#include "core/query_engine.hpp"
#include "core/query_run.hpp"

namespace dsud {

QueryResult QueryEngine::topkImpl(const TopKConfig& config,
                                  const QueryOptions& options, QueryId id) {
  if (config.k == 0) {
    throw std::invalid_argument("top-k: k must be >= 1");
  }
  if (!(config.floorQ > 0.0) || config.floorQ > 1.0) {
    throw std::invalid_argument("top-k: floorQ must be in (0, 1]");
  }

  internal::QueryRun run(*coord_, "topk", options, id);
  const DimMask mask = config.effectiveMask(coord_->dims());

  // Current best-k, kept sorted descending by probability (k is small).
  std::vector<GlobalSkylineEntry> top;
  run.boundQueueLoop(
      {run.id, config.floorQ, mask, PruneRule::kThresholdBound,
       config.window},
      FeedbackBound::kQueuedAndConfirmed, /*sweep=*/true,
      [&] {
        return top.size() < config.k ? config.floorQ
                                     : top.back().globalSkyProb;
      },
      [&](const Candidate& c, double globalSkyProb) {
        // Admission: above the floor (the contract's universe) and either
        // the top list is not full yet or the candidate beats the k-th.
        if (globalSkyProb >= config.floorQ &&
            (top.size() < config.k ||
             globalSkyProb > top.back().globalSkyProb)) {
          top.push_back({c.site, c.tuple, c.localSkyProb, globalSkyProb});
          sortByGlobalProbability(top);
          if (top.size() > config.k) top.pop_back();
        }
      });
  run.result.skyline = std::move(top);
  return run.finalize();
}

}  // namespace dsud
