// e-DSUD (paper Sec. 5.2).
//
// Like DSUD, but the coordinator additionally maintains, for every queued
// candidate s, an upper bound P*_gsky(s) on its exact global skyline
// probability (see core/bound_queue.hpp for the Observation-2 / Corollary-2
// witness machinery).  A candidate whose bound falls below q is *expunged*
// without its (m−1)-tuple broadcast — the source of e-DSUD's bandwidth
// advantage over DSUD.  Two scheduling policies are provided:
//
//   kEager (default): expunge immediately (sweep to a fixpoint each round),
//   keeping every site stream flowing so strong pruners reach the
//   coordinator early;
//
//   kPark (the paper's Sec. 5.3 walkthrough): stall sub-threshold
//   candidates — and their sites — until no broadcastable candidate
//   remains; the stalled streams may be pruned site-side for free.
//
// Feedback selection among qualified candidates is by largest local skyline
// probability (the strongest pruners first); see DESIGN.md 3.4 and the A2
// ablation for why this beats selection by the bound itself.
#include "core/query_engine.hpp"
#include "core/query_run.hpp"

namespace dsud {

QueryResult QueryEngine::edsudImpl(const QueryConfig& config,
                                   const QueryOptions& options, QueryId id) {
  internal::QueryRun run(*coord_, "edsud", options, id);
  const DimMask mask = config.effectiveMask(coord_->dims());
  run.boundQueueLoop(
      {run.id, config.q, mask, config.prune, config.window}, config.bound,
      /*sweep=*/config.expunge == ExpungePolicy::kEager,
      [&] { return config.q; },
      [&](const Candidate& c, double globalSkyProb) {
        if (globalSkyProb >= config.q) run.emit(c, globalSkyProb);
      });
  return run.finalize();
}

}  // namespace dsud
