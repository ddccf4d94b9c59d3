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
#include <algorithm>

#include "core/bound_queue.hpp"
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
  QueryStats& stats = run.result.stats;
  const DimMask mask = config.effectiveMask(coord_->dims());
  const PrepareRequest prep{run.id, config.floorQ, mask,
                            PruneRule::kThresholdBound, config.window};
  const NextCandidateRequest cursor{run.id};

  internal::BoundQueue queue(mask, FeedbackBound::kQueuedAndConfirmed);
  const auto pullFrom = [&](SiteId site) {
    if (auto next = run.pull(site, cursor, stats)) {
      queue.add(std::move(*next));
    }
  };

  {
    obs::TraceSpan prepare = run.span("prepare");
    run.prepareAll(prep);
    for (const auto& s : run.sessions) {
      pullFrom(s->siteId());
    }
  }

  // Current best-k, kept sorted descending by probability (k is small).
  std::vector<GlobalSkylineEntry> top;
  const auto threshold = [&]() {
    return top.size() < config.k ? config.floorQ
                                 : top.back().globalSkyProb;
  };

  while (!queue.empty()) {
    const auto round = run.roundScope();

    // Purge candidates from sites that died mid-query (see edsud.cpp).
    if (!run.dead.empty()) {
      for (std::size_t i = 0; i < queue.size();) {
        if (run.isDead(queue.candidate(i).site)) {
          queue.take(i);
        } else {
          ++i;
        }
      }
      if (queue.empty()) break;
    }

    // Expunge sweep against the adaptive threshold.
    for (std::size_t i = queue.findExpungeable(threshold());
         i != internal::BoundQueue::npos;
         i = queue.findExpungeable(threshold())) {
      const Candidate victim = queue.take(i);
      {
        obs::TraceSpan span = run.span("expunge");
        span.attr("site", victim.site);
        span.attr("tuple", static_cast<double>(victim.tuple.id));
      }
      run.countExpunge(stats);
      pullFrom(victim.site);
    }
    if (queue.empty()) break;

    // After the sweep every remaining entry has ub >= τ, so selection
    // cannot fail while the queue is nonempty (kept defensive).
    const std::size_t best = queue.selectQualified(threshold());
    if (best == internal::BoundQueue::npos) break;

    const Candidate c = queue.take(best);
    double globalSkyProb = 0.0;
    {
      obs::TraceSpan broadcast = run.span("broadcast");
      broadcast.attr("site", c.site);
      broadcast.attr("tuple", static_cast<double>(c.tuple.id));
      globalSkyProb =
          run.evaluateGlobally(c, /*pruneLocal=*/true, mask, config.window,
                               broadcast.id());
    }
    queue.confirm(c.tuple, globalSkyProb);

    // Admission: above the floor (the contract's universe) and either the
    // top list is not full yet or the candidate beats the current k-th.
    if (globalSkyProb >= config.floorQ &&
        (top.size() < config.k ||
         globalSkyProb > top.back().globalSkyProb)) {
      GlobalSkylineEntry entry;
      entry.site = c.site;
      entry.tuple = c.tuple;
      entry.localSkyProb = c.localSkyProb;
      entry.globalSkyProb = globalSkyProb;
      top.push_back(std::move(entry));
      std::sort(top.begin(), top.end(),
                [](const GlobalSkylineEntry& a, const GlobalSkylineEntry& b) {
                  if (a.globalSkyProb != b.globalSkyProb) {
                    return a.globalSkyProb > b.globalSkyProb;
                  }
                  return a.tuple.id < b.tuple.id;
                });
      if (top.size() > config.k) top.pop_back();
    }
    pullFrom(c.site);
  }

  run.result.skyline = std::move(top);
  // Top-k answers are not streamed through emit(); count them here.
  if (run.answers != nullptr) {
    run.answers->add(run.result.skyline.size());
  }
  return run.finalize();
}

}  // namespace dsud
