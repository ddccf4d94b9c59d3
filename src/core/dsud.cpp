// DSUD (paper Sec. 5.1).
//
// Sites expose their local skylines in descending order of local skyline
// probability; the coordinator keeps at most one candidate per site in the
// priority queue L, repeatedly pops the globally best one, broadcasts it to
// the other m−1 sites for exact evaluation (Lemma 1) and local pruning, and
// pulls the origin site's next candidate.  Corollary 1 (P_gsky <= local
// P_sky) lets the loop stop as soon as the head of L falls below q.
#include <queue>

#include "core/query_engine.hpp"
#include "core/query_run.hpp"

namespace dsud {
namespace {

struct LowerLocalProb {
  bool operator()(const Candidate& a, const Candidate& b) const noexcept {
    if (a.localSkyProb != b.localSkyProb) {
      return a.localSkyProb < b.localSkyProb;  // max-heap on local probability
    }
    return a.tuple.id > b.tuple.id;  // deterministic tie-break
  }
};

}  // namespace

QueryResult QueryEngine::dsudImpl(const QueryConfig& config,
                                  const QueryOptions& options, QueryId id) {
  internal::QueryRun run(*coord_, "dsud", options, id);
  const DimMask mask = config.effectiveMask(coord_->dims());

  std::priority_queue<Candidate, std::vector<Candidate>, LowerLocalProb> queue;
  run.prepare({run.id, config.q, mask, config.prune, config.window},
              [&](Candidate c) { queue.push(std::move(c)); });

  while (!queue.empty()) {
    const auto round = run.roundScope();
    const Candidate c = queue.top();
    queue.pop();

    // A site that died mid-query may leave its last candidate queued; it
    // can no longer be evaluated or replaced, so drop it (the answer is
    // the survivors' skyline).
    if (run.isDead(c.site)) continue;

    // Corollary 1: nothing still queued or unseen can reach q.
    if (c.localSkyProb < config.q) break;

    const double globalSkyProb = run.broadcast(c, mask, config.window);
    if (globalSkyProb >= config.q) run.emit(c, globalSkyProb);

    if (auto next = run.pull(c.site)) queue.push(std::move(*next));
  }
  return run.finalize();
}

}  // namespace dsud
