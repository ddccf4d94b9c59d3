// The baseline approach (paper Sec. 3.2): every site ships its entire
// uncertain database to H, which answers the query centrally (BBS over a
// bulk-loaded PR-tree).  Communication cost is |D| = Σ |D_i| tuples — the
// upper bound both DSUD algorithms are measured against.
#include "common/dataset.hpp"
#include "core/query_engine.hpp"
#include "core/query_run.hpp"
#include "skyline/bbs.hpp"

namespace dsud {

QueryResult QueryEngine::naiveImpl(const QueryConfig& config,
                                   const QueryOptions& options, QueryId id) {
  internal::QueryRun run(*coord_, "naive", options, id);
  const DimMask mask = config.effectiveMask(coord_->dims());

  // Collect every tuple, remembering its origin site.  No kPrepare is sent,
  // so the sites hold no session state to release afterwards.
  Dataset unified(coord_->dims());
  std::unordered_map<TupleId, SiteId> origin;
  {
    obs::TraceSpan collect = run.span("ship_all");
    for (internal::QueryRun::Site& site : run.sites) {
      run.throwIfCancelled();  // no rounds here; check per site instead
      obs::TraceSpan pull = run.span("pull");
      pull.attr("site", site.row.site);
      ShipAllResponse shipment;
      try {
        shipment = site.session->shipAll();
      } catch (const NetError&) {
        if (!run.degradeOk()) throw;
        run.markDead(site);
        continue;
      }
      pull.attr("tuples", static_cast<double>(shipment.tuples.size()));
      site.row.candidates += shipment.tuples.size();
      origin.reserve(origin.size() + shipment.tuples.size());
      for (const Tuple& t : shipment.tuples) {
        unified.add(t);
        origin.emplace(t.id, site.row.site);
      }
    }
    if (run.result.excludedSites.size() == run.sites.size()) {
      throw NetError("naive: all sites unavailable");
    }
  }

  // Centralised answer, reported progressively in BBS order.
  obs::TraceSpan answer = run.span("central_bbs");
  const PRTree tree = PRTree::bulkLoad(unified);
  const Rect* clip = config.window ? &*config.window : nullptr;
  bbsSkylineStream(
      tree, {.mask = mask, .q = config.q, .clip = clip},
      [&](const ProbSkylineEntry& e) {
        run.throwIfCancelled();
        Candidate c;
        c.site = origin.at(e.id);
        c.tuple = Tuple(e.id, e.values, e.prob);
        c.localSkyProb = e.skyProb;  // over the unified database == global
        run.emit(c, e.skyProb);
        return true;
      });
  return run.finalize();
}

}  // namespace dsud
