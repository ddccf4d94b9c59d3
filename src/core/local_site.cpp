#include "core/local_site.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "skyline/bbs.hpp"

namespace dsud {

LocalSite::LocalSite(SiteId id, const Dataset& db, PRTree::Options options)
    : id_(id),
      tree_(PRTree::bulkLoad(db, options)),
      fullMask_(fullMask(db.dims())),
      treeOptions_(options) {}

LocalSite::LocalSite(SiteId id, std::size_t dims, PRTree::Options options)
    : id_(id),
      tree_(dims, options),
      fullMask_(fullMask(dims)),
      treeOptions_(options),
      phase_(Phase::kStaging),
      staging_(std::make_unique<Dataset>(dims)) {}

LocalSite::Phase LocalSite::phase() const {
  std::lock_guard lock(mutex_);
  return phase_;
}

void LocalSite::setMetrics(obs::MetricsRegistry* registry) {
  std::lock_guard lock(mutex_);
  if (registry == nullptr) {
    nodeAccesses_ = nullptr;
    pruned_ = nullptr;
    return;
  }
  const std::string site = std::to_string(id_);
  nodeAccesses_ = &registry->counter(
      obs::labeled("dsud_site_node_accesses_total", {{"site", site}}));
  pruned_ = &registry->counter(
      obs::labeled("dsud_site_pruned_total", {{"site", site}}));
  flushedAccesses_ = tree_.nodeAccesses();
}

void LocalSite::flushTreeMetricsLocked() {
  if (nodeAccesses_ == nullptr) return;
  const std::uint64_t now = tree_.nodeAccesses();
  nodeAccesses_->add(now - flushedAccesses_);
  flushedAccesses_ = now;
}

PrepareResponse LocalSite::prepare(const PrepareRequest& request) {
  if (!(request.q > 0.0) || request.q > 1.0) {
    throw std::invalid_argument("LocalSite::prepare: q must be in (0, 1]");
  }
  if (request.window && request.window->dims() != tree_.dims()) {
    throw std::invalid_argument("LocalSite::prepare: window dims mismatch");
  }

  std::lock_guard lock(mutex_);
  if (phase_ == Phase::kStaging) {
    // Not a transport fault: routing a query to a half-seeded store is a
    // topology bug, so fail loudly instead of retrying.  A kDraining store
    // still serves prepares: its tree holds the retired epoch's full
    // partition, and any session that reaches it pinned that epoch's view
    // before the store was drained (MVCC — old versions stay readable
    // until the last reader lets go).
    throw std::logic_error(
        "LocalSite::prepare: store is staging (not yet joined)");
  }
  Session session;
  session.q = request.q;
  session.mask = request.mask == 0 ? fullMask_ : request.mask;
  session.prune = request.prune;
  session.window = request.window;
  if (request.traceCapacity > 0) {
    session.tracer = std::make_unique<obs::Tracer>(request.traceCapacity);
  }

  const std::uint64_t nodesBefore = tree_.nodeAccesses();
  const obs::SpanId span =
      session.tracer ? session.tracer->begin("site.prepare", obs::kNoSpan)
                     : obs::kNoSpan;
  const Rect* clip = session.window ? &*session.window : nullptr;
  BbsStats bbs;
  for (ProbSkylineEntry& e : bbsSkyline(
           tree_, {.mask = session.mask, .q = session.q, .clip = clip},
           &bbs)) {
    session.pending.push_back(PendingEntry{std::move(e), 1.0});
  }
  flushTreeMetricsLocked();

  const std::uint64_t size = session.pending.size();
  if (session.tracer) {
    session.tracer->attr(span, "nodes",
                         static_cast<double>(tree_.nodeAccesses() -
                                             nodesBefore));
    session.tracer->attr(span, "evaluated",
                         static_cast<double>(bbs.tuplesEvaluated));
    session.tracer->attr(span, "candidates", static_cast<double>(size));
    session.tracer->end(span);
  }
  sessions_[request.query] = std::move(session);
  return PrepareResponse{size};
}

NextCandidateResponse LocalSite::nextCandidate(
    const NextCandidateRequest& request) {
  std::lock_guard lock(mutex_);
  NextCandidateResponse response;
  const auto it = sessions_.find(request.query);
  if (it == sessions_.end()) return response;
  Session& session = it->second;
  obs::Tracer* tracer = session.tracer.get();
  // Duplicate delivery (retry after a lost response): replay, don't advance.
  if (request.seq != 0 && request.seq == session.lastNextSeq) {
    if (tracer != nullptr) {
      const obs::SpanId span = tracer->begin("site.next", obs::kNoSpan);
      tracer->attr(span, "seq", static_cast<double>(request.seq));
      tracer->attr(span, "replay", 1.0);
      tracer->end(span);
    }
    return session.lastNext;
  }
  const obs::SpanId span =
      tracer != nullptr ? tracer->begin("site.next", obs::kNoSpan)
                        : obs::kNoSpan;
  if (!session.pending.empty()) {
    std::vector<PendingEntry>& pending = session.pending;
    PendingEntry head = std::move(pending.front());
    pending.erase(pending.begin());

    Candidate c;
    c.site = id_;
    c.tuple = Tuple(head.entry.id, std::move(head.entry.values),
                    head.entry.prob);
    c.localSkyProb = head.entry.skyProb;
    response.candidate = std::move(c);
  }
  if (request.seq != 0) {
    session.lastNextSeq = request.seq;
    session.lastNext = response;
  }
  if (tracer != nullptr) {
    tracer->attr(span, "seq", static_cast<double>(request.seq));
    tracer->attr(span, "returned", response.candidate ? 1.0 : 0.0);
    tracer->attr(span, "pending",
                 static_cast<double>(session.pending.size()));
    tracer->end(span);
  }
  return response;
}

EvaluateResponse LocalSite::evaluate(const EvaluateRequest& request) {
  if (request.window && request.window->dims() != tree_.dims()) {
    throw std::invalid_argument("LocalSite::evaluate: window dims mismatch");
  }
  std::lock_guard lock(mutex_);
  const auto sessionIt = sessions_.find(request.query);
  Session* sess = sessionIt == sessions_.end() ? nullptr : &sessionIt->second;
  obs::Tracer* tracer =
      (sess != nullptr && sess->tracer) ? sess->tracer.get() : nullptr;
  // Duplicate delivery: replay the cached response — re-executing would fold
  // the feedback factor into extSurvival a second time (threshold rule).
  if (request.seq != 0 && sess != nullptr &&
      request.seq == sess->lastEvalSeq) {
    if (tracer != nullptr) {
      const obs::SpanId span = tracer->begin("site.evaluate", obs::kNoSpan);
      tracer->attr(span, "seq", static_cast<double>(request.seq));
      tracer->attr(span, "replay", 1.0);
      tracer->end(span);
    }
    return sess->lastEval;
  }
  const DimMask mask = request.mask == 0 ? fullMask_ : request.mask;
  const std::uint64_t nodesBefore = tree_.nodeAccesses();
  const obs::SpanId span =
      tracer != nullptr ? tracer->begin("site.evaluate", obs::kNoSpan)
                        : obs::kNoSpan;
  EvaluateResponse response;
  const Rect* clip = request.window ? &*request.window : nullptr;
  response.survival =
      tree_.dominanceSurvival(request.tuple.values, mask, clip);
  flushTreeMetricsLocked();

  if (request.pruneLocal && sess != nullptr) {
    Session& session = *sess;
    const Tuple& t = request.tuple;
    auto doomed = [&](PendingEntry& p) {
      if (!dominates(t.values, p.entry.values, session.mask)) return false;
      if (session.prune == PruneRule::kDominance) return true;
      // Threshold rule: accumulate the external factor and prune only when
      // the provable upper bound falls below q.
      p.extSurvival *= 1.0 - t.prob;
      return p.entry.skyProb * p.extSurvival < session.q;
    };
    const auto removed =
        std::remove_if(session.pending.begin(), session.pending.end(),
                       doomed);
    response.prunedCount = static_cast<std::uint32_t>(
        std::distance(removed, session.pending.end()));
    session.pending.erase(removed, session.pending.end());
    if (pruned_ != nullptr) pruned_->add(response.prunedCount);
    if (request.seq != 0) {
      session.lastEvalSeq = request.seq;
      session.lastEval = response;
    }
  }
  if (tracer != nullptr) {
    tracer->attr(span, "seq", static_cast<double>(request.seq));
    tracer->attr(span, "nodes",
                 static_cast<double>(tree_.nodeAccesses() - nodesBefore));
    tracer->attr(span, "pruned", static_cast<double>(response.prunedCount));
    tracer->attr(span, "pending",
                 static_cast<double>(sess->pending.size()));
    tracer->end(span);
  }
  return response;
}

ShipAllResponse LocalSite::shipAll() const {
  std::lock_guard lock(mutex_);
  ShipAllResponse response;
  response.tuples.reserve(tree_.size());
  tree_.forEach([&](const PRTree::LeafEntry& e) {
    response.tuples.emplace_back(
        e.id,
        std::vector<double>(e.values.begin(),
                            e.values.begin() +
                                static_cast<std::ptrdiff_t>(tree_.dims())),
        e.prob);
  });
  return response;
}

void LocalSite::finishQuery(const FinishQueryRequest& request) {
  std::lock_guard lock(mutex_);
  sessions_.erase(request.query);
}

FetchTraceResponse LocalSite::fetchTrace(
    const FetchTraceRequest& request) const {
  std::lock_guard lock(mutex_);
  FetchTraceResponse response;
  const auto it = sessions_.find(request.query);
  if (it != sessions_.end() && it->second.tracer) {
    response.trace = it->second.tracer->snapshot();
  }
  return response;
}

std::size_t LocalSite::pendingCount(QueryId query) const {
  std::lock_guard lock(mutex_);
  const auto it = sessions_.find(query);
  return it == sessions_.end() ? 0 : it->second.pending.size();
}

std::size_t LocalSite::sessionCount() const {
  std::lock_guard lock(mutex_);
  return sessions_.size();
}

std::vector<LocalSite::ReplicaEntry> LocalSite::replica() const {
  std::lock_guard lock(mutex_);
  return replica_;
}

// ---------------------------------------------------------------------------
// Elastic membership

StreamTuplesResponse LocalSite::streamTuples(
    const StreamTuplesRequest& request) {
  if (request.partition != id_) {
    throw std::invalid_argument(
        "LocalSite::streamTuples: partition mismatch (store " +
        std::to_string(id_) + ", request " +
        std::to_string(request.partition) + ")");
  }
  std::lock_guard lock(mutex_);
  if (phase_ != Phase::kStaging || staging_ == nullptr) {
    throw std::logic_error(
        "LocalSite::streamTuples: store is not staging");
  }
  // Replay protection: batches arrive strictly ordered (the RPC layer never
  // pipelines), so a seq at or below the last applied one is a retried
  // delivery — ack with the current size instead of appending twice.
  if (request.seq == 0 || request.seq > lastStreamSeq_) {
    for (const Tuple& t : request.tuples) {
      if (t.values.size() != staging_->dims()) {
        throw std::invalid_argument(
            "LocalSite::streamTuples: bad dimensionality");
      }
      staging_->add(t);
    }
    if (request.seq != 0) lastStreamSeq_ = request.seq;
  }
  return StreamTuplesResponse{staging_->size()};
}

JoinSiteResponse LocalSite::joinSite(const JoinSiteRequest&) {
  std::lock_guard lock(mutex_);
  if (phase_ == Phase::kStaging) {
    // The seal: one STR bulk load over the streamed tuples — the same build
    // a live-constructed store gets, so query answers are bit-identical to
    // a from-scratch site over the same data.
    tree_ = PRTree::bulkLoad(*staging_, treeOptions_);
    staging_.reset();
    phase_ = Phase::kLive;
    flushedAccesses_ = tree_.nodeAccesses();
  }
  return JoinSiteResponse{tree_.size()};
}

LeaveSiteResponse LocalSite::leaveSite(const LeaveSiteRequest&) {
  std::lock_guard lock(mutex_);
  phase_ = Phase::kDraining;
  staging_.reset();
  return LeaveSiteResponse{sessions_.size()};
}

// ---------------------------------------------------------------------------
// Update maintenance

double LocalSite::replicaExternalSurvivalLocked(std::span<const double> v,
                                                DimMask mask) const {
  double survival = 1.0;
  for (const ReplicaEntry& r : replica_) {
    if (r.entry.site == id_) continue;  // already counted in the local tree
    if (dominates(r.entry.tuple.values, v, mask)) {
      survival *= 1.0 - r.entry.tuple.prob;
    }
  }
  return survival;
}

ApplyInsertResponse LocalSite::applyInsert(const ApplyInsertRequest& request) {
  std::lock_guard lock(mutex_);
  const Tuple& t = request.tuple;
  tree_.insert(t);
  ++datasetVersion_;

  ApplyInsertResponse response;
  response.datasetVersion = datasetVersion_;
  response.localSkyProb =
      t.prob * tree_.dominanceSurvival(t.values, fullMask_);
  response.globalUpperBound =
      response.localSkyProb * replicaExternalSurvivalLocked(t.values,
                                                            fullMask_);
  for (const ReplicaEntry& r : replica_) {
    if (dominates(t.values, r.entry.tuple.values, fullMask_)) {
      response.dominatedReplica.push_back(r.entry.tuple.id);
    }
  }
  return response;
}

ApplyDeleteResponse LocalSite::applyDelete(const ApplyDeleteRequest& request) {
  if (request.values.size() != tree_.dims()) {
    throw std::invalid_argument("LocalSite::applyDelete: bad dimensionality");
  }
  std::lock_guard lock(mutex_);
  ApplyDeleteResponse response;
  // Recover the probability before erasing (needed by the coordinator to
  // rescale cached global probabilities).
  double prob = 0.0;
  bool found = false;
  const Rect probe = Rect::point(request.values);
  tree_.windowQuery(probe, [&](const PRTree::LeafEntry& e) {
    if (e.id == request.id) {
      prob = e.prob;
      found = true;
    }
  });
  if (found) {
    response.existed = tree_.erase(request.id, request.values);
    response.prob = response.existed ? prob : 0.0;
    if (response.existed) ++datasetVersion_;
  }
  response.datasetVersion = datasetVersion_;
  return response;
}

std::uint64_t LocalSite::datasetVersion() const {
  std::lock_guard lock(mutex_);
  return datasetVersion_;
}

RepairDeleteResponse LocalSite::repairDelete(
    const RepairDeleteRequest& request) {
  if (request.deleted.values.size() != tree_.dims()) {
    throw std::invalid_argument("LocalSite::repairDelete: bad dimensionality");
  }
  std::lock_guard lock(mutex_);
  RepairDeleteResponse response;
  const Tuple& deleted = request.deleted;
  const double q = request.q;
  const DimMask mask = request.mask == 0 ? fullMask_ : request.mask;

  // Region-restricted skyline search: tuples dominated by the deleted tuple
  // whose exact local probability passes q and whose replica-based global
  // upper bound passes q as well.
  std::vector<ProbSkylineEntry> regional;
  bbsSkylineStream(tree_, {.mask = mask, .q = q},
                   [&](const ProbSkylineEntry& e) {
                     if (dominates(deleted.values, e.values, mask)) {
                       regional.push_back(e);
                     }
                     return true;
                   });

  for (ProbSkylineEntry& e : regional) {
    const bool inReplica =
        std::any_of(replica_.begin(), replica_.end(),
                    [&](const ReplicaEntry& r) {
                      return r.entry.tuple.id == e.id;
                    });
    if (inReplica) continue;
    if (e.skyProb * replicaExternalSurvivalLocked(e.values, mask) < q) {
      continue;
    }
    Candidate c;
    c.site = id_;
    c.localSkyProb = e.skyProb;
    c.tuple = Tuple(e.id, std::move(e.values), e.prob);
    response.candidates.push_back(std::move(c));
  }
  return response;
}

void LocalSite::replicaAdd(const ReplicaAddRequest& request) {
  if (request.entry.tuple.values.size() != tree_.dims()) {
    throw std::invalid_argument("LocalSite::replicaAdd: bad dimensionality");
  }
  std::lock_guard lock(mutex_);
  // Replace a stale copy if present (re-confirmation after updates).
  for (ReplicaEntry& r : replica_) {
    if (r.entry.tuple.id == request.entry.tuple.id) {
      r.entry = request.entry;
      r.globalSkyProb = request.globalSkyProb;
      return;
    }
  }
  replica_.push_back(ReplicaEntry{request.entry, request.globalSkyProb});
}

void LocalSite::replicaRemove(const ReplicaRemoveRequest& request) {
  std::lock_guard lock(mutex_);
  std::erase_if(replica_, [&](const ReplicaEntry& r) {
    return r.entry.tuple.id == request.id;
  });
}

// ---------------------------------------------------------------------------
// SiteServer dispatch

namespace {

/// Decodes one Req, runs it on the site, and encodes its declared response.
template <typename Req>
Frame serve(LocalSite& site, ByteReader& r) {
  const auto request = decodeBody<Req>(r);
  if constexpr (std::is_same_v<typename Req::Response, AckResponse>) {
    Req::serve(site, request);
    return toResponseFrame(AckResponse{});
  } else {
    return toResponseFrame(Req::serve(site, request));
  }
}

using Handler = Frame (*)(LocalSite&, ByteReader&);

/// One handler per request type byte; null for bytes no request declares.
constexpr auto kHandlers = []<typename... Req>(std::tuple<Req...>*) {
  std::array<Handler, 256> table{};
  ((table[static_cast<std::uint8_t>(Req::kType)] = &serve<Req>), ...);
  return table;
}(static_cast<SiteRequests*>(nullptr));

}  // namespace

Frame SiteServer::handle(const Frame& request) {
  ByteReader r(request);
  const Handler handler = kHandlers[r.getU8()];  // the type byte
  if (handler == nullptr) {
    throw SerializeError("SiteServer: unknown message type");
  }
  return handler(*site_, r);
}

}  // namespace dsud
