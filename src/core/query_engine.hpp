// QueryEngine: the session-per-query entry point for all distributed
// skyline algorithms.
//
// Every run opens an immutable session: a QueryId, a copy of the
// QueryOptions, per-query site views (SiteHandle::openSession), and a
// session-owned monotonic clock, tracer, and bandwidth scope.  Because no
// query touches coordinator-global state, any number of queries may execute
// concurrently over one cluster, and each is bit-for-bit identical to the
// same query run alone (survival factors reduce in site order; site sessions
// are keyed by QueryId).
//
// Thread-safety contract: run may be called concurrently from any thread,
// and every query runs on its caller's thread.  The coordinator must
// outlive the engine, and the engine every run in progress.
#pragma once

#include "core/batch.hpp"
#include "core/coordinator.hpp"
#include "core/result.hpp"

namespace dsud {

class ResultCache;

class QueryEngine {
 public:
  explicit QueryEngine(Coordinator& coordinator);

  Coordinator& coordinator() noexcept { return *coord_; }

  /// Attaches a shared result cache consulted before any descent (null
  /// detaches).  The cache must outlive the engine.  Wiring-time only: must
  /// not race with running queries.  Only share-eligible configurations
  /// (see the .cpp's shareEligible) ever touch the cache; everything else
  /// runs exactly as before.
  void setResultCache(ResultCache* cache) noexcept { cache_ = cache; }

  // --- Execution ----------------------------------------------------------
  //
  // `id` is the session id; kNoQuery means the engine assigns one.  Front
  // ends pass an id from coordinator().nextQueryId() so they can advertise
  // it before execution starts — e.g. the daemon's `ack` line, which must
  // carry the id the query's traces and site sessions will use.

  /// Runs one threshold query on the calling thread.
  ///
  /// When `options.batching.enabled` and the query is share-eligible, it
  /// parks in the batching window first: compatible queries run inside one
  /// window (same algorithm, subspace, window, and execution knobs — any
  /// thresholds) merge into ONE site-side descent at the loosest threshold,
  /// split back out per query.  The caller that opened the group runs it;
  /// the others wait for their share.  Each answer is bit-identical to a
  /// solo run of its query; stats describe the shared descent.
  QueryResult run(Algo algo, const QueryConfig& config,
                  const QueryOptions& options = {}, QueryId id = kNoQuery);

  /// Runs one top-k query on the calling thread (see topk.cpp for the
  /// adaptive-threshold machinery).
  QueryResult run(const TopKConfig& config, const QueryOptions& options = {},
                  QueryId id = kNoQuery);

 private:
  friend class BatchExecutor;

  QueryResult naiveImpl(const QueryConfig& config, const QueryOptions& options,
                        QueryId id);
  QueryResult dsudImpl(const QueryConfig& config, const QueryOptions& options,
                       QueryId id);
  QueryResult edsudImpl(const QueryConfig& config, const QueryOptions& options,
                        QueryId id);
  QueryResult topkImpl(const TopKConfig& config, const QueryOptions& options,
                       QueryId id);

  /// Cache-aware execution: consult the attached result cache, run the
  /// algorithm on a miss, store share-eligible answers.  Every threshold
  /// query funnels through here.
  QueryResult dispatch(Algo algo, const QueryConfig& config,
                       const QueryOptions& options, QueryId id);
  /// Raw algorithm switch (no cache).
  QueryResult execute(Algo algo, const QueryConfig& config,
                      const QueryOptions& options, QueryId id);
  /// Synthesises a QueryResult from cached entries: progress callbacks
  /// replay per entry, stats report zero shipped work.
  QueryResult fromCache(std::vector<GlobalSkylineEntry> entries,
                        const QueryOptions& options, QueryId id);

  Coordinator* coord_;
  ResultCache* cache_ = nullptr;
  BatchExecutor batch_;
};

/// True when answers of a run at a looser threshold can be filtered down to
/// any tighter threshold bit for bit — the predicate gating both the result
/// cache and batch merging.  Requires a q-invariant emission order:
/// kThresholdBound pruning is exact (feedback never removes qualified
/// answers) and every algorithm emits in an order independent of q — naive
/// in ascending BBS key order, DSUD in descending local-probability order,
/// e-DSUD likewise under kEager (a kPark stall reorders streams depending
/// on q, so parked configurations are excluded).
bool shareEligible(Algo algo, const QueryConfig& config) noexcept;

}  // namespace dsud
