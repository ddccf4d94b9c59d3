// QueryEngine: the session-per-query entry point for all distributed
// skyline algorithms.
//
// Every run opens an immutable session: a QueryId, a copy of the
// QueryOptions, per-query site views (SiteHandle::openSession), a
// session-owned monotonic clock, tracer, and bandwidth scope, and — when
// requested — a session-private broadcast pool.  Because no query touches
// coordinator-global state, any number of queries may execute concurrently
// over one cluster, and each is bit-for-bit identical to the same query run
// alone (survival factors reduce in site order; site sessions are keyed by
// QueryId).
//
// Thread-safety contract: run and submit may be called
// concurrently from any thread.  The coordinator must outlive the engine
// and every outstanding QueryTicket.
#pragma once

#include <cstddef>
#include <future>
#include <memory>
#include <mutex>

#include "common/thread_pool.hpp"
#include "core/coordinator.hpp"
#include "core/result.hpp"

namespace dsud {

class BatchExecutor;
class ResultCache;

/// Handle to one submitted (asynchronous) query.
class QueryTicket {
 public:
  QueryTicket() = default;

  /// Session id the engine assigned (known before the query starts).
  QueryId id() const noexcept { return id_; }

  /// Blocks until the query completes and returns its result (once);
  /// rethrows any exception the query raised.
  QueryResult get() { return future_.get(); }

  bool valid() const noexcept { return future_.valid(); }
  void wait() const { future_.wait(); }

 private:
  friend class QueryEngine;
  friend class BatchExecutor;
  QueryTicket(QueryId id, std::future<QueryResult> future)
      : id_(id), future_(std::move(future)) {}

  QueryId id_ = kNoQuery;
  std::future<QueryResult> future_;
};

class QueryEngine {
 public:
  /// `workers` sizes the pool that executes submitted queries (0 = one
  /// worker per hardware thread, capped at 8).  The pool is created lazily
  /// on the first submit; synchronous runs never start it.
  explicit QueryEngine(Coordinator& coordinator, std::size_t workers = 0);
  ~QueryEngine();

  Coordinator& coordinator() noexcept { return *coord_; }

  /// Attaches a shared result cache consulted before any descent (null
  /// detaches).  The cache must outlive the engine.  Wiring-time only: must
  /// not race with running queries.  Only share-eligible configurations
  /// (see the .cpp's shareEligible) ever touch the cache; everything else
  /// runs exactly as before.
  void setResultCache(ResultCache* cache) noexcept { cache_ = cache; }
  ResultCache* resultCache() const noexcept { return cache_; }

  // --- Execution ----------------------------------------------------------
  //
  // `id` is the session id; kNoQuery means the engine assigns one.  Front
  // ends pass an id from coordinator().nextQueryId() so they can advertise
  // it before execution starts — e.g. the daemon's `ack` line, which must
  // carry the id the query's traces and site sessions will use.

  /// Runs one threshold query on the calling thread.
  QueryResult run(Algo algo, const QueryConfig& config,
                  const QueryOptions& options = {}, QueryId id = kNoQuery);

  /// Runs one top-k query on the calling thread (see topk.cpp for the
  /// adaptive-threshold machinery).
  QueryResult run(const TopKConfig& config, const QueryOptions& options = {},
                  QueryId id = kNoQuery);

  /// Enqueues a threshold query on the engine's pool and returns
  /// immediately.  The config and options are copied into the session, so
  /// the caller's may go out of scope.
  ///
  /// When `options.batching.enabled` and the query is share-eligible, it
  /// parks in the batching window instead: compatible queries submitted
  /// inside one window (same algorithm, subspace, window, and execution
  /// knobs — any thresholds) merge into ONE site-side descent at the
  /// loosest threshold, split back out per query.  Each ticket's answer is
  /// bit-identical to a solo run of its query; stats describe the shared
  /// descent.
  QueryTicket submit(Algo algo, QueryConfig config, QueryOptions options = {},
                     QueryId id = kNoQuery);

  /// Queries currently executing or queued on this engine's pool (batched
  /// queries count from submission to ticket fulfilment).
  std::size_t inFlight() const noexcept {
    return inFlight_.load(std::memory_order_relaxed);
  }

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

  ThreadPool& pool();
  BatchExecutor& batch();

  Coordinator* coord_;
  std::size_t workers_;
  ResultCache* cache_ = nullptr;
  std::mutex poolMutex_;            // guards lazy pool/batch creation
  std::unique_ptr<ThreadPool> pool_;
  std::atomic<std::size_t> inFlight_{0};
  // After pool_ so it is destroyed first: pending groups flush onto the
  // pool during the executor's teardown.
  std::unique_ptr<BatchExecutor> batch_;
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
