// Shared-work batch executor (ROADMAP item 3, tentpole of the sharing
// layer).
//
// N concurrent queries over one cluster used to mean N independent PR-tree
// descents even when they differed only by threshold.  QueryEngine::run
// parks a query for a short batching window (QueryOptions::batching) when
// the options enable it; compatible queries arriving inside the window —
// same algorithm, effective mask, constraint window, prune/bound/expunge
// knobs, and fault handling; ANY thresholds q1 <= q2 <= ... — merge into one
// group.  The group runs as a
// single engine session (the "leader") at the loosest threshold min(q_i),
// and each member's answer is split back out coordinator-side by filtering
// the shared answer stream to globalSkyProb >= q_i.
//
// Every query runs on its caller's thread.  The caller that opens a group
// waits out the window (or until a joiner fills the group to maxMerge) and
// then runs the group itself — also when its own query was cancelled while
// parked, since the joiners depend on it.  Joiners block until the opener
// resolves their share.
//
// Why the split is exact: for share-eligible configurations (see
// shareEligible in query_engine.hpp) the emission order is q-invariant and
// every answer's P_gsky is computed by the same site-order survival
// product, so the filtered stream is bit-identical — content, order, and
// probabilities — to a solo run at q_i.  Member progress callbacks fire
// live from the opener's thread with per-member renumbered sequence
// numbers; member stats report the shared descent's totals.
//
// The leader runs through QueryEngine::dispatch, so a result-cache hit
// resolves a whole group without any descent at all.
#pragma once

#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <vector>

#include "core/result.hpp"
#include "obs/metrics.hpp"

namespace dsud {

class QueryEngine;

/// One engine's batching window.  Thread-safe; owns no thread.
class BatchExecutor {
 public:
  /// `metrics` may be null.  The merge counters are registered up front so
  /// they expose as zero series from the first scrape.
  BatchExecutor(QueryEngine& engine, obs::MetricsRegistry* metrics);

  BatchExecutor(const BatchExecutor&) = delete;
  BatchExecutor& operator=(const BatchExecutor&) = delete;

  /// Joins (or opens) a group for this query and returns its answer once
  /// the group has run; the opener runs it on this thread.  The group runs
  /// when its window expires or it reaches maxMerge members.
  QueryResult run(Algo algo, const QueryConfig& config,
                  const QueryOptions& options, QueryId id);

 private:
  using Clock = std::chrono::steady_clock;

  struct Member {
    QueryId id = kNoQuery;
    double q = 0.0;
    ProgressCallback progress;
    std::shared_ptr<std::atomic<bool>> cancel;
    std::promise<QueryResult> promise;
  };

  struct Group {
    Algo algo = Algo::kEdsud;
    QueryConfig config;    ///< opener's; q is rewritten at flush
    QueryOptions options;  ///< leader template (fault policy, tracing)
    std::size_t maxMerge = 64;
    std::vector<Member> members;
    bool closed = false;           ///< out of pending_: no one joins any more
    std::condition_variable full;  ///< wakes the opener when closed early
  };

  bool compatible(const Group& group, Algo algo, const QueryConfig& config,
                  const QueryOptions& options) const;
  /// Counts the flush, runs the leader and splits its answer per member.
  /// Never holds the executor mutex.
  void flush(Group& group);

  QueryEngine* engine_;
  obs::Counter* merged_ = nullptr;    ///< members beyond the first, per flush
  obs::Counter* flushes_ = nullptr;   ///< groups executed
  obs::Histogram* width_ = nullptr;   ///< members per flushed group

  std::mutex mutex_;
  std::vector<Group*> pending_;  ///< open groups, each on its opener's stack
};

}  // namespace dsud
