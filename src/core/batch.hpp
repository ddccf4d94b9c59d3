// Shared-work batch executor (ROADMAP item 3, tentpole of the sharing
// layer).
//
// N concurrent queries over one cluster used to mean N independent PR-tree
// descents even when they differed only by threshold.  QueryEngine::submit
// parks a query for a short batching window (QueryOptions::batching) when
// the options enable it; compatible queries arriving inside the window —
// same algorithm, effective mask, constraint window, prune/bound/expunge
// knobs, and fault handling; ANY thresholds q1 <= q2 <= ... — merge into one
// group.  The group runs as a
// single engine session (the "leader") at the loosest threshold min(q_i),
// and each member's answer is split back out coordinator-side by filtering
// the shared answer stream to globalSkyProb >= q_i.
//
// Why the split is exact: for share-eligible configurations (see
// shareEligible in query_engine.hpp) the emission order is q-invariant and
// every answer's P_gsky is computed by the same site-order survival
// product, so the filtered stream is bit-identical — content, order, and
// probabilities — to a solo run at q_i.  Member progress callbacks fire
// live from the leader's thread with per-member renumbered sequence
// numbers; member stats report the shared descent's totals.
//
// The leader runs through QueryEngine::dispatch, so a result-cache hit
// resolves a whole group without any descent at all.
#pragma once

#include <chrono>
#include <condition_variable>
#include <list>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/query_engine.hpp"
#include "obs/metrics.hpp"

namespace dsud {

/// One engine's batching window.  Created lazily by the first batched
/// QueryEngine::submit; owns a timer thread that flushes due groups
/// onto the engine's pool.  Thread-safe.
class BatchExecutor {
 public:
  /// `metrics` may be null.  The merge counters are registered up front so
  /// they expose as zero series from the first scrape.
  BatchExecutor(QueryEngine& engine, obs::MetricsRegistry* metrics);

  /// Flushes every pending group inline, then joins the timer thread.
  /// Outstanding tickets complete before destruction returns.
  ~BatchExecutor();

  BatchExecutor(const BatchExecutor&) = delete;
  BatchExecutor& operator=(const BatchExecutor&) = delete;

  /// Joins (or opens) a group for this query and returns its ticket.  The
  /// group flushes when its window expires or it reaches maxMerge members.
  QueryTicket submit(Algo algo, QueryConfig config, QueryOptions options,
                     QueryId id);

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
    QueryConfig config;    ///< first member's; q is rewritten at flush
    QueryOptions options;  ///< leader template (fault policy, tracing)
    Clock::time_point deadline;
    std::size_t maxMerge = 64;
    std::vector<Member> members;
  };

  bool compatible(const Group& group, Algo algo, const QueryConfig& config,
                  const QueryOptions& options) const;
  void timerLoop();
  /// Counts the flush and hands the group to the engine pool (or runs it on
  /// the calling thread when `inlineRun`, the destructor's path).  Never
  /// holds the executor mutex.
  void launchFlush(std::shared_ptr<Group> group, bool inlineRun = false);
  /// Leader run + per-member split.  Static on purpose: flush tasks queued
  /// on the engine pool must not touch executor state that may be tearing
  /// down.
  static void runGroup(QueryEngine& engine, Group& group);

  QueryEngine* engine_;
  obs::Counter* merged_ = nullptr;    ///< members beyond the first, per flush
  obs::Counter* flushes_ = nullptr;   ///< groups executed
  obs::Histogram* width_ = nullptr;   ///< members per flushed group

  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::list<std::shared_ptr<Group>> pending_;
  std::thread timer_;
};

}  // namespace dsud
