#include "core/batch.hpp"

#include <algorithm>
#include <utility>

#include "core/query_engine.hpp"
#include "obs/log.hpp"
#include "skyline/spec.hpp"

namespace dsud {

namespace {

bool sameFaultHandling(const FaultOptions& a, const FaultOptions& b) {
  return a.deadline == b.deadline &&
         a.retry.maxAttempts == b.retry.maxAttempts &&
         a.retry.initialBackoff == b.retry.initialBackoff &&
         a.retry.backoffMultiplier == b.retry.backoffMultiplier &&
         a.retry.maxBackoff == b.retry.maxBackoff &&
         a.onSiteFailure == b.onSiteFailure;
}

}  // namespace

BatchExecutor::BatchExecutor(QueryEngine& engine,
                             obs::MetricsRegistry* metrics)
    : engine_(&engine) {
  if (metrics != nullptr) {
    merged_ = &metrics->counter("dsud_batch_merged_total");
    flushes_ = &metrics->counter("dsud_batch_flushes_total");
    width_ = &metrics->histogram("dsud_batch_width",
                                 {1, 2, 4, 8, 16, 32, 64, 128});
  }
}

bool BatchExecutor::compatible(const Group& group, Algo algo,
                               const QueryConfig& config,
                               const QueryOptions& options) const {
  if (group.algo != algo) return false;
  const std::size_t dims = engine_->coordinator().dims();
  if (group.config.effectiveMask(dims) != config.effectiveMask(dims)) {
    return false;
  }
  if (group.config.prune != config.prune ||
      group.config.bound != config.bound ||
      group.config.expunge != config.expunge) {
    return false;
  }
  const SkylineSpec mine{0, 0.0,
                         group.config.window ? &*group.config.window : nullptr};
  const SkylineSpec theirs{0, 0.0,
                           config.window ? &*config.window : nullptr};
  if (!mine.compatibleWith(theirs)) return false;
  // Members share one leader session, so its failure semantics must be
  // everyone's failure semantics.
  return sameFaultHandling(group.options.fault, options.fault);
}

QueryResult BatchExecutor::run(Algo algo, const QueryConfig& config,
                               const QueryOptions& options, QueryId id) {
  Member member;
  member.id = id;
  member.q = config.q;
  member.progress = options.progress;
  member.cancel = options.cancel;
  std::future<QueryResult> answer = member.promise.get_future();

  std::unique_lock lock(mutex_);
  for (auto it = pending_.begin(); it != pending_.end(); ++it) {
    Group& group = **it;
    if (!compatible(group, algo, config, options)) continue;
    group.members.push_back(std::move(member));
    if (group.members.size() >= group.maxMerge) {
      group.closed = true;
      pending_.erase(it);
      // Under the lock: once it is released the opener may run the group
      // and return, taking the group off its stack.
      group.full.notify_one();
    }
    lock.unlock();
    return answer.get();
  }

  Group group;
  group.algo = algo;
  group.config = config;
  group.options = options;
  group.maxMerge = std::max<std::size_t>(options.batching.maxMerge, 1);
  group.members.push_back(std::move(member));
  if (group.maxMerge > 1) {
    pending_.push_back(&group);
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(
                               std::max(options.batching.windowSeconds, 0.0)));
    group.full.wait_until(lock, deadline, [&group] { return group.closed; });
    if (!group.closed) {
      group.closed = true;
      std::erase(pending_, &group);
    }
  }
  lock.unlock();
  // The opener runs the group even when its own query was cancelled while
  // parked: the joiners wait on it.
  flush(group);
  return answer.get();
}

void BatchExecutor::flush(Group& group) {
  const std::size_t width = group.members.size();
  if (flushes_ != nullptr) flushes_->inc();
  if (width_ != nullptr) width_->observe(static_cast<double>(width));
  if (merged_ != nullptr && width > 1) merged_->add(width - 1);
  obs::eventLog().emit(LogLevel::kInfo, "batch", "batch.flush",
                       {obs::field("algo", algoName(group.algo)),
                        obs::field("width", width)});

  // Members cancelled while parked observe QueryCancelled exactly like a
  // cancelled solo run; they must not hold the group's threshold down.
  std::vector<Member*> live;
  live.reserve(group.members.size());
  for (Member& m : group.members) {
    if (m.cancel != nullptr && m.cancel->load(std::memory_order_relaxed)) {
      m.promise.set_exception(std::make_exception_ptr(QueryCancelled(m.id)));
    } else {
      live.push_back(&m);
    }
  }
  if (live.empty()) return;

  QueryConfig config = group.config;
  config.q = live.front()->q;
  for (const Member* m : live) config.q = std::min(config.q, m->q);
  const QueryId leaderId = live.front()->id;

  QueryOptions options = group.options;
  options.batching = {};
  options.cancel = nullptr;  // members may outlive any one client's interest
  options.traceCapacity = 0;
  std::vector<std::uint64_t> seq(live.size(), 0);
  options.progress = [&](const GlobalSkylineEntry& entry,
                         const ProgressPoint& point) {
    for (std::size_t i = 0; i < live.size(); ++i) {
      Member& m = *live[i];
      if (entry.globalSkyProb < m.q || !m.progress) continue;
      ProgressPoint mine = point;
      mine.reported = ++seq[i];
      m.progress(entry, mine);
    }
  };

  QueryResult leader;
  try {
    leader = engine_->dispatch(group.algo, config, options, leaderId);
    leader.profile.batch = live.size() > 1 ? "leader" : "solo";
    leader.profile.batchWidth = live.size();
  } catch (...) {
    const std::exception_ptr error = std::current_exception();
    for (Member* m : live) m->promise.set_exception(error);
    return;
  }

  for (std::size_t i = 0; i < live.size(); ++i) {
    Member& m = *live[i];
    QueryResult result;
    result.id = m.id;
    result.stats = leader.stats;  // the shared descent's totals
    result.degraded = leader.degraded;
    result.excludedSites = leader.excludedSites;
    result.profile = leader.profile;  // the shared descent's cost, per member
    if (m.id != leaderId) result.profile.batch = "member";
    for (std::size_t j = 0; j < leader.skyline.size(); ++j) {
      const GlobalSkylineEntry& entry = leader.skyline[j];
      if (entry.globalSkyProb < m.q) continue;
      result.skyline.push_back(entry);
      ProgressPoint point =
          j < leader.progress.size() ? leader.progress[j] : ProgressPoint{};
      point.reported = result.skyline.size();
      result.progress.push_back(point);
    }
    m.promise.set_value(std::move(result));
  }
}

}  // namespace dsud
