#include "core/site_handle.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "obs/log.hpp"

namespace dsud {

RpcSiteHandle::RpcSiteHandle(SiteId site, std::shared_ptr<ChannelPool> pool,
                             BandwidthMeter* meter, QueryUsage* scope)
    : site_(site),
      pool_(std::move(pool)),
      meter_(meter),
      scope_(scope),
      backoffRng_(Rng(0x6a77c0ffULL).split(site)) {
  if (!pool_) {
    throw std::invalid_argument("RpcSiteHandle: null channel pool");
  }
}

RpcSiteHandle::RpcSiteHandle(SiteId site, std::shared_ptr<ChannelPool> pool,
                             BandwidthMeter* meter, QueryUsage* scope,
                             const FaultOptions& fault, SiteHealth* health,
                             obs::MetricsRegistry* metrics)
    : RpcSiteHandle(site, std::move(pool), meter, scope) {
  fault_ = fault;
  health_ = health;
  if (metrics != nullptr) {
    const std::string label = std::to_string(site);
    retries_ = &metrics->counter(
        obs::labeled("dsud_retries_total", {{"site", label}}));
    timeouts_ = &metrics->counter(
        obs::labeled("dsud_timeouts_total", {{"site", label}}));
  }
}

RpcSiteHandle::RpcSiteHandle(SiteId site,
                             std::unique_ptr<ClientChannel> channel,
                             BandwidthMeter* meter)
    : RpcSiteHandle(site, std::make_shared<ChannelPool>(std::move(channel)),
                    meter) {}

std::unique_ptr<SiteHandle> RpcSiteHandle::openSession(QueryUsage* scope) {
  return std::make_unique<RpcSiteHandle>(site_, pool_, meter_, scope);
}

std::unique_ptr<SiteHandle> RpcSiteHandle::openSession(
    QueryUsage* scope, const FaultOptions& fault, SiteHealth* health,
    obs::MetricsRegistry* metrics) {
  return std::unique_ptr<SiteHandle>(
      new RpcSiteHandle(site_, pool_, meter_, scope, fault, health, metrics));
}

Frame RpcSiteHandle::roundTrip(const Frame& request) {
  Frame response;
  {
    ChannelPool::Lease lease = pool_->acquire();
    lease->setUsageScope(scope_);
    lease->setDeadline(fault_.deadline);
    response = lease->call(request);
  }  // lease destructor clears the scope/deadline and returns the channel
  if (meter_ != nullptr) {
    meter_->recordCall(site_, request.size(), response.size());
  }
  if (scope_ != nullptr) {
    scope_->recordCall(request.size(), response.size());
  }
  return response;
}

Frame RpcSiteHandle::retryingRoundTrip(const Frame& request) {
  if (health_ != nullptr && !health_->admit()) {
    throw SiteFailure(site_, 0, "circuit breaker open");
  }
  const std::uint32_t maxAttempts =
      std::max<std::uint32_t>(fault_.retry.maxAttempts, 1);
  for (std::uint32_t attempt = 1;; ++attempt) {
    std::string why;
    try {
      Frame response = roundTrip(request);
      lastAttempts_ = attempt;
      if (health_ != nullptr) health_->recordSuccess();
      return response;
    } catch (const SiteFailure&) {
      throw;  // already classified by a nested layer
    } catch (const NetTimeout& e) {
      if (timeouts_ != nullptr) timeouts_->inc();
      why = e.what();
    } catch (const NetError& e) {
      // Transport failure only; application errors (SerializeError,
      // std::logic_error, ...) propagate — retrying cannot fix them.
      why = e.what();
    }
    if (attempt >= maxAttempts) {
      if (health_ != nullptr) health_->recordFailure();
      throw SiteFailure(site_, attempt, why);
    }
    if (retries_ != nullptr) retries_->inc();
    obs::eventLog().emit(LogLevel::kWarn, "rpc", "rpc.retry",
                         {obs::field("site", site_),
                          obs::field("attempt", attempt),
                          obs::field("reason", why)});
    const auto delay = fault_.retry.backoff(attempt, backoffRng_);
    if (delay.count() > 0) std::this_thread::sleep_for(delay);
  }
}

void RpcSiteHandle::countTuples(std::uint64_t toSite, std::uint64_t fromSite) {
  if (toSite == 0 && fromSite == 0) return;
  if (meter_ != nullptr) meter_->recordTuples(site_, toSite, fromSite);
  if (scope_ != nullptr) scope_->recordTuples(toSite + fromSite);
}

PrepareResponse RpcSiteHandle::prepare(const PrepareRequest& request) {
  // Idempotent: a replayed kPrepare replaces the session wholesale.
  const Frame response = retryingRoundTrip(toFrame(MsgType::kPrepare, request));
  return fromResponseFrame<PrepareResponse>(response);
}

NextCandidateResponse RpcSiteHandle::nextCandidate(
    const NextCandidateRequest& request) {
  // Number the operation so the site can deduplicate a retried delivery
  // (cursor advancement is not idempotent).  All attempts replay the same
  // frame, hence the same seq.
  NextCandidateRequest numbered = request;
  numbered.seq = ++nextSeq_;
  const Frame response =
      retryingRoundTrip(toFrame(MsgType::kNextCandidate, numbered));
  auto msg = fromResponseFrame<NextCandidateResponse>(response);
  countTuples(0, msg.candidate.has_value() ? 1 : 0);
  return msg;
}

EvaluateResponse RpcSiteHandle::evaluate(const EvaluateRequest& request) {
  // Numbered like nextCandidate: under kThresholdBound the site folds the
  // delivered tuple into every pending entry's extSurvival, which must
  // happen exactly once per logical delivery.
  EvaluateRequest numbered = request;
  numbered.seq = ++evalSeq_;
  const Frame response =
      retryingRoundTrip(toFrame(MsgType::kEvaluate, numbered));
  countTuples(1, 0);
  return fromResponseFrame<EvaluateResponse>(response);
}

ShipAllResponse RpcSiteHandle::shipAll() {
  // Pure read: safe to replay.
  const Frame response =
      retryingRoundTrip(toFrame(MsgType::kShipAll, ShipAllRequest{}));
  auto msg = fromResponseFrame<ShipAllResponse>(response);
  countTuples(0, msg.tuples.size());
  return msg;
}

FetchTraceResponse RpcSiteHandle::fetchTrace(
    const FetchTraceRequest& request) {
  // Snapshot read (the site does not clear on fetch): safe to replay.
  const Frame response =
      retryingRoundTrip(toFrame(MsgType::kFetchTrace, request));
  return fromResponseFrame<FetchTraceResponse>(response);
}

void RpcSiteHandle::finishQuery(const FinishQueryRequest& request) {
  // Control traffic: releases session state, ships no tuples.  Finish is
  // idempotent (sites drop unknown ids), so it shares the retry budget —
  // otherwise a transient fault on the final frame would silently leak the
  // site-side session and skew the run's round-trip accounting.
  const Frame response =
      retryingRoundTrip(toFrame(MsgType::kFinishQuery, request));
  fromResponseFrame<AckResponse>(response);
}

ApplyInsertResponse RpcSiteHandle::applyInsert(
    const ApplyInsertRequest& request) {
  // Injection of a site-local event: not a network tuple.
  const Frame response = roundTrip(toFrame(MsgType::kApplyInsert, request));
  return fromResponseFrame<ApplyInsertResponse>(response);
}

ApplyDeleteResponse RpcSiteHandle::applyDelete(
    const ApplyDeleteRequest& request) {
  const Frame response = roundTrip(toFrame(MsgType::kApplyDelete, request));
  return fromResponseFrame<ApplyDeleteResponse>(response);
}

RepairDeleteResponse RpcSiteHandle::repairDelete(
    const RepairDeleteRequest& request) {
  const Frame response = roundTrip(toFrame(MsgType::kRepairDelete, request));
  auto msg = fromResponseFrame<RepairDeleteResponse>(response);
  // The origin site already knows the deleted tuple; only remote deliveries
  // ship it.
  countTuples(request.origin == site_ ? 0 : 1, msg.candidates.size());
  return msg;
}

void RpcSiteHandle::replicaAdd(const ReplicaAddRequest& request) {
  const Frame response = roundTrip(toFrame(MsgType::kReplicaAdd, request));
  fromResponseFrame<AckResponse>(response);
  // The origin site already holds the tuple; shipping to it is id-only in a
  // real deployment.
  countTuples(request.entry.site == site_ ? 0 : 1, 0);
}

void RpcSiteHandle::replicaRemove(const ReplicaRemoveRequest& request) {
  const Frame response = roundTrip(toFrame(MsgType::kReplicaRemove, request));
  fromResponseFrame<AckResponse>(response);
}

StreamTuplesResponse RpcSiteHandle::streamTuples(
    const StreamTuplesRequest& request) {
  // Batch append is not idempotent, so the stream is numbered like
  // kNextCandidate: all retry attempts replay the same frame (same seq) and
  // the store's replay cache drops the duplicates.
  StreamTuplesRequest numbered = request;
  numbered.seq = ++streamSeq_;
  const Frame response =
      retryingRoundTrip(toFrame(MsgType::kStreamTuples, numbered));
  auto msg = fromResponseFrame<StreamTuplesResponse>(response);
  // Repartition traffic moves real tuples; it shares the paper's bandwidth
  // accounting so the churn bench can report the cost of a rebalance.
  countTuples(request.tuples.size(), 0);
  return msg;
}

JoinSiteResponse RpcSiteHandle::joinSite(const JoinSiteRequest& request) {
  // Idempotent (a live store just acks): safe to retry.
  const Frame response =
      retryingRoundTrip(toFrame(MsgType::kJoinSite, request));
  return fromResponseFrame<JoinSiteResponse>(response);
}

LeaveSiteResponse RpcSiteHandle::leaveSite(const LeaveSiteRequest& request) {
  // Idempotent: draining is a latch.
  const Frame response =
      retryingRoundTrip(toFrame(MsgType::kLeaveSite, request));
  return fromResponseFrame<LeaveSiteResponse>(response);
}

}  // namespace dsud
