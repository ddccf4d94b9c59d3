#include "core/site_handle.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>

#include "obs/log.hpp"

namespace dsud {

void SiteHandle::send(SessionRequest request) {
  if (parked_) throw std::logic_error("SiteHandle: a request is in flight");
  parked_ = std::move(request);
}

SessionResponse SiteHandle::receive() {
  if (!parked_) throw std::logic_error("SiteHandle: receive without send");
  const SessionRequest request = std::move(*parked_);
  parked_.reset();
  return std::visit(
      [this](const auto& r) -> SessionResponse {
        using Req = std::decay_t<decltype(r)>;
        if constexpr (std::is_same_v<Req, PrepareRequest>) {
          return prepare(r);
        } else if constexpr (std::is_same_v<Req, NextCandidateRequest>) {
          return nextCandidate(r);
        } else if constexpr (std::is_same_v<Req, EvaluateRequest>) {
          return evaluate(r);
        } else if constexpr (std::is_same_v<Req, FetchTraceRequest>) {
          return fetchTrace(r);
        } else {
          finishQuery(r);
          return AckResponse{};
        }
      },
      request);
}

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

RpcSiteHandle::~RpcSiteHandle() {
  if (!inFlight_) return;
  Exchange& x = inFlight_->second;
  if (!x.lease || x.sendError) return;
  try {
    x.lease->receive();
  } catch (...) {
    // The channel reports its own failure to the next lease holder.
  }
}

void RpcSiteHandle::recordCall(std::size_t requestBytes,
                               std::size_t responseBytes) {
  if (meter_ != nullptr) {
    meter_->recordCall(site_, requestBytes, responseBytes);
  }
  if (scope_ != nullptr) scope_->recordCall(requestBytes, responseBytes);
}

Frame RpcSiteHandle::roundTrip(const Frame& request) {
  Frame response;
  {
    ChannelPool::Lease lease = pool_->acquire();
    lease->setUsageScope(scope_);
    lease->setDeadline(fault_.deadline);
    response = lease->call(request);
  }  // lease destructor clears the scope/deadline and returns the channel
  recordCall(request.size(), response.size());
  return response;
}

ClientChannel& RpcSiteHandle::channel(Exchange& exchange) {
  if (!exchange.lease) {
    exchange.lease = pool_->acquire();
    exchange.lease->setUsageScope(scope_);
    exchange.lease->setDeadline(fault_.deadline);
  }
  return *exchange.lease;
}

RpcSiteHandle::Exchange RpcSiteHandle::start(Frame request) {
  Exchange exchange{std::move(request), {}, nullptr, true};
  if (health_ != nullptr && !health_->admit()) {
    exchange.admitted = false;
    return exchange;
  }
  try {
    channel(exchange).send(exchange.frame);
  } catch (...) {
    exchange.sendError = std::current_exception();
  }
  return exchange;
}

Frame RpcSiteHandle::complete(Exchange& exchange) {
  if (!exchange.admitted) throw SiteFailure(site_, 0, "circuit breaker open");
  const std::uint32_t maxAttempts =
      std::max<std::uint32_t>(fault_.retry.maxAttempts, 1);
  for (std::uint32_t attempt = 1;; ++attempt) {
    std::string why;
    try {
      Frame response;
      if (attempt > 1) {
        response = channel(exchange).call(exchange.frame);
      } else if (exchange.sendError) {
        std::rethrow_exception(exchange.sendError);
      } else {
        response = exchange.lease->receive();
      }
      exchange.lease = {};  // clears the scope/deadline, returns the channel
      recordCall(exchange.frame.size(), response.size());
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
      exchange.lease = {};
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

template <typename Req>
typename Req::Response RpcSiteHandle::call(const Req& request) {
  return fromResponseFrame<typename Req::Response>(roundTrip(toFrame(request)));
}

template <typename Req>
typename Req::Response RpcSiteHandle::retryingCall(const Req& request) {
  Exchange exchange = start(toFrame(request));
  return fromResponseFrame<typename Req::Response>(complete(exchange));
}

void RpcSiteHandle::countTuples(std::uint64_t toSite, std::uint64_t fromSite) {
  if (toSite == 0 && fromSite == 0) return;
  if (meter_ != nullptr) meter_->recordTuples(site_, toSite, fromSite);
  if (scope_ != nullptr) scope_->recordTuples(toSite + fromSite);
}

RpcSiteHandle::Exchange RpcSiteHandle::startSession(SessionRequest& request) {
  // Cursor advancement is not idempotent, and under kThresholdBound an
  // evaluate folds the delivered tuple into every pending entry's
  // extSurvival, which must happen exactly once per logical delivery.  So
  // both are numbered and the site deduplicates a retried delivery; every
  // attempt replays the same frame, hence the same seq.
  if (auto* next = std::get_if<NextCandidateRequest>(&request)) {
    next->seq = ++nextSeq_;
  } else if (auto* eval = std::get_if<EvaluateRequest>(&request)) {
    eval->seq = ++evalSeq_;
  }
  return start(std::visit([](const auto& r) { return toFrame(r); }, request));
}

SessionResponse RpcSiteHandle::settle(const SessionRequest& request,
                                      const Frame& frame) {
  return std::visit(
      [&](const auto& r) -> SessionResponse {
        using Req = std::decay_t<decltype(r)>;
        auto msg = fromResponseFrame<typename Req::Response>(frame);
        // A pulled candidate and a broadcast tuple each ship one tuple;
        // prepare, trace fetch and finish are control traffic.
        if constexpr (std::is_same_v<Req, NextCandidateRequest>) {
          countTuples(0, msg.candidate.has_value() ? 1 : 0);
        } else if constexpr (std::is_same_v<Req, EvaluateRequest>) {
          countTuples(1, 0);
        }
        return msg;
      },
      request);
}

SessionResponse RpcSiteHandle::exchange(SessionRequest request) {
  Exchange exchange = startSession(request);
  return settle(request, complete(exchange));
}

void RpcSiteHandle::send(SessionRequest request) {
  if (inFlight_) {
    throw std::logic_error("RpcSiteHandle: a request is in flight");
  }
  Exchange exchange = startSession(request);
  inFlight_.emplace(std::move(request), std::move(exchange));
}

SessionResponse RpcSiteHandle::receive() {
  if (!inFlight_) throw std::logic_error("RpcSiteHandle: receive without send");
  auto [request, exchange] = std::move(*inFlight_);
  inFlight_.reset();
  return settle(request, complete(exchange));
}

PrepareResponse RpcSiteHandle::prepare(const PrepareRequest& request) {
  return std::get<PrepareResponse>(exchange(request));
}

NextCandidateResponse RpcSiteHandle::nextCandidate(
    const NextCandidateRequest& request) {
  return std::get<NextCandidateResponse>(exchange(request));
}

EvaluateResponse RpcSiteHandle::evaluate(const EvaluateRequest& request) {
  return std::get<EvaluateResponse>(exchange(request));
}

ShipAllResponse RpcSiteHandle::shipAll() {
  // Pure read: safe to replay.
  auto msg = retryingCall(ShipAllRequest{});
  countTuples(0, msg.tuples.size());
  return msg;
}

FetchTraceResponse RpcSiteHandle::fetchTrace(
    const FetchTraceRequest& request) {
  // Snapshot read (the site does not clear on fetch): safe to replay.
  return std::get<FetchTraceResponse>(exchange(request));
}

void RpcSiteHandle::finishQuery(const FinishQueryRequest& request) {
  // Control traffic: releases session state, ships no tuples.  Finish is
  // idempotent (sites drop unknown ids), so it shares the retry budget —
  // otherwise a transient fault on the final frame would silently leak the
  // site-side session and skew the run's round-trip accounting.
  exchange(request);
}

ApplyInsertResponse RpcSiteHandle::applyInsert(
    const ApplyInsertRequest& request) {
  // Injection of a site-local event: not a network tuple.
  return call(request);
}

ApplyDeleteResponse RpcSiteHandle::applyDelete(
    const ApplyDeleteRequest& request) {
  return call(request);
}

RepairDeleteResponse RpcSiteHandle::repairDelete(
    const RepairDeleteRequest& request) {
  auto msg = call(request);
  // The origin site already knows the deleted tuple; only remote deliveries
  // ship it.
  countTuples(request.origin == site_ ? 0 : 1, msg.candidates.size());
  return msg;
}

void RpcSiteHandle::replicaAdd(const ReplicaAddRequest& request) {
  call(request);
  // The origin site already holds the tuple; shipping to it is id-only in a
  // real deployment.
  countTuples(request.entry.site == site_ ? 0 : 1, 0);
}

void RpcSiteHandle::replicaRemove(const ReplicaRemoveRequest& request) {
  call(request);
}

StreamTuplesResponse RpcSiteHandle::streamTuples(
    const StreamTuplesRequest& request) {
  // Batch append is not idempotent, so the stream is numbered like
  // kNextCandidate: all retry attempts replay the same frame (same seq) and
  // the store's replay cache drops the duplicates.
  StreamTuplesRequest numbered = request;
  numbered.seq = ++streamSeq_;
  auto msg = retryingCall(numbered);
  // Repartition traffic moves real tuples; it shares the paper's bandwidth
  // accounting so the churn bench can report the cost of a rebalance.
  countTuples(request.tuples.size(), 0);
  return msg;
}

JoinSiteResponse RpcSiteHandle::joinSite(const JoinSiteRequest& request) {
  // Idempotent (a live store just acks): safe to retry.
  return retryingCall(request);
}

LeaveSiteResponse RpcSiteHandle::leaveSite(const LeaveSiteRequest& request) {
  // Idempotent: draining is a latch.
  return retryingCall(request);
}

}  // namespace dsud
