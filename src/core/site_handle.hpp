// Coordinator-side view of one local site.
//
// `SiteHandle` is the typed RPC surface the algorithms program against;
// `RpcSiteHandle` is the production implementation that serialises protocol
// messages onto a per-site ChannelPool (in-process or TCP) and meters both
// bytes and the paper's tuple-count bandwidth.
#pragma once

#include <cstdint>
#include <exception>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>
#include <variant>

#include "common/rng.hpp"
#include "core/health.hpp"
#include "core/protocol.hpp"
#include "net/bandwidth.hpp"
#include "net/channel_pool.hpp"
#include "net/fault.hpp"
#include "net/transport.hpp"

namespace dsud {

/// The query-session requests a coordinator issues in waves, and their
/// responses: alternative i of SessionResponse answers alternative i of
/// SessionRequest.
using SessionRequest =
    std::variant<PrepareRequest, NextCandidateRequest, EvaluateRequest,
                 FetchTraceRequest, FinishQueryRequest>;
using SessionResponse =
    std::variant<PrepareResponse, NextCandidateResponse, EvaluateResponse,
                 FetchTraceResponse, AckResponse>;

/// Typed operations the coordinator performs on one site.
///
/// Thread-safety contract: a SiteHandle instance is session-confined — one
/// query session uses one instance.  Concurrent queries each call `openSession`
/// to get their own view; the returned handles may be used from different
/// threads simultaneously because they share only thread-safe state (the
/// channel pool, the meter, the site itself).
class SiteHandle {
 public:
  virtual ~SiteHandle() = default;

  virtual SiteId siteId() const noexcept = 0;

  virtual PrepareResponse prepare(const PrepareRequest& request) = 0;
  virtual NextCandidateResponse nextCandidate(
      const NextCandidateRequest& request) = 0;
  virtual EvaluateResponse evaluate(const EvaluateRequest& request) = 0;
  virtual ShipAllResponse shipAll() = 0;
  virtual void finishQuery(const FinishQueryRequest& request) = 0;

  /// Split-phase form of the session requests, so a query can have one
  /// request in flight to every site at once: `send` issues `request`,
  /// `receive` waits for its response, or throws what the blocking method
  /// would.  At most one request is in flight per handle, and each `send`
  /// is paired with one `receive`.  The default is lazy — `send` parks the
  /// request and `receive` runs the blocking method — so a handle that
  /// overrides only the blocking methods stays correct, just serial.
  virtual void send(SessionRequest request);
  virtual SessionResponse receive();

  virtual ApplyInsertResponse applyInsert(const ApplyInsertRequest&) = 0;
  virtual ApplyDeleteResponse applyDelete(const ApplyDeleteRequest&) = 0;
  virtual RepairDeleteResponse repairDelete(const RepairDeleteRequest&) = 0;
  virtual void replicaAdd(const ReplicaAddRequest&) = 0;
  virtual void replicaRemove(const ReplicaRemoveRequest&) = 0;

  /// Elastic-membership operations (repartitioning traffic).  Only stores
  /// reachable over a transport take part in a rebalance, so the default
  /// implementations reject the call.
  virtual StreamTuplesResponse streamTuples(const StreamTuplesRequest&) {
    throw std::logic_error("SiteHandle: streamTuples not supported");
  }
  virtual JoinSiteResponse joinSite(const JoinSiteRequest&) {
    throw std::logic_error("SiteHandle: joinSite not supported");
  }
  virtual LeaveSiteResponse leaveSite(const LeaveSiteRequest&) {
    throw std::logic_error("SiteHandle: leaveSite not supported");
  }

  /// Pulls the site-side span timeline of one session (site tracing, at
  /// finish time).  Non-transport implementations have no remote timeline
  /// and return an empty trace.
  virtual FetchTraceResponse fetchTrace(const FetchTraceRequest&) {
    return {};
  }

  /// Empty hook, kept because existing SiteHandle decorators (the
  /// benchmark's timing wrapper) override it.  Site spans travel only by
  /// fetchTrace, so the library never calls it.
  virtual void setTraceSink(obs::QueryTrace* /*sink*/) {}

  /// Opens a per-query view of this site whose traffic is additionally
  /// recorded into `scope` (may be null).  RpcSiteHandle returns a clone
  /// sharing its channel pool that accounts bytes exactly.  The parent
  /// handle must outlive the view.  Handles that cannot open sessions
  /// reject the call.
  virtual std::unique_ptr<SiteHandle> openSession(QueryUsage* /*scope*/) {
    throw std::logic_error("SiteHandle: openSession not supported");
  }

  /// Fault-tolerant per-query view: the returned handle applies `fault`
  /// (deadline on every call; retry with backoff around the query-phase
  /// operations prepare / nextCandidate / evaluate / shipAll) and consults
  /// `health` (may be null) as a per-site circuit breaker.  When the retry
  /// budget is exhausted — or the breaker rejects the operation outright —
  /// the handle throws SiteFailure.
  virtual std::unique_ptr<SiteHandle> openSession(
      QueryUsage* /*scope*/, const FaultOptions& /*fault*/,
      SiteHealth* /*health*/, obs::MetricsRegistry* /*metrics*/) {
    throw std::logic_error("SiteHandle: openSession not supported");
  }

  /// Number of transport attempts the last successful query-phase operation
  /// on this handle took (1 = no retries).  Implementations without a retry
  /// layer always report 1.
  virtual std::uint32_t lastAttempts() const noexcept { return 1; }

  /// Sequence numbers assigned to the most recent kNextCandidate/kEvaluate
  /// operations (0 before the first).  The coordinator stamps these on its
  /// RPC spans so merged site spans can be matched back by (site, op, seq).
  virtual std::uint64_t lastNextSeq() const noexcept { return 0; }
  virtual std::uint64_t lastEvalSeq() const noexcept { return 0; }

  /// Circuit breaker this session handle consults (null when none) — lets
  /// the trace layer annotate retried RPCs with the live breaker state
  /// without positional coordinator lookups (indices are not stable once
  /// sites join and leave).  For a failover handle, the breaker of the
  /// currently active replica.
  virtual SiteHealth* sessionHealth() const noexcept { return nullptr; }

  /// Replica switches this session performed so far (EXPLAIN profile).
  /// Non-replicated handles never fail over.
  virtual std::uint64_t failovers() const noexcept { return 0; }

 private:
  std::optional<SessionRequest> parked_;  ///< the default send's request
};

/// SiteHandle over a per-site ChannelPool with bandwidth accounting.
///
/// Tuple accounting follows the paper (Sec. 3.2): one tuple per shipped
/// Candidate or Tuple payload in either direction; probability scalars,
/// flags, and replica-removal ids are control traffic (bytes only).  Update
/// *injections* (ApplyInsert/ApplyDelete requests) are not counted — they
/// model events that originate at the site itself.
///
/// Every request leases a channel from the pool until its response has been
/// read, so concurrent sessions sharing the pool never interleave frames.
/// When constructed with a per-query scope (via openSession), the leased
/// channel's framing overhead and this handle's payload/tuple counts are
/// recorded into the scope as well as the global meter.
class RpcSiteHandle final : public SiteHandle {
 public:
  RpcSiteHandle(SiteId site, std::shared_ptr<ChannelPool> pool,
                BandwidthMeter* meter, QueryUsage* scope = nullptr);

  /// Wraps one pre-built channel in a private capacity-1 pool (serialising
  /// all sessions on it).
  RpcSiteHandle(SiteId site, std::unique_ptr<ClientChannel> channel,
                BandwidthMeter* meter);

  /// Reads any response still in flight, so its channel returns to the pool
  /// in step with the site.
  ~RpcSiteHandle() override;

  SiteId siteId() const noexcept override { return site_; }

  PrepareResponse prepare(const PrepareRequest& request) override;
  NextCandidateResponse nextCandidate(
      const NextCandidateRequest& request) override;
  EvaluateResponse evaluate(const EvaluateRequest& request) override;
  ShipAllResponse shipAll() override;
  void finishQuery(const FinishQueryRequest& request) override;

  ApplyInsertResponse applyInsert(const ApplyInsertRequest&) override;
  ApplyDeleteResponse applyDelete(const ApplyDeleteRequest&) override;
  RepairDeleteResponse repairDelete(const RepairDeleteRequest&) override;
  void replicaAdd(const ReplicaAddRequest&) override;
  void replicaRemove(const ReplicaRemoveRequest&) override;

  StreamTuplesResponse streamTuples(const StreamTuplesRequest&) override;
  JoinSiteResponse joinSite(const JoinSiteRequest&) override;
  LeaveSiteResponse leaveSite(const LeaveSiteRequest&) override;

  FetchTraceResponse fetchTrace(const FetchTraceRequest& request) override;

  /// Leases, numbers, frames and writes the request at send; reads,
  /// decodes, counts and releases the lease at receive.  A transport error
  /// at either step is retried under the session's policy on the same
  /// leased channel, so a wave never leases out of the order it sent in.
  void send(SessionRequest request) override;
  SessionResponse receive() override;

  std::unique_ptr<SiteHandle> openSession(QueryUsage* scope) override;
  std::unique_ptr<SiteHandle> openSession(QueryUsage* scope,
                                          const FaultOptions& fault,
                                          SiteHealth* health,
                                          obs::MetricsRegistry* metrics) override;

  std::uint32_t lastAttempts() const noexcept override { return lastAttempts_; }
  std::uint64_t lastNextSeq() const noexcept override { return nextSeq_; }
  std::uint64_t lastEvalSeq() const noexcept override { return evalSeq_; }
  SiteHealth* sessionHealth() const noexcept override { return health_; }

 private:
  RpcSiteHandle(SiteId site, std::shared_ptr<ChannelPool> pool,
                BandwidthMeter* meter, QueryUsage* scope,
                const FaultOptions& fault, SiteHealth* health,
                obs::MetricsRegistry* metrics);

  /// One request between its send and its response: the frame, the
  /// channel it went out on (leased until the response, retries included),
  /// and why the send failed, if it did.
  struct Exchange {
    Frame frame;
    ChannelPool::Lease lease;
    std::exception_ptr sendError;
    bool admitted = true;  ///< the breaker let the request through
  };

  /// One leased call, no retry (update traffic).
  Frame roundTrip(const Frame& request);
  /// Checks the breaker, leases a channel and writes `request` on it.
  /// Never throws a transport error: `complete` reports it.
  Exchange start(Frame request);
  /// Reads the response of `exchange` under the retry/breaker policy: a
  /// failed attempt replays the same frame, which is only safe for the
  /// operations that use it — kPrepare is idempotent (full session
  /// replace), kShipAll, kFetchTrace and kFinishQuery are pure or
  /// idempotent, and kNextCandidate/kEvaluate/kStreamTuples carry a seq
  /// number the site deduplicates on.
  Frame complete(Exchange& exchange);
  ClientChannel& channel(Exchange& exchange);
  void recordCall(std::size_t requestBytes, std::size_t responseBytes);
  /// Frames `request` under its declared type byte, sends it through
  /// roundTrip (call) or start/complete (retryingCall), and decodes the
  /// request's declared response.
  template <typename Req>
  typename Req::Response call(const Req& request);
  template <typename Req>
  typename Req::Response retryingCall(const Req& request);
  /// Numbers a cursor or feedback request in place, then frames and
  /// starts it.
  Exchange startSession(SessionRequest& request);
  /// Decodes a session request's response and counts its tuples.
  SessionResponse settle(const SessionRequest& request, const Frame& frame);
  /// A blocking session request: send and receive without parking it.
  SessionResponse exchange(SessionRequest request);
  void countTuples(std::uint64_t toSite, std::uint64_t fromSite);

  SiteId site_;
  std::shared_ptr<ChannelPool> pool_;
  BandwidthMeter* meter_;   // may be null (no accounting)
  QueryUsage* scope_;       // may be null (no per-query accounting)

  // Fault-tolerance state (session-confined, like the handle itself).
  FaultOptions fault_;
  SiteHealth* health_ = nullptr;  // shared breaker, owned by the coordinator
  Rng backoffRng_;                // jitter source, seeded per site
  std::uint64_t nextSeq_ = 0;     // kNextCandidate operation numbering
  std::uint64_t evalSeq_ = 0;     // kEvaluate operation numbering
  std::uint64_t streamSeq_ = 0;   // kStreamTuples batch numbering
  std::uint32_t lastAttempts_ = 1;
  obs::Counter* retries_ = nullptr;   // dsud_retries_total{site}
  obs::Counter* timeouts_ = nullptr;  // dsud_timeouts_total{site}
  /// The split-phase request between send and receive.
  std::optional<std::pair<SessionRequest, Exchange>> inFlight_;
};

}  // namespace dsud
