// Wire protocol between the coordinator H and the local sites.
//
// Every message is one frame: a MsgType byte followed by the fields encoded
// with ByteWriter (little-endian).  The protocol is strict request/response;
// the site never initiates.  Messages map 1:1 onto the phases of the paper's
// framework (Fig. 4) plus the update maintenance of Sec. 5.4:
//
//   kPrepare        — start a query: site computes SKY(D_i) (local phase)
//   kNextCandidate  — To-Server phase: pull the site's best remaining tuple
//   kEvaluate       — Server-Delivery + Local-Pruning phases: deliver a
//                     candidate, get back P_sky(t, D_x), prune local skyline
//   kShipAll        — the naive baseline: ship the whole local database
//   kFinishQuery    — release the site-side state of one query session
//   kFetchTrace     — pull the site-side span timeline of one session
//   kApplyInsert / kApplyDelete / kRepairDelete / kReplicaAdd /
//   kReplicaRemove  — update maintenance
//   kStreamTuples / kJoinSite / kLeaveSite — elastic membership: a
//                     background repartition streams tuple batches into a
//                     staging store, seals it with one STR bulk load, and
//                     retires the stores of the previous epoch
//
// Sessions: every query-protocol message (kPrepare, kNextCandidate,
// kEvaluate, kFinishQuery) carries a QueryId, so one site serves any number
// of concurrent queries without their cursors or pruning state interfering.
// QueryId 0 is reserved for session-less traffic (update maintenance);
// coordinator-issued ids start at 1.
#pragma once

#include <cstdint>
#include <iterator>
#include <optional>
#include <vector>

#include "common/dataset.hpp"
#include "common/serialize.hpp"
#include "geometry/dominance.hpp"
#include "geometry/rect.hpp"
#include "net/transport.hpp"
#include "obs/trace.hpp"

namespace dsud {

/// Identifies one query session across the coordinator and every site.
/// 0 = session-less traffic (update maintenance); queries get ids >= 1 from
/// Coordinator::nextQueryId().
using QueryId = std::uint64_t;
inline constexpr QueryId kNoQuery = 0;

// ---------------------------------------------------------------------------
// Query configuration

/// Local-pruning rule applied when a feedback tuple arrives (DESIGN.md 3.5).
enum class PruneRule : std::uint8_t {
  /// Exact: drop a local candidate s only when its provable upper bound
  /// P_sky(s, D_i) · Π_{feedback t ≺ s} (1 − P(t)) falls below q.
  kThresholdBound = 0,
  /// Paper-faithful (Sec. 4, Local-Pruning phase): drop every dominated
  /// candidate.  Can lose qualified answers; kept for the ablation.
  kDominance = 1,
};

/// Witnesses used by e-DSUD's global-probability upper bound (DESIGN.md 3.4).
enum class FeedbackBound : std::uint8_t {
  kNone = 0,                ///< no bound: degenerate to DSUD-style broadcast
  kQueuedWitnesses = 1,     ///< Observation 2 over every candidate seen so far
  kQueuedAndConfirmed = 2,  ///< + transitive bound through confirmed tuples
};

/// What e-DSUD does with a queued candidate whose bound falls below q
/// (DESIGN.md 3.4).
enum class ExpungePolicy : std::uint8_t {
  /// Expunge immediately and pull the site's next candidate.  Keeps every
  /// site stream flowing, so strong pruners reach the coordinator early;
  /// the best policy at scale and the default.
  kEager = 0,
  /// Park the candidate and stall its site until no broadcastable candidate
  /// remains (the paper's Sec. 5.3 behaviour): the stalled stream may be
  /// pruned at the site for free, at the cost of deferring that stream's
  /// own feedback.
  kPark = 1,
};

struct QueryConfig {
  double q = 0.3;    ///< probability threshold (paper default)
  DimMask mask = 0;  ///< 0 = all dimensions; otherwise a subspace query
  PruneRule prune = PruneRule::kThresholdBound;
  FeedbackBound bound = FeedbackBound::kQueuedAndConfirmed;
  ExpungePolicy expunge = ExpungePolicy::kEager;
  /// Constrained skyline (Wu et al., paper Sec. 2.1): restrict the query to
  /// tuples inside this window; dominance is evaluated among them only.
  std::optional<Rect> window;

  DimMask effectiveMask(std::size_t dims) const noexcept {
    return mask == 0 ? fullMask(dims) : mask;
  }
};

/// Configuration of the top-k extension (QueryEngine::run(TopKConfig)).
struct TopKConfig {
  std::size_t k = 10;
  /// Site-side enumeration floor: tuples with local skyline probability
  /// below this are never shipped.  The result is exact whenever at least k
  /// tuples have P_gsky >= floorQ.
  double floorQ = 1e-3;
  DimMask mask = 0;  ///< 0 = all dimensions
  std::optional<Rect> window;

  DimMask effectiveMask(std::size_t dims) const noexcept {
    return mask == 0 ? fullMask(dims) : mask;
  }
};

// ---------------------------------------------------------------------------
// Shared payloads

/// The paper's quaternion ⟨i, j, P(t_ij), P_sky(t_ij, D_i)⟩, carrying the
/// tuple coordinates as well (the coordinator needs them for dominance
/// checks and feedback broadcast).  Shipping one Candidate counts as one
/// tuple of bandwidth.
struct Candidate {
  SiteId site = kNoSite;
  Tuple tuple;
  double localSkyProb = 0.0;

  void encode(ByteWriter& w) const;
  static Candidate decode(ByteReader& r);

  friend bool operator==(const Candidate&, const Candidate&) = default;
};

void encodeTuple(ByteWriter& w, const Tuple& t);
Tuple decodeTuple(ByteReader& r);

void encodeOptionalRect(ByteWriter& w, const std::optional<Rect>& rect);
std::optional<Rect> decodeOptionalRect(ByteReader& r);

/// Trace block: the wire form of a site-side span list.  Used both as the
/// kFetchTrace response body and as the optional piggyback trailer appended
/// after query-response bodies (u32 count, the events, u64 dropped).
void encodeTraceBlock(ByteWriter& w, const obs::QueryTrace& trace);
obs::QueryTrace decodeTraceBlock(ByteReader& r);

// ---------------------------------------------------------------------------
// Messages

enum class MsgType : std::uint8_t {
  kPrepare = 1,
  kNextCandidate = 2,
  kEvaluate = 3,
  kShipAll = 4,
  kApplyInsert = 5,
  kApplyDelete = 6,
  kRepairDelete = 7,
  kReplicaAdd = 8,
  kReplicaRemove = 9,
  kFinishQuery = 10,
  kFetchTrace = 11,
  kJoinSite = 12,
  kLeaveSite = 13,
  kStreamTuples = 14,
};

struct PrepareRequest {
  QueryId query = kNoQuery;  ///< session to open (replaces any previous state)
  double q = 0.3;
  DimMask mask = 0;
  PruneRule prune = PruneRule::kThresholdBound;
  std::optional<Rect> window;  ///< constrained-query window
  /// Site-side tracing for this session: 0 leaves the session tracer
  /// disabled (responses stay byte-identical to untraced runs); otherwise
  /// the site records up to this many spans.
  std::uint32_t traceCapacity = 0;
  /// When true (and traceCapacity > 0) the site appends its newly recorded
  /// spans as a trace-block trailer on every query response of this session;
  /// when false they accumulate until a kFetchTrace.
  bool tracePiggyback = false;

  void encode(ByteWriter& w) const;
  static PrepareRequest decode(ByteReader& r);
};

struct PrepareResponse {
  std::uint64_t localSkylineSize = 0;

  void encode(ByteWriter& w) const;
  static PrepareResponse decode(ByteReader& r);
};

struct NextCandidateRequest {
  QueryId query = kNoQuery;  ///< session whose cursor advances
  /// Retry-safe replay: cursor advancement is NOT idempotent, so the RPC
  /// layer numbers each logical pull (per session and site, starting at 1)
  /// and the site answers a repeated seq from its replay cache instead of
  /// advancing again.  0 = no replay protection (legacy/sessionless).
  std::uint64_t seq = 0;

  void encode(ByteWriter& w) const;
  static NextCandidateRequest decode(ByteReader& r);
};

struct NextCandidateResponse {
  std::optional<Candidate> candidate;  ///< empty when the site is exhausted

  void encode(ByteWriter& w) const;
  static NextCandidateResponse decode(ByteReader& r);
};

struct EvaluateRequest {
  QueryId query = kNoQuery;  ///< session whose pending skyline gets pruned
  Tuple tuple;
  DimMask mask = 0;            ///< dominance subspace; 0 = all dimensions
  bool pruneLocal = true;      ///< false during update maintenance
  std::optional<Rect> window;  ///< survival restricted to this window
  /// Retry-safe replay (see NextCandidateRequest::seq): under the
  /// threshold-bound prune rule a duplicated evaluate would fold the
  /// feedback factor into extSurvival twice, so repeated seqs are answered
  /// from the site's replay cache.  0 = no replay protection.
  std::uint64_t seq = 0;

  void encode(ByteWriter& w) const;
  static EvaluateRequest decode(ByteReader& r);
};

struct EvaluateResponse {
  double survival = 1.0;  ///< Π_{t'∈D_x, t'≺t} (1 − P(t'))  (Observation 1)
  std::uint32_t prunedCount = 0;

  void encode(ByteWriter& w) const;
  static EvaluateResponse decode(ByteReader& r);
};

struct ShipAllRequest {
  void encode(ByteWriter&) const {}
  static ShipAllRequest decode(ByteReader&) { return {}; }
};

/// Releases one query session's site-side state (pending skyline, window,
/// thresholds).  Unknown ids are ignored — finish is idempotent and safe to
/// send after a failed query.
struct FinishQueryRequest {
  QueryId query = kNoQuery;

  void encode(ByteWriter& w) const;
  static FinishQueryRequest decode(ByteReader& r);
};

struct ShipAllResponse {
  std::vector<Tuple> tuples;

  void encode(ByteWriter& w) const;
  static ShipAllResponse decode(ByteReader& r);
};

/// Pulls one session's site-side span timeline.  The read is a snapshot —
/// it does not clear the site tracer — so a retried fetch is idempotent;
/// kFinishQuery releases the tracer with the rest of the session state.
/// `query == kNoQuery` fetches the site-level maintenance timeline instead.
struct FetchTraceRequest {
  QueryId query = kNoQuery;

  void encode(ByteWriter& w) const;
  static FetchTraceRequest decode(ByteReader& r);
};

struct FetchTraceResponse {
  obs::QueryTrace trace;

  void encode(ByteWriter& w) const;
  static FetchTraceResponse decode(ByteReader& r);
};

// --- Update maintenance ----------------------------------------------------

struct ApplyInsertRequest {
  Tuple tuple;

  void encode(ByteWriter& w) const;
  static ApplyInsertRequest decode(ByteReader& r);
};

struct ApplyInsertResponse {
  /// P_sky(t, D_i) after insertion (includes P(t)).
  double localSkyProb = 0.0;
  /// localSkyProb multiplied by Π (1 − P(r)) over replica dominators from
  /// other sites: a correct upper bound on P_gsky(t).
  double globalUpperBound = 0.0;
  /// Replica members the inserted tuple dominates (their cached global
  /// probabilities shrink by (1 − P(t))).
  std::vector<TupleId> dominatedReplica;
  /// The site's dataset version after this insert (monotone per-site counter
  /// bumped by every mutation).  The coordinator folds the stamp into its
  /// combined dataset version, invalidating the result cache.
  std::uint64_t datasetVersion = 0;

  void encode(ByteWriter& w) const;
  static ApplyInsertResponse decode(ByteReader& r);
};

struct ApplyDeleteRequest {
  TupleId id = 0;
  std::vector<double> values;

  void encode(ByteWriter& w) const;
  static ApplyDeleteRequest decode(ByteReader& r);
};

struct ApplyDeleteResponse {
  bool existed = false;
  double prob = 0.0;  ///< P(t) of the deleted tuple (0 when !existed)
  /// The site's dataset version after this delete (unchanged when the tuple
  /// did not exist).  See ApplyInsertResponse::datasetVersion.
  std::uint64_t datasetVersion = 0;

  void encode(ByteWriter& w) const;
  static ApplyDeleteResponse decode(ByteReader& r);
};

/// Broadcast after a delete: each site searches the region dominated by the
/// deleted tuple for local candidates that may now qualify globally.  The
/// request is self-contained: it carries the maintained query's threshold
/// and subspace instead of relying on whatever session a site prepared last.
struct RepairDeleteRequest {
  Tuple deleted;
  SiteId origin = kNoSite;  ///< site the delete happened at (already knows t)
  double q = 0.3;           ///< maintained query's probability threshold
  DimMask mask = 0;         ///< maintained query's subspace; 0 = all dims

  void encode(ByteWriter& w) const;
  static RepairDeleteRequest decode(ByteReader& r);
};

struct RepairDeleteResponse {
  std::vector<Candidate> candidates;

  void encode(ByteWriter& w) const;
  static RepairDeleteResponse decode(ByteReader& r);
};

struct ReplicaAddRequest {
  Candidate entry;  ///< site = origin site of the tuple
  double globalSkyProb = 0.0;

  void encode(ByteWriter& w) const;
  static ReplicaAddRequest decode(ByteReader& r);
};

struct ReplicaRemoveRequest {
  TupleId id = 0;

  void encode(ByteWriter& w) const;
  static ReplicaRemoveRequest decode(ByteReader& r);
};

struct AckResponse {
  void encode(ByteWriter&) const {}
  static AckResponse decode(ByteReader&) { return {}; }
};

// --- Elastic membership (online join / leave / repartitioning) -------------
//
// A repartition never mutates a live store: the rebalancer builds *new*
// stores in a staging phase (kStreamTuples batches append to a staging
// dataset), seals each one with kJoinSite (one STR bulk load — bit-identical
// to a from-scratch construction over the same data), atomically installs
// the new membership epoch at the coordinator, and finally marks the old
// stores draining with kLeaveSite.  In-flight query sessions keep their
// pinned epoch's stores until they finish, so queries never block on a
// rebalance.

/// One batch of tuples streamed into a staging store.  `partition` names the
/// partition the store will serve (sanity-checked against the store's id).
/// Batches are ordered; `seq` (per stream, starting at 1) lets the store
/// drop a retried delivery instead of appending twice.
struct StreamTuplesRequest {
  SiteId partition = kNoSite;
  std::uint64_t seq = 0;  ///< 0 = no replay protection
  std::vector<Tuple> tuples;

  void encode(ByteWriter& w) const;
  static StreamTuplesRequest decode(ByteReader& r);
};

struct StreamTuplesResponse {
  std::uint64_t received = 0;  ///< staging size after this batch

  void encode(ByteWriter& w) const;
  static StreamTuplesResponse decode(ByteReader& r);
};

/// Seals a staging store: bulk-loads the PR-tree over everything streamed so
/// far and opens the store for queries.  Idempotent — a retried join on an
/// already-live store acks without rebuilding.
struct JoinSiteRequest {
  std::uint64_t epoch = 0;  ///< membership epoch the store joins at

  void encode(ByteWriter& w) const;
  static JoinSiteRequest decode(ByteReader& r);
};

struct JoinSiteResponse {
  std::uint64_t size = 0;  ///< tuples in the sealed store

  void encode(ByteWriter& w) const;
  static JoinSiteResponse decode(ByteReader& r);
};

/// Marks a store draining: it serves its existing (epoch-pinned) sessions to
/// completion but rejects new prepares.  Idempotent.
struct LeaveSiteRequest {
  std::uint64_t epoch = 0;  ///< epoch that retired the store

  void encode(ByteWriter& w) const;
  static LeaveSiteRequest decode(ByteReader& r);
};

struct LeaveSiteResponse {
  std::uint64_t sessions = 0;  ///< pinned sessions still draining

  void encode(ByteWriter& w) const;
  static LeaveSiteResponse decode(ByteReader& r);
};

// ---------------------------------------------------------------------------
// Framing helpers

/// Builds a frame: MsgType byte + encoded body.
template <typename Msg>
Frame toFrame(MsgType type, const Msg& msg) {
  ByteWriter w;
  w.putU8(static_cast<std::uint8_t>(type));
  msg.encode(w);
  return std::move(w).take();
}

/// Reads and returns the type byte, leaving `r` at the body.
MsgType frameType(ByteReader& r);

/// Decodes a response frame that has no leading type byte.
template <typename Msg>
Msg fromResponseFrame(const Frame& frame) {
  ByteReader r(frame);
  Msg msg = Msg::decode(r);
  r.expectEnd();
  return msg;
}

/// Decodes a response frame that may carry a piggybacked trace-block
/// trailer (query responses of a session prepared with tracePiggyback).
/// The trailer's spans are appended to `*sink`; a frame without a trailer
/// (e.g. the session is gone at the site) decodes like fromResponseFrame.
template <typename Msg>
Msg fromResponseFrameWithTrace(const Frame& frame, obs::QueryTrace* sink) {
  ByteReader r(frame);
  Msg msg = Msg::decode(r);
  if (!r.atEnd()) {
    obs::QueryTrace delta = decodeTraceBlock(r);
    r.expectEnd();
    if (sink != nullptr) {
      sink->events.insert(sink->events.end(),
                          std::make_move_iterator(delta.events.begin()),
                          std::make_move_iterator(delta.events.end()));
      sink->droppedEvents += delta.droppedEvents;
    }
  }
  return msg;
}

/// Encodes a response frame (responses carry no type byte; the request
/// determines the expected response type).
template <typename Msg>
Frame toResponseFrame(const Msg& msg) {
  ByteWriter w;
  msg.encode(w);
  return std::move(w).take();
}

}  // namespace dsud
