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
#include <optional>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
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
// Wire encoding
//
// A message, or a payload nested in one, declares its wire fields once, in
// wire order:
//
//   static auto fields(auto& m) { return wire::fields(m.query, m.seq); }
//
// wire::put and wire::get walk that list, so one declaration drives both
// directions.  The leaves are the fixed-width unsigned integers, f64, bool,
// enums (as their underlying type) and strings; `std::vector<T>` travels as
// a u32 count and the items, `std::optional<T>` as a bool and, when set, the
// T.  Any other field type (a signed integer, a float) fails to compile, so
// every field travels at the width its declared C++ type names.

namespace wire {

/// A field list: references to the message's members (or to wrappers such
/// as Prob around them), in wire order.
template <typename... F>
auto fields(F&&... f) {
  return std::tuple<F...>(std::forward<F>(f)...);
}

/// An existential probability: an f64 that the reader rejects unless it is
/// in (0, 1] (NaN included).
template <typename D>
struct Prob {
  D& value;
};

/// The field list of T: T's own `fields`, or one of the specialisations
/// below for payload types defined outside the protocol.
template <typename T>
struct FieldList {
  static auto of(auto& m) { return T::fields(m); }
};
template <>
struct FieldList<Tuple> {
  static auto of(auto& t) { return fields(t.id, Prob{t.prob}, t.values); }
};
template <typename A, typename B>
struct FieldList<std::pair<A, B>> {
  static auto of(auto& p) { return fields(p.first, p.second); }
};
template <>
struct FieldList<obs::TraceEvent> {
  static auto of(auto& e) {
    return fields(e.name, e.parent, e.startNs, e.endNs, e.attrs);
  }
};
/// A trace block: the span list, then the dropped-span count.
template <>
struct FieldList<obs::QueryTrace> {
  static auto of(auto& t) { return fields(t.events, t.droppedEvents); }
};

template <typename T>
inline constexpr bool kIsVector = false;
template <typename T>
inline constexpr bool kIsVector<std::vector<T>> = true;
template <typename T>
inline constexpr bool kIsOptional = false;
template <typename T>
inline constexpr bool kIsOptional<std::optional<T>> = true;
template <typename T>
inline constexpr bool kIsProb = false;
template <typename D>
inline constexpr bool kIsProb<Prob<D>> = true;

/// A Rect travels as u8 dims, dims×f64 lo, then dims×f64 hi; the reader
/// rejects dims outside [1, kMaxDims].
void putRect(ByteWriter& w, const Rect& rect);
Rect getRect(ByteReader& r);

/// The fewest bytes one T can encode to: the reader's bound on a claimed
/// vector count.
template <typename T>
constexpr std::size_t minSize() {
  if constexpr (std::is_arithmetic_v<T> || std::is_enum_v<T>) {
    return sizeof(T);
  } else if constexpr (kIsProb<T>) {
    return sizeof(double);
  } else if constexpr (std::is_same_v<T, std::string> || kIsVector<T>) {
    return sizeof(std::uint32_t);
  } else if constexpr (kIsOptional<T>) {
    return 1;
  } else {
    using List = decltype(FieldList<T>::of(std::declval<T&>()));
    return []<typename... F>(std::tuple<F...>*) {
      return (minSize<std::remove_cvref_t<F>>() + ... + 0);
    }(static_cast<List*>(nullptr));
  }
}

template <typename T>
void put(ByteWriter& w, const T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    w.putBool(v);
  } else if constexpr (std::is_enum_v<T>) {
    put(w, static_cast<std::underlying_type_t<T>>(v));
  } else if constexpr (std::is_same_v<T, double>) {
    w.putF64(v);
  } else if constexpr (std::is_unsigned_v<T>) {
    w.putLittleEndian(v);
  } else if constexpr (std::is_same_v<T, std::string>) {
    w.putString(v);
  } else if constexpr (std::is_same_v<T, Rect>) {
    putRect(w, v);
  } else if constexpr (kIsProb<T>) {
    w.putF64(v.value);
  } else if constexpr (kIsOptional<T>) {
    w.putBool(v.has_value());
    if (v) put(w, *v);
  } else if constexpr (kIsVector<T>) {
    w.putU32(static_cast<std::uint32_t>(v.size()));
    for (const auto& item : v) put(w, item);
  } else {
    static_assert(std::is_class_v<T>, "wire: field type has no wire width");
    std::apply([&](const auto&... f) { (put(w, f), ...); },
               FieldList<T>::of(v));
  }
}

/// Reads into `v`; throws SerializeError on truncated or invalid bytes.
template <typename T>
void get(ByteReader& r, T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    v = r.getBool();
  } else if constexpr (std::is_enum_v<T>) {
    v = static_cast<T>(r.getLittleEndian<std::underlying_type_t<T>>());
  } else if constexpr (std::is_same_v<T, double>) {
    v = r.getF64();
  } else if constexpr (std::is_unsigned_v<T>) {
    v = r.getLittleEndian<T>();
  } else if constexpr (std::is_same_v<T, std::string>) {
    v = r.getString();
  } else if constexpr (std::is_same_v<T, Rect>) {
    v = getRect(r);
  } else if constexpr (kIsProb<T>) {
    v.value = r.getF64();
    if (!(v.value > 0.0 && v.value <= 1.0)) {
      throw SerializeError("wire: probability outside (0, 1]");
    }
  } else if constexpr (kIsOptional<T>) {
    v.reset();
    if (r.getBool()) get(r, v.emplace());
  } else if constexpr (kIsVector<T>) {
    // Check the claimed count against the bytes left before allocating, so
    // a hostile count fails here rather than in the allocator.
    using Item = typename T::value_type;
    static_assert(minSize<Item>() > 0);
    const std::uint32_t n = r.getU32();
    if (static_cast<std::size_t>(n) * minSize<Item>() > r.remaining()) {
      throw SerializeError("wire: vector count exceeds the bytes left");
    }
    v.resize(n);
    for (Item& item : v) get(r, item);
  } else {
    static_assert(std::is_class_v<T>, "wire: field type has no wire width");
    std::apply([&](auto&&... f) { (get(r, f), ...); }, FieldList<T>::of(v));
  }
}

}  // namespace wire

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

  static auto fields(auto& m) {
    return wire::fields(m.site, m.localSkyProb, m.tuple);
  }

  friend bool operator==(const Candidate&, const Candidate&) = default;
};

// ---------------------------------------------------------------------------
// Messages
//
// Besides its fields, each request names its frame type byte (`kType`), its
// response (`Response`), and `serve`, which runs it on a LocalSite.  An
// operation that returns nothing answers AckResponse.

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

struct AckResponse {
  static auto fields(auto&) { return wire::fields(); }
};

struct PrepareResponse {
  std::uint64_t localSkylineSize = 0;

  static auto fields(auto& m) { return wire::fields(m.localSkylineSize); }
};

struct PrepareRequest {
  QueryId query = kNoQuery;  ///< session to open (replaces any previous state)
  double q = 0.3;
  DimMask mask = 0;
  PruneRule prune = PruneRule::kThresholdBound;
  std::optional<Rect> window;  ///< constrained-query window
  /// Site-side tracing for this session: 0 leaves the session tracer
  /// disabled; otherwise the site records up to this many spans, which
  /// accumulate until a kFetchTrace.  Responses are byte-identical either
  /// way.
  std::uint32_t traceCapacity = 0;

  static constexpr MsgType kType = MsgType::kPrepare;
  using Response = PrepareResponse;
  static auto fields(auto& m) {
    return wire::fields(m.query, m.q, m.mask, m.prune, m.window,
                        m.traceCapacity);
  }
  static auto serve(auto& s, const auto& r) { return s.prepare(r); }
};

struct NextCandidateResponse {
  std::optional<Candidate> candidate;  ///< empty when the site is exhausted

  static auto fields(auto& m) { return wire::fields(m.candidate); }
};

struct NextCandidateRequest {
  QueryId query = kNoQuery;  ///< session whose cursor advances
  /// Retry-safe replay: cursor advancement is NOT idempotent, so the RPC
  /// layer numbers each logical pull (per session and site, starting at 1)
  /// and the site answers a repeated seq from its replay cache instead of
  /// advancing again.  0 = no replay protection (legacy/sessionless).
  std::uint64_t seq = 0;

  static constexpr MsgType kType = MsgType::kNextCandidate;
  using Response = NextCandidateResponse;
  static auto fields(auto& m) { return wire::fields(m.query, m.seq); }
  static auto serve(auto& s, const auto& r) { return s.nextCandidate(r); }
};

struct EvaluateResponse {
  double survival = 1.0;  ///< Π_{t'∈D_x, t'≺t} (1 − P(t'))  (Observation 1)
  std::uint32_t prunedCount = 0;

  static auto fields(auto& m) {
    return wire::fields(m.survival, m.prunedCount);
  }
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

  static constexpr MsgType kType = MsgType::kEvaluate;
  using Response = EvaluateResponse;
  static auto fields(auto& m) {
    return wire::fields(m.query, m.seq, m.tuple, m.mask, m.pruneLocal,
                        m.window);
  }
  static auto serve(auto& s, const auto& r) { return s.evaluate(r); }
};

struct ShipAllResponse {
  std::vector<Tuple> tuples;

  static auto fields(auto& m) { return wire::fields(m.tuples); }
};

struct ShipAllRequest {
  static constexpr MsgType kType = MsgType::kShipAll;
  using Response = ShipAllResponse;
  static auto fields(auto&) { return wire::fields(); }
  static auto serve(auto& s, const auto&) { return s.shipAll(); }
};

/// Releases one query session's site-side state (pending skyline, window,
/// thresholds).  Unknown ids are ignored — finish is idempotent and safe to
/// send after a failed query.
struct FinishQueryRequest {
  QueryId query = kNoQuery;

  static constexpr MsgType kType = MsgType::kFinishQuery;
  using Response = AckResponse;
  static auto fields(auto& m) { return wire::fields(m.query); }
  static auto serve(auto& s, const auto& r) { return s.finishQuery(r); }
};

struct FetchTraceResponse {
  obs::QueryTrace trace;

  static auto fields(auto& m) { return wire::fields(m.trace); }
};

/// Pulls one session's site-side span timeline.  The read is a snapshot —
/// it does not clear the site tracer — so a retried fetch is idempotent;
/// kFinishQuery releases the tracer with the rest of the session state.
struct FetchTraceRequest {
  QueryId query = kNoQuery;

  static constexpr MsgType kType = MsgType::kFetchTrace;
  using Response = FetchTraceResponse;
  static auto fields(auto& m) { return wire::fields(m.query); }
  static auto serve(auto& s, const auto& r) { return s.fetchTrace(r); }
};

// --- Update maintenance ----------------------------------------------------

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

  static auto fields(auto& m) {
    return wire::fields(m.localSkyProb, m.globalUpperBound,
                        m.dominatedReplica, m.datasetVersion);
  }
};

struct ApplyInsertRequest {
  Tuple tuple;

  static constexpr MsgType kType = MsgType::kApplyInsert;
  using Response = ApplyInsertResponse;
  static auto fields(auto& m) { return wire::fields(m.tuple); }
  static auto serve(auto& s, const auto& r) { return s.applyInsert(r); }
};

struct ApplyDeleteResponse {
  bool existed = false;
  double prob = 0.0;  ///< P(t) of the deleted tuple (0 when !existed)
  /// The site's dataset version after this delete (unchanged when the tuple
  /// did not exist).  See ApplyInsertResponse::datasetVersion.
  std::uint64_t datasetVersion = 0;

  static auto fields(auto& m) {
    return wire::fields(m.existed, m.prob, m.datasetVersion);
  }
};

struct ApplyDeleteRequest {
  TupleId id = 0;
  std::vector<double> values;

  static constexpr MsgType kType = MsgType::kApplyDelete;
  using Response = ApplyDeleteResponse;
  static auto fields(auto& m) { return wire::fields(m.id, m.values); }
  static auto serve(auto& s, const auto& r) { return s.applyDelete(r); }
};

struct RepairDeleteResponse {
  std::vector<Candidate> candidates;

  static auto fields(auto& m) { return wire::fields(m.candidates); }
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

  static constexpr MsgType kType = MsgType::kRepairDelete;
  using Response = RepairDeleteResponse;
  static auto fields(auto& m) {
    return wire::fields(m.deleted, m.origin, m.q, m.mask);
  }
  static auto serve(auto& s, const auto& r) { return s.repairDelete(r); }
};

struct ReplicaAddRequest {
  Candidate entry;  ///< site = origin site of the tuple
  double globalSkyProb = 0.0;

  static constexpr MsgType kType = MsgType::kReplicaAdd;
  using Response = AckResponse;
  static auto fields(auto& m) { return wire::fields(m.entry, m.globalSkyProb); }
  static auto serve(auto& s, const auto& r) { return s.replicaAdd(r); }
};

struct ReplicaRemoveRequest {
  TupleId id = 0;

  static constexpr MsgType kType = MsgType::kReplicaRemove;
  using Response = AckResponse;
  static auto fields(auto& m) { return wire::fields(m.id); }
  static auto serve(auto& s, const auto& r) { return s.replicaRemove(r); }
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

struct StreamTuplesResponse {
  std::uint64_t received = 0;  ///< staging size after this batch

  static auto fields(auto& m) { return wire::fields(m.received); }
};

/// One batch of tuples streamed into a staging store.  `partition` names the
/// partition the store will serve (sanity-checked against the store's id).
/// Batches are ordered; `seq` (per stream, starting at 1) lets the store
/// drop a retried delivery instead of appending twice.
struct StreamTuplesRequest {
  SiteId partition = kNoSite;
  std::uint64_t seq = 0;  ///< 0 = no replay protection
  std::vector<Tuple> tuples;

  static constexpr MsgType kType = MsgType::kStreamTuples;
  using Response = StreamTuplesResponse;
  static auto fields(auto& m) {
    return wire::fields(m.partition, m.seq, m.tuples);
  }
  static auto serve(auto& s, const auto& r) { return s.streamTuples(r); }
};

struct JoinSiteResponse {
  std::uint64_t size = 0;  ///< tuples in the sealed store

  static auto fields(auto& m) { return wire::fields(m.size); }
};

/// Seals a staging store: bulk-loads the PR-tree over everything streamed so
/// far and opens the store for queries.  Idempotent — a retried join on an
/// already-live store acks without rebuilding.
struct JoinSiteRequest {
  std::uint64_t epoch = 0;  ///< membership epoch the store joins at

  static constexpr MsgType kType = MsgType::kJoinSite;
  using Response = JoinSiteResponse;
  static auto fields(auto& m) { return wire::fields(m.epoch); }
  static auto serve(auto& s, const auto& r) { return s.joinSite(r); }
};

struct LeaveSiteResponse {
  std::uint64_t sessions = 0;  ///< pinned sessions still draining

  static auto fields(auto& m) { return wire::fields(m.sessions); }
};

/// Marks a store draining: it serves its existing (epoch-pinned) sessions to
/// completion but rejects new prepares.  Idempotent.
struct LeaveSiteRequest {
  std::uint64_t epoch = 0;  ///< epoch that retired the store

  static constexpr MsgType kType = MsgType::kLeaveSite;
  using Response = LeaveSiteResponse;
  static auto fields(auto& m) { return wire::fields(m.epoch); }
  static auto serve(auto& s, const auto& r) { return s.leaveSite(r); }
};

/// Every request, for code that walks them all (SiteServer's dispatch
/// table, the robustness tests).
using SiteRequests =
    std::tuple<PrepareRequest, NextCandidateRequest, EvaluateRequest,
               ShipAllRequest, ApplyInsertRequest, ApplyDeleteRequest,
               RepairDeleteRequest, ReplicaAddRequest, ReplicaRemoveRequest,
               FinishQueryRequest, FetchTraceRequest, JoinSiteRequest,
               LeaveSiteRequest, StreamTuplesRequest>;

// ---------------------------------------------------------------------------
// Framing helpers

/// Builds a request frame: the request's type byte, then its fields.
template <typename Req>
Frame toFrame(const Req& request) {
  ByteWriter w;
  w.putU8(static_cast<std::uint8_t>(Req::kType));
  wire::put(w, request);
  return std::move(w).take();
}

/// Decodes the rest of `r` as one Msg; trailing bytes are an error.
template <typename Msg>
Msg decodeBody(ByteReader& r) {
  Msg msg;
  wire::get(r, msg);
  r.expectEnd();
  return msg;
}

/// Decodes a response frame (responses carry no type byte; the request
/// determines the expected response type).
template <typename Msg>
Msg fromResponseFrame(const Frame& frame) {
  ByteReader r(frame);
  return decodeBody<Msg>(r);
}

/// Encodes a response frame.
template <typename Msg>
Frame toResponseFrame(const Msg& msg) {
  ByteWriter w;
  wire::put(w, msg);
  return std::move(w).take();
}

}  // namespace dsud
