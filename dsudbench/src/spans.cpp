#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "core/protocol.hpp"

namespace dsudbench {

namespace {

thread_local SpanScope* tlsTop = nullptr;
thread_local std::uint64_t tlsContext = 0;

Op opOf(dsud::MsgType type) { return static_cast<Op>(type); }

/// Runs `fn` inside a handle span for `op` on `site`.
template <typename Fn>
auto timedCall(dsud::MsgType op, dsud::SiteId site, std::uint64_t query,
               Fn&& fn) {
  SpanScope span(Layer::kHandle, opOf(op), site, query);
  return fn();
}

}  // namespace

SpanLog& SpanLog::instance() {
  static SpanLog log;
  return log;
}

SpanLog::Buffer& SpanLog::local() {
  // The buffer outlives its thread (owned by the log), so a worker that
  // exits before collect() loses nothing.
  thread_local Buffer* buffer = nullptr;
  if (buffer == nullptr) {
    auto owned = std::make_unique<Buffer>();
    owned->spans.reserve(1 << 14);
    buffer = owned.get();
    std::lock_guard lock(mutex_);
    buffers_.push_back(std::move(owned));
  }
  return *buffer;
}

void SpanLog::record(const Span& span) { local().spans.push_back(span); }

std::vector<Span> SpanLog::collect() const {
  std::lock_guard lock(mutex_);
  std::vector<Span> out;
  for (const auto& b : buffers_) {
    out.insert(out.end(), b->spans.begin(), b->spans.end());
  }
  return out;
}

void SpanLog::clear() {
  std::lock_guard lock(mutex_);
  for (const auto& b : buffers_) b->spans.clear();
}

bool SpanLog::write(const std::string& path) const {
  std::vector<Span> spans = collect();
  std::sort(spans.begin(), spans.end(),
            [](const Span& a, const Span& b) { return a.start < b.start; });
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  static const char* const kLayers[] = {"handle", "channel", "site", "update"};
  // Times are relative to the first span's start, in nanoseconds.
  const std::int64_t t0 = spans.empty() ? 0 : spans.front().start;
  std::fprintf(f, "layer\top\tsite\tquery\tstart_ns\tdur_ns\tid\tparent\tbytes\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%s\t%u\t%u\t%llu\t%lld\t%lld\t%llu\t%llu\t%u\n",
                 kLayers[static_cast<int>(s.layer)], s.op, s.site,
                 static_cast<unsigned long long>(s.query),
                 static_cast<long long>(s.start - t0),
                 static_cast<long long>(s.end - s.start),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.bytes);
  }
  return std::fclose(f) == 0;
}

SpanScope::SpanScope(Layer layer, Op op, std::uint32_t site,
                     std::uint64_t query)
    : outer_(tlsTop) {
  span_.layer = layer;
  span_.op = op;
  span_.site = site;
  span_.id = SpanLog::instance().nextId();
  if (outer_ != nullptr) {
    span_.parent = outer_->span_.id;
    if (query == 0) query = outer_->span_.query;
  }
  span_.query = query != 0 ? query : tlsContext;
  tlsTop = this;
  span_.start = nowNs();
}

SpanScope::~SpanScope() {
  span_.end = nowNs();
  tlsTop = outer_;
  SpanLog::instance().record(span_);
}

ContextScope::ContextScope(std::uint64_t key) : saved_(tlsContext) {
  tlsContext = key;
}

ContextScope::~ContextScope() { tlsContext = saved_; }

std::pair<Op, std::uint64_t> frameOpAndQuery(const dsud::Frame& frame) {
  if (frame.empty()) return {0, 0};
  const auto type = static_cast<dsud::MsgType>(frame[0]);
  std::uint64_t query = 0;
  switch (type) {
    case dsud::MsgType::kPrepare:
    case dsud::MsgType::kNextCandidate:
    case dsud::MsgType::kEvaluate:
    case dsud::MsgType::kFinishQuery:
      // Query-protocol bodies start with the little-endian u64 QueryId.
      if (frame.size() >= 1 + sizeof query) {
        std::memcpy(&query, frame.data() + 1, sizeof query);
      }
      break;
    default:
      break;
  }
  return {opOf(type), query};
}

dsud::FrameHandler timedHandler(dsud::FrameHandler inner, dsud::SiteId site) {
  return [inner = std::move(inner), site](const dsud::Frame& request) {
    const auto [op, query] = frameOpAndQuery(request);
    SpanScope span(Layer::kSite, op, site, query);
    return inner(request);
  };
}

dsud::Frame TimedChannel::call(const dsud::Frame& request) {
  const auto [op, query] = frameOpAndQuery(request);
  SpanScope span(Layer::kChannel, op, site_, query);
  dsud::Frame response = inner_->call(request);
  span.setBytes(request.size() + response.size());
  return response;
}

dsud::PrepareResponse TimedSiteHandle::prepare(const dsud::PrepareRequest& r) {
  return timedCall(dsud::MsgType::kPrepare, inner_->siteId(), r.query,
                   [&] { return inner_->prepare(r); });
}
dsud::NextCandidateResponse TimedSiteHandle::nextCandidate(
    const dsud::NextCandidateRequest& r) {
  return timedCall(dsud::MsgType::kNextCandidate, inner_->siteId(), r.query,
                   [&] { return inner_->nextCandidate(r); });
}
dsud::EvaluateResponse TimedSiteHandle::evaluate(const dsud::EvaluateRequest& r) {
  return timedCall(dsud::MsgType::kEvaluate, inner_->siteId(), r.query,
                   [&] { return inner_->evaluate(r); });
}
dsud::ShipAllResponse TimedSiteHandle::shipAll() {
  return timedCall(dsud::MsgType::kShipAll, inner_->siteId(), 0,
                   [&] { return inner_->shipAll(); });
}
void TimedSiteHandle::finishQuery(const dsud::FinishQueryRequest& r) {
  return timedCall(dsud::MsgType::kFinishQuery, inner_->siteId(), r.query,
                   [&] { return inner_->finishQuery(r); });
}
dsud::ApplyInsertResponse TimedSiteHandle::applyInsert(
    const dsud::ApplyInsertRequest& r) {
  return timedCall(dsud::MsgType::kApplyInsert, inner_->siteId(), 0,
                   [&] { return inner_->applyInsert(r); });
}
dsud::ApplyDeleteResponse TimedSiteHandle::applyDelete(
    const dsud::ApplyDeleteRequest& r) {
  return timedCall(dsud::MsgType::kApplyDelete, inner_->siteId(), 0,
                   [&] { return inner_->applyDelete(r); });
}
dsud::RepairDeleteResponse TimedSiteHandle::repairDelete(
    const dsud::RepairDeleteRequest& r) {
  return timedCall(dsud::MsgType::kRepairDelete, inner_->siteId(), 0,
                   [&] { return inner_->repairDelete(r); });
}
void TimedSiteHandle::replicaAdd(const dsud::ReplicaAddRequest& r) {
  return timedCall(dsud::MsgType::kReplicaAdd, inner_->siteId(), 0,
                   [&] { return inner_->replicaAdd(r); });
}
void TimedSiteHandle::replicaRemove(const dsud::ReplicaRemoveRequest& r) {
  return timedCall(dsud::MsgType::kReplicaRemove, inner_->siteId(), 0,
                   [&] { return inner_->replicaRemove(r); });
}

std::unique_ptr<dsud::SiteHandle> TimedSiteHandle::openSession(
    dsud::QueryUsage* scope) {
  return std::make_unique<TimedSiteHandle>(inner_->openSession(scope));
}

std::unique_ptr<dsud::SiteHandle> TimedSiteHandle::openSession(
    dsud::QueryUsage* scope, const dsud::FaultOptions& fault,
    dsud::SiteHealth* health, dsud::obs::MetricsRegistry* metrics) {
  return std::make_unique<TimedSiteHandle>(
      inner_->openSession(scope, fault, health, metrics));
}

}  // namespace dsudbench
