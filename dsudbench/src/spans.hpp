// Timing decorators around the public layer boundaries, and the in-memory
// span log they write to.
//
//   TimedSiteHandle  — SiteHandle handed to Coordinator(vector<SiteHandle>);
//                      wraps every session it opens, so each coordinator→site
//                      call is a `handle` span.
//   TimedChannel     — ClientChannel made by the ChannelPool factory; each
//                      ClientChannel::call is a `channel` span.
//   timedHandler     — FrameHandler around SiteServer::handle; each served
//                      frame is a `site` span, attributed per op by its
//                      MsgType byte.
//
// Spans carry the engine QueryId they belong to (decoded from the frame or
// request), so client lines, coordinator calls, and site work of one query
// join on it.  Session-less maintenance traffic (QueryId 0) is attributed
// to the update being applied (ContextScope).  Each thread appends
// to its own buffer without locking; the log is read only once every
// producing thread is quiescent.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/site_handle.hpp"
#include "net/transport.hpp"

namespace dsudbench {

inline std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class Layer : std::uint8_t {
  kHandle,   ///< SiteHandle call (coordinator stub + channel + site)
  kChannel,  ///< ClientChannel::call (transport + site)
  kSite,     ///< FrameHandler (site-side decode + work + encode)
  kUpdate,   ///< one SkylineMaintainer::apply, timed by the benchmark
};

/// Operation of a span: the protocol MsgType value, or 0 when unknown.
using Op = std::uint8_t;

struct Span {
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< enclosing span on the same thread (0 = none)
  std::uint64_t query = 0;    ///< engine QueryId, or an update context key
  std::uint32_t site = 0;
  std::uint32_t bytes = 0;    ///< request + response bytes (channel spans)
  Layer layer = Layer::kHandle;
  Op op = 0;
};

/// Marks update contexts so they never collide with engine QueryIds.
inline constexpr std::uint64_t kUpdateContextBit = 1ull << 63;

class SpanLog {
 public:
  static SpanLog& instance();

  /// Records one finished span from the calling thread.
  void record(const Span& span);
  std::uint64_t nextId() { return nextId_.fetch_add(1, std::memory_order_relaxed); }

  /// Every span recorded so far, in no particular order.  Call only while
  /// no producer is running.
  std::vector<Span> collect() const;
  void clear();

  /// Writes the spans as tab-separated lines; false when the file can't be
  /// opened.
  bool write(const std::string& path) const;

 private:
  struct Buffer {
    std::vector<Span> spans;
  };
  Buffer& local();

  mutable std::mutex mutex_;  // guards buffers_ (registration and collect)
  std::vector<std::unique_ptr<Buffer>> buffers_;
  std::atomic<std::uint64_t> nextId_{1};
};

/// Times one call on the calling thread; nested scopes on the same thread
/// become its children.  `query` 0 inherits the enclosing scope's query, or
/// the thread's update context.
class SpanScope {
 public:
  SpanScope(Layer layer, Op op, std::uint32_t site, std::uint64_t query);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  void setBytes(std::size_t bytes) { span_.bytes = static_cast<std::uint32_t>(bytes); }

 private:
  Span span_;
  SpanScope* outer_;
};

/// Attributes session-less traffic on this thread to `key` for its lifetime.
class ContextScope {
 public:
  explicit ContextScope(std::uint64_t key);
  ~ContextScope();
  ContextScope(const ContextScope&) = delete;
  ContextScope& operator=(const ContextScope&) = delete;

 private:
  std::uint64_t saved_;
};

/// (MsgType, QueryId) of a request frame; QueryId 0 for session-less ops.
std::pair<Op, std::uint64_t> frameOpAndQuery(const dsud::Frame& frame);

dsud::FrameHandler timedHandler(dsud::FrameHandler inner, dsud::SiteId site);

class TimedChannel final : public dsud::ClientChannel {
 public:
  TimedChannel(std::unique_ptr<dsud::ClientChannel> inner, dsud::SiteId site)
      : inner_(std::move(inner)), site_(site) {}

  dsud::Frame call(const dsud::Frame& request) override;
  void close() override { inner_->close(); }
  void setUsageScope(dsud::QueryUsage* scope) noexcept override {
    inner_->setUsageScope(scope);
  }

 protected:
  void onDeadlineChanged() override { inner_->setDeadline(deadline()); }

 private:
  std::unique_ptr<dsud::ClientChannel> inner_;
  dsud::SiteId site_;
};

class TimedSiteHandle final : public dsud::SiteHandle {
 public:
  explicit TimedSiteHandle(std::unique_ptr<dsud::SiteHandle> inner)
      : inner_(std::move(inner)) {}

  dsud::SiteId siteId() const noexcept override { return inner_->siteId(); }

  dsud::PrepareResponse prepare(const dsud::PrepareRequest& r) override;
  dsud::NextCandidateResponse nextCandidate(
      const dsud::NextCandidateRequest& r) override;
  dsud::EvaluateResponse evaluate(const dsud::EvaluateRequest& r) override;
  dsud::ShipAllResponse shipAll() override;
  void finishQuery(const dsud::FinishQueryRequest& r) override;

  dsud::ApplyInsertResponse applyInsert(const dsud::ApplyInsertRequest& r) override;
  dsud::ApplyDeleteResponse applyDelete(const dsud::ApplyDeleteRequest& r) override;
  dsud::RepairDeleteResponse repairDelete(const dsud::RepairDeleteRequest& r) override;
  void replicaAdd(const dsud::ReplicaAddRequest& r) override;
  void replicaRemove(const dsud::ReplicaRemoveRequest& r) override;

  dsud::FetchTraceResponse fetchTrace(const dsud::FetchTraceRequest& r) override {
    return inner_->fetchTrace(r);
  }
  void setTraceSink(dsud::obs::QueryTrace* sink) override {
    inner_->setTraceSink(sink);
  }

  std::unique_ptr<dsud::SiteHandle> openSession(dsud::QueryUsage* scope) override;
  std::unique_ptr<dsud::SiteHandle> openSession(
      dsud::QueryUsage* scope, const dsud::FaultOptions& fault,
      dsud::SiteHealth* health, dsud::obs::MetricsRegistry* metrics) override;

  std::uint32_t lastAttempts() const noexcept override { return inner_->lastAttempts(); }
  std::uint64_t lastNextSeq() const noexcept override { return inner_->lastNextSeq(); }
  std::uint64_t lastEvalSeq() const noexcept override { return inner_->lastEvalSeq(); }
  dsud::SiteHealth* sessionHealth() const noexcept override {
    return inner_->sessionHealth();
  }
  std::uint64_t failovers() const noexcept override { return inner_->failovers(); }

 private:
  std::unique_ptr<dsud::SiteHandle> inner_;
};

}  // namespace dsudbench
