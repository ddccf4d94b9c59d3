// Observability: per-query protocol timelines.
//
// A `QueryTrace` is the flat event list of one query run — every protocol
// step (To-Server pull, feedback broadcast, expunge, emit, ...) as a span
// with monotonic start/end timestamps (nanoseconds since the trace began)
// and parent/child nesting.  `Tracer` builds one trace; `TraceSpan` is the
// RAII handle the instrumented code holds.
//
// Cost model: tracing happens at protocol granularity (a handful of events
// per feedback round), never per tuple, so a mutex-guarded append is cheap
// relative to the RPCs it brackets.  A disabled Tracer costs one branch per
// call.  Event count is capped — a runaway query degrades to counting
// dropped events instead of exhausting memory.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dsud::obs {

using SpanId = std::uint32_t;
inline constexpr SpanId kNoSpan = static_cast<SpanId>(-1);

struct TraceEvent {
  std::string name;
  SpanId parent = kNoSpan;     ///< index into QueryTrace::events, or kNoSpan
  std::uint64_t startNs = 0;   ///< monotonic, relative to trace start
  std::uint64_t endNs = 0;     ///< 0 while the span is still open
  /// Small numeric annotations (site ids, tuple ids, probabilities, counts).
  std::vector<std::pair<std::string, double>> attrs;
};

/// One query's event timeline.  `events` is in span-start order and indexed
/// by SpanId; nesting is reconstructed through `parent`.
struct QueryTrace {
  std::vector<TraceEvent> events;
  std::uint64_t droppedEvents = 0;  ///< spans discarded past the cap

  bool empty() const noexcept { return events.empty(); }
};

/// Builds one QueryTrace.  Thread-safe; the *parent* of a new span is the
/// most recent still-open span, which is well-defined because the protocol's
/// structure is sequential at the granularity we trace.  Spans that overlap
/// their siblings — the per-site RPCs of one wave — name their parent
/// explicitly instead.
class Tracer {
 public:
  /// Disabled tracer: every operation is a cheap no-op.
  Tracer() noexcept = default;

  /// Enabled tracer retaining at most `maxEvents` spans.
  explicit Tracer(std::size_t maxEvents)
      : enabled_(maxEvents > 0),
        maxEvents_(maxEvents),
        start_(Clock::now()) {}

  bool enabled() const noexcept { return enabled_; }

  /// Opens a span; returns kNoSpan when disabled or past the cap.
  SpanId begin(std::string_view name);

  /// Opens a span under an explicit parent.  Unlike `begin(name)`, the new
  /// span does NOT become the implicit parent of later spans (it never joins
  /// the open-span stack) — this is how a broadcast's per-site RPC spans
  /// hang off the broadcast span regardless of which other spans happen to
  /// be open when each RPC runs.
  SpanId begin(std::string_view name, SpanId parent);

  void end(SpanId id);
  void attr(SpanId id, std::string_view key, double value);

  /// Closes any still-open spans at the current time and moves the trace
  /// out; the tracer is empty (but still enabled) afterwards.
  QueryTrace take();

  /// Copies the trace as-is without clearing it; still-open spans keep
  /// endNs == 0.  Used for idempotent reads (retryable kFetchTrace).
  QueryTrace snapshot() const;

 private:
  using Clock = std::chrono::steady_clock;

  std::uint64_t nowNs() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start_)
            .count());
  }

  bool enabled_ = false;
  std::size_t maxEvents_ = 0;
  Clock::time_point start_{};
  mutable std::mutex mutex_;
  QueryTrace trace_;
  std::vector<SpanId> openStack_;
};

/// RAII span: opens on construction, closes on destruction.  Move-only.
class TraceSpan {
 public:
  TraceSpan(Tracer& tracer, std::string_view name)
      : tracer_(&tracer), id_(tracer.begin(name)) {}

  /// Explicit-parent span (see Tracer::begin(name, parent)).
  TraceSpan(Tracer& tracer, std::string_view name, SpanId parent)
      : tracer_(&tracer), id_(tracer.begin(name, parent)) {}

  TraceSpan(TraceSpan&& other) noexcept
      : tracer_(std::exchange(other.tracer_, nullptr)),
        id_(std::exchange(other.id_, kNoSpan)) {}
  TraceSpan& operator=(TraceSpan&& other) noexcept {
    if (this != &other) {
      close();
      tracer_ = std::exchange(other.tracer_, nullptr);
      id_ = std::exchange(other.id_, kNoSpan);
    }
    return *this;
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  ~TraceSpan() { close(); }

  void attr(std::string_view key, double value) {
    if (tracer_ != nullptr) tracer_->attr(id_, key, value);
  }

  /// The underlying span id (kNoSpan when tracing is disabled) — pass it as
  /// the explicit parent of spans opened on other threads.
  SpanId id() const noexcept { return id_; }

  /// Ends the span now (idempotent; the destructor becomes a no-op).
  void close() {
    if (tracer_ != nullptr) {
      tracer_->end(id_);
      tracer_ = nullptr;
    }
  }

 private:
  Tracer* tracer_ = nullptr;
  SpanId id_ = kNoSpan;
};

}  // namespace dsud::obs
