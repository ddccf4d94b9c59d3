// Observability: the structured event log (second observability layer,
// next to metrics and traces).
//
// Metrics answer "how much", traces answer "where did this query spend its
// time" — the event log answers "what happened, in order": admission
// verdicts, cache hits, batch merges, breaker trips, epoch installs,
// failovers, degraded queries.  Every subsystem emits lifecycle Events into
// one process-wide EventLog; sinks fan them out.  Two sinks ship with the
// library: the always-on bounded FlightRecorder (obs/recorder.hpp), and an
// optional NDJSON FileSink for durable operational logs (dsudd --log-file).
//
// Format: one JSON object per event, rendered by eventToNdjson without any
// external JSON dependency (dsud_obs sits below the server layer and its
// parser).  Reserved top-level keys are `ts_ns`, `level`, `component`, and
// `event`; every field lands inline next to them:
//
//   {"ts_ns":1754556000123456789,"level":"warn","component":"engine",
//    "event":"site.dead","query":42,"site":3}
//
// Cost contract: emit() below the runtime level is one relaxed atomic load.
// An emitted event allocates (strings + field vector) — callers emit per
// query / per fault / per admin action, never per tuple.
#pragma once

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace dsud {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

}  // namespace dsud

namespace dsud::obs {

/// One key/value attribute of an event.  Build with the `field()` overloads
/// so literals pick the right kind without casts.
struct EventField {
  enum class Kind : std::uint8_t { kUint, kInt, kDouble, kBool, kString };

  std::string key;
  Kind kind = Kind::kUint;
  std::uint64_t u = 0;
  std::int64_t i = 0;
  double d = 0.0;
  bool b = false;
  std::string s;
};

EventField field(std::string key, std::uint64_t value);
EventField field(std::string key, std::int64_t value);
EventField field(std::string key, double value);
EventField field(std::string key, bool value);
EventField field(std::string key, std::string value);
EventField field(std::string key, std::string_view value);
EventField field(std::string key, const char* value);
inline EventField field(std::string key, int value) {
  return field(std::move(key), static_cast<std::int64_t>(value));
}
inline EventField field(std::string key, unsigned value) {
  return field(std::move(key), static_cast<std::uint64_t>(value));
}

/// One structured log event.  `wallNs` is CLOCK_REALTIME nanoseconds so
/// events from different processes order on one timeline; EventLog stamps
/// it when left zero.
struct Event {
  std::uint64_t wallNs = 0;
  LogLevel level = LogLevel::kInfo;
  std::string component;  ///< emitting subsystem ("engine", "server", ...)
  std::string name;       ///< dotted event name ("cache.hit", "site.dead")
  std::vector<EventField> fields;
};

/// Renders one event as a single NDJSON line (no trailing newline).
std::string eventToNdjson(const Event& event);

/// Wall-clock now in nanoseconds (CLOCK_REALTIME) — the event timestamp
/// base, exposed so callers can bracket a time range for recorder queries.
std::uint64_t wallClockNs() noexcept;

const char* levelName(LogLevel level) noexcept;

/// Receives every event that passes the log's level gate.  Implementations
/// must be thread-safe: emitters call accept concurrently.
class EventSink {
 public:
  virtual ~EventSink() = default;
  virtual void accept(const Event& event) = 0;
};

/// Appends NDJSON lines to a file (created / appended, flushed per event —
/// these are operational lifecycle events, not a tuple stream).
class FileSink final : public EventSink {
 public:
  explicit FileSink(const std::string& path);
  ~FileSink() override;

  /// False when the path could not be opened; accept() is then a no-op.
  bool ok() const noexcept { return file_ != nullptr; }

  void accept(const Event& event) override;

 private:
  std::mutex mutex_;
  std::FILE* file_ = nullptr;
};

/// The structured logger: a runtime level gate in front of a sink list.
///
/// Thread-safety contract: emit(), setLevel(), addSink(), and removeSink()
/// may race freely.  emit snapshots the sink list under the mutex and calls
/// accept outside it, so a slow file sink never serialises emitters against
/// sink registration.
class EventLog {
 public:
  EventLog() = default;

  void setLevel(LogLevel level) noexcept {
    level_.store(static_cast<int>(level), std::memory_order_relaxed);
  }
  LogLevel level() const noexcept {
    return static_cast<LogLevel>(level_.load(std::memory_order_relaxed));
  }
  bool enabled(LogLevel level) const noexcept {
    return static_cast<int>(level) >= level_.load(std::memory_order_relaxed);
  }

  void addSink(std::shared_ptr<EventSink> sink);
  /// Detaches by identity; a sink not attached is a no-op.  Used by the
  /// bench harness to measure recorder-off legs.
  void removeSink(const EventSink* sink);
  std::size_t sinkCount() const;

  /// Fans `event` out to every sink when its level passes the gate; stamps
  /// wallNs when the caller left it zero.
  void emit(Event event);

  /// Convenience: build-and-emit.  Below the level gate this only costs the
  /// evaluation of the initializer list at the call site.
  void emit(LogLevel level, std::string_view component, std::string_view name,
            std::initializer_list<EventField> fields = {});

 private:
  std::atomic<int> level_{static_cast<int>(LogLevel::kInfo)};
  mutable std::mutex mutex_;
  std::vector<std::shared_ptr<EventSink>> sinks_;
};

/// The process-wide event log every subsystem emits into.  Constructed on
/// first use with the global FlightRecorder (obs/recorder.hpp) already
/// attached, so the recorder is default-on.
EventLog& eventLog();

}  // namespace dsud::obs
