// Observability: the always-on flight recorder.
//
// A bounded ring of the most recent structured events (obs/log.hpp),
// attached as a sink of the process-wide EventLog.  When something goes
// wrong at 3 a.m. — a query degrades, a replica fails over, the process
// takes a fatal signal — the recorder already holds the last N events that
// explain it, and anomaly() dumps the recent window to an NDJSON file
// without anyone having had tracing enabled in advance.
//
// Concurrency design: writers render the event's NDJSON line outside any
// lock (a slot keeps only the line — a few hundred bytes where a structured
// copy cost a kilobyte), claim a slot with one fetch_add on the ring
// cursor, then swap the line in under that slot's own mutex.  Slot mutexes
// are uncontended except when the ring wraps onto a slot a reader (or a
// lapped writer) currently holds — and, unlike a seqlock, every access is
// properly synchronised (TSan-clean under any writer/reader interleaving).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/log.hpp"

namespace dsud::obs {

class FlightRecorder final : public EventSink {
 public:
  static constexpr std::size_t kDefaultCapacity = 8192;
  static constexpr double kDefaultWindowSeconds = 30.0;

  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity);

  void accept(const Event& event) override;

  std::size_t capacity() const noexcept { return slots_.size(); }
  /// Lifetime events accepted (>= capacity() means the ring has wrapped).
  std::uint64_t recorded() const noexcept {
    return next_.load(std::memory_order_relaxed);
  }
  /// Anomaly dumps written so far (attempted; includes failed writes).
  std::uint64_t dumps() const noexcept {
    return dumpSeq_.load(std::memory_order_relaxed);
  }

  /// The retained events at or after `sinceWallNs` (0 = everything) as
  /// their eventToNdjson lines, in recording order.  Concurrent writers may
  /// overwrite slots while the snapshot walks the ring; every returned line
  /// is whole (copied under its slot mutex), the set is racy-but-recent.
  std::vector<std::string> snapshot(std::uint64_t sinceWallNs = 0) const;

  /// snapshot() as one NDJSON document, each line newline-terminated.
  std::string dumpNdjson(std::uint64_t sinceWallNs = 0) const;

  /// Directory anomaly dumps land in ("" disables file dumps; created on
  /// first use).  dsudd wires --recorder-dir here.
  void setDumpDir(std::string dir);
  std::string dumpDir() const;

  /// How far back an anomaly dump reaches (default 30 s).
  void setWindowSeconds(double seconds) noexcept {
    windowSeconds_.store(seconds, std::memory_order_relaxed);
  }
  double windowSeconds() const noexcept {
    return windowSeconds_.load(std::memory_order_relaxed);
  }

  /// Something anomalous happened (degraded query, failover, fatal signal):
  /// dump the last window to `<dir>/recorder-<reason>-<pid>-<n>.ndjson`.
  /// Returns the path written, or "" when no dump directory is configured
  /// or the write failed.  Best-effort by design — an unwritable directory
  /// must never take down the query path that reported the anomaly.
  std::string anomaly(std::string_view reason);

 private:
  struct Slot {  // fields guarded by `mutex`
    mutable std::mutex mutex;
    std::string line;  ///< eventToNdjson; empty until first written
    std::uint64_t wallNs = 0;
    std::uint64_t seq = 0;  ///< claim index
  };

  std::vector<Slot> slots_;
  std::atomic<std::uint64_t> next_{0};
  std::atomic<std::uint64_t> dumpSeq_{0};
  std::atomic<double> windowSeconds_{kDefaultWindowSeconds};
  mutable std::mutex dirMutex_;
  std::string dir_;
};

/// The process-wide recorder eventLog() attaches at startup (default-on).
FlightRecorder& flightRecorder();

/// Overrides the global recorder's capacity.  Effective only when called
/// before the first flightRecorder() / eventLog() use (dsudd does this
/// first thing in main); later calls return false and change nothing.
bool configureFlightRecorder(std::size_t capacity);

}  // namespace dsud::obs
