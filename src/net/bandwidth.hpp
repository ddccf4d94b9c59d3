// Bandwidth accounting (paper Sec. 3.2, goal 1).
//
// The paper measures bandwidth as the number of *tuples* transmitted over the
// network, explicitly excluding synchronisation messages and packet headers.
// The meter tracks that tuple count per link and in total, and additionally
// tracks raw bytes and message counts so byte-level comparisons are possible.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/dataset.hpp"

namespace dsud {

/// Per-link usage between the coordinator and one site.
struct LinkUsage {
  std::uint64_t tuplesToSite = 0;    ///< tuples in coordinator→site payloads
  std::uint64_t tuplesFromSite = 0;  ///< tuples in site→coordinator payloads
  std::uint64_t bytesToSite = 0;
  std::uint64_t bytesFromSite = 0;
  std::uint64_t calls = 0;  ///< request/response round trips
};

/// Aggregate view over all links.
struct UsageTotals {
  std::uint64_t tuples = 0;  ///< total tuples shipped, both directions
  std::uint64_t bytes = 0;
  std::uint64_t calls = 0;
};

/// Per-query usage scope: the session-confined slice of the accounting a
/// query's own RPCs generate.  Site handles opened with
/// `SiteHandle::openSession` record here *in addition to* the cluster-wide
/// BandwidthMeter, so per-query stats stay exact while N queries share the
/// links.
///
/// Thread-safety contract: all counters are relaxed atomics — any number of
/// threads may record concurrently, and `totals()` may be read at
/// any time (it is only guaranteed consistent once the query's RPCs are
/// done, which is when QueryRun reads it).
class QueryUsage {
 public:
  void recordCall(std::uint64_t requestBytes, std::uint64_t responseBytes) {
    bytes_.fetch_add(requestBytes + responseBytes, std::memory_order_relaxed);
    calls_.fetch_add(1, std::memory_order_relaxed);
  }
  void recordTuples(std::uint64_t n) {
    tuples_.fetch_add(n, std::memory_order_relaxed);
  }
  void recordOverhead(std::uint64_t bytes) {
    bytes_.fetch_add(bytes, std::memory_order_relaxed);
  }

  UsageTotals totals() const {
    UsageTotals t;
    t.tuples = tuples_.load(std::memory_order_relaxed);
    t.bytes = bytes_.load(std::memory_order_relaxed);
    t.calls = calls_.load(std::memory_order_relaxed);
    return t;
  }

 private:
  std::atomic<std::uint64_t> tuples_{0};
  std::atomic<std::uint64_t> bytes_{0};
  std::atomic<std::uint64_t> calls_{0};
};

/// Thread-safe usage accumulator shared by all channels of one cluster.
///
/// Thread-safety contract: every method is internally synchronised by one
/// mutex; any number of channels and readers may call concurrently.  Note
/// that under concurrent queries the *global* totals interleave — use a
/// QueryUsage scope (QueryStats) for per-query numbers.
class BandwidthMeter {
 public:
  explicit BandwidthMeter(std::size_t siteCount = 0);

  /// Grows the table to cover `site` if needed and returns its row.
  void recordCall(SiteId site, std::uint64_t requestBytes,
                  std::uint64_t responseBytes);
  void recordTuples(SiteId site, std::uint64_t toSite,
                    std::uint64_t fromSite);
  /// Transport-level framing overhead (length prefixes, ...): bytes that hit
  /// the wire beyond the payloads `recordCall` accounts.  Adds to the byte
  /// columns only — overhead is not a round trip.
  void recordOverhead(SiteId site, std::uint64_t toSite,
                      std::uint64_t fromSite);

  LinkUsage link(SiteId site) const;
  UsageTotals totals() const;

  /// Total tuples shipped (the paper's bandwidth metric).
  std::uint64_t tuplesShipped() const { return totals().tuples; }

 private:
  void ensureSiteLocked(SiteId site);

  mutable std::mutex mutex_;
  std::vector<LinkUsage> links_;
};

}  // namespace dsud
