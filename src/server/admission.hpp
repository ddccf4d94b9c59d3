// Admission control for the query-serving daemon.
//
// Three gates stand between an accepted request line and a QueryEngine
// session, applied in order:
//
//   1. Per-tenant token bucket — each tenant refills at `ratePerSec` up to
//      `burst`; an empty bucket sheds immediately with `overloaded` and a
//      retry-after derived from the refill rate.  Quota violations never
//      consume cluster capacity.
//   2. Cluster-health probe — when the configured fraction of partitions
//      has every replica's circuit breaker open (SiteHealth, fed by the
//      fault layer), new queries are shed with `unavailable`: admitting
//      them would only burn retry budgets against dead sites.
//   3. Global in-flight cap — at most `maxInFlight` queries execute at
//      once, counting both this server's own admissions and whatever the
//      `dsud_queries_inflight` gauges report (so co-located direct engine
//      use also counts).  Beyond the cap, up to `maxQueued` requests wait
//      in priority order (high before normal before low, FIFO within a
//      class); beyond that the request is shed with `overloaded` and a
//      retry-after hint — explicit load shedding before the cluster
//      saturates, never an unbounded queue.
//
// Thread-safety contract: submit()/release() may be called from any thread
// (the event loop submits, worker threads release).  Queued starts are
// invoked from release() — i.e. on the worker thread that just freed the
// slot — outside the controller lock.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>

#include "obs/metrics.hpp"
#include "server/proto.hpp"

namespace dsud::server {

struct TenantQuota {
  double ratePerSec = 0.0;  ///< sustained queries/second (0 = unlimited)
  double burst = 32.0;      ///< bucket capacity (max burst size)
};

struct AdmissionConfig {
  /// Queries executing at once, across all tenants.  0 disables the cap.
  std::size_t maxInFlight = 64;
  /// Requests waiting for a slot before shedding starts.
  std::size_t maxQueued = 256;
  /// Default quota for tenants without an explicit entry in `tenants`.
  TenantQuota defaultQuota;
  /// Per-tenant overrides.
  std::map<std::string, TenantQuota> tenants;
  /// Shed with `unavailable` when at least this fraction of partitions is
  /// open — every replica's breaker open (0 < f <= 1; >1 disables the
  /// gate).
  double breakerShedFraction = 0.5;
  /// Retry-after hint on capacity sheds (quota sheds compute their own from
  /// the refill rate).
  std::uint32_t retryAfterMs = 100;
};

class AdmissionController {
 public:
  /// Monotonic seconds; injectable so quota tests control refill exactly.
  using Clock = std::function<double()>;
  /// Fraction of partitions whose breakers are all open, in [0, 1].
  using BreakerProbe = std::function<double()>;
  /// Queries in flight beyond this controller's own accounting (the
  /// `dsud_queries_inflight` gauges); max()-ed with the internal count.
  using InflightProbe = std::function<double()>;

  /// `metrics` (nullable) receives dsud_server_admitted_total,
  /// dsud_server_queued_total, dsud_server_shed_total{reason=...}, and the
  /// dsud_server_active / dsud_server_queue_depth gauges.
  explicit AdmissionController(AdmissionConfig config,
                               obs::MetricsRegistry* metrics = nullptr,
                               Clock clock = {});

  void setBreakerProbe(BreakerProbe probe) { breakerProbe_ = std::move(probe); }
  void setInflightProbe(InflightProbe probe) {
    inflightProbe_ = std::move(probe);
  }

  enum class Outcome : std::uint8_t {
    kAdmit,  ///< `start` was invoked before returning
    kQueue,  ///< `start` captured; a future release() will invoke it
    kShed,   ///< rejected; `*shed` describes why
  };

  /// Why a request was shed, in the shape the `error` response needs.
  struct Shed {
    ErrorCode code = ErrorCode::kOverloaded;
    std::string reason;  ///< "tenant_quota" | "cluster_degraded" | "capacity"
    std::uint32_t retryAfterMs = 0;
  };

  /// One request.  On kAdmit and kQueue the caller owes exactly one
  /// release() after the started query finishes (however it finishes).
  Outcome submit(const std::string& tenant, Priority priority,
                 std::function<void()> start, Shed* shed);

  /// A previously started query completed: hands the freed slot to the
  /// highest-priority queued request (invoking its `start`), or lowers the
  /// in-flight count when the queue is empty.
  void release();

  std::size_t active() const;
  std::size_t queued() const;
  std::uint64_t admittedTotal() const;
  std::uint64_t shedTotal() const;

 private:
  struct Bucket {
    double tokens = 0.0;
    double lastRefill = 0.0;
    bool initialised = false;
  };

  /// Refills and tries to take one token; on failure computes the
  /// retry-after for the caller's shed response.  Lock held.
  bool takeToken(const std::string& tenant, double now,
                 std::uint32_t* retryAfterMs);
  const TenantQuota& quotaFor(const std::string& tenant) const;
  void recordShed(const char* reason, const std::string& tenant);

  AdmissionConfig config_;
  Clock clock_;
  BreakerProbe breakerProbe_;
  InflightProbe inflightProbe_;

  mutable std::mutex mutex_;
  std::map<std::string, Bucket> buckets_;
  std::deque<std::function<void()>> queues_[3];  ///< indexed by Priority
  std::size_t active_ = 0;
  std::uint64_t admittedTotal_ = 0;
  std::uint64_t shedTotal_ = 0;

  obs::Counter* admittedCounter_ = nullptr;
  obs::Counter* queuedCounter_ = nullptr;
  obs::Gauge* activeGauge_ = nullptr;
  obs::Gauge* queueDepthGauge_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
};

}  // namespace dsud::server
