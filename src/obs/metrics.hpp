// Observability: process-wide metric instruments (counters, gauges,
// fixed-bucket histograms) behind a thread-safe registry.
//
// Design goals, in order:
//
//   1. Hot-path increments must be cheap enough for the protocol inner loops
//      (one relaxed atomic RMW, no locks, no allocation) — the registry
//      mutex is taken only on instrument *registration*, which callers do
//      once and cache the returned reference.
//   2. Instruments have stable addresses for the registry's lifetime, so a
//      cached `Counter&` never dangles while the owning registry lives.
//   3. Reads are racy-but-consistent-enough: `snapshot()` observes each
//      atomic individually (a scrape concurrent with increments may see a
//      histogram whose bucket sum trails its count by in-flight updates;
//      exporters tolerate that).
//
// Naming follows Prometheus conventions: `dsud_rounds_total`,
// `dsud_round_latency_seconds{algo="edsud"}`.  Labels are baked into the
// instrument name with `labeled()`; the exporters split them back out.
#pragma once

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dsud::obs {

/// Monotone event counter.  Increments are relaxed atomics: counters are
/// statistical, not synchronisation points.
class Counter {
 public:
  void add(std::uint64_t n) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  void inc() noexcept { add(1); }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value.  `add`/`sub` make it usable as an
/// up-down counter (e.g. in-flight queries); they are lock-free CAS loops so
/// concurrent sessions never lose an update.
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(double delta) noexcept {
    double current = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(current, current + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  void sub(double delta) noexcept { add(-delta); }
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket latency/size histogram with percentile estimation.
///
/// Buckets are (prevBound, bound] plus an implicit (+Inf) overflow bucket,
/// Prometheus-style.  `observe` is lock-free (two relaxed RMWs plus a CAS
/// loop for the floating-point sum).  Percentiles interpolate linearly
/// inside the containing bucket, so their error is bounded by the bucket
/// width — choose bounds to match the scale you care about.
class Histogram {
 public:
  /// `upperBounds` must be non-empty and strictly increasing.
  explicit Histogram(std::vector<double> upperBounds);

  void observe(double v) noexcept;

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }
  const std::vector<double>& bounds() const noexcept { return bounds_; }

  /// Per-bucket counts; size is `bounds().size() + 1` (last = overflow).
  std::vector<std::uint64_t> bucketCounts() const;

  /// Estimated q-quantile (q in [0, 1]); 0 when empty.  Values in the
  /// overflow bucket report the largest finite bound.
  double quantile(double q) const;
  double p50() const { return quantile(0.50); }
  double p95() const { return quantile(0.95); }
  double p99() const { return quantile(0.99); }

  /// `count` bounds starting at `start`, each `factor` times the previous —
  /// the usual latency ladder.
  static std::vector<double> exponentialBounds(double start, double factor,
                                               std::size_t count);
  /// Default seconds ladder: 1 µs .. ~67 s in powers of 4.
  static std::vector<double> latencyBounds() {
    return exponentialBounds(1e-6, 4.0, 14);
  }

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;  // bounds_+1 slots
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

// ---------------------------------------------------------------------------
// Snapshots (plain data; what the exporters consume)

struct HistogramSnapshot {
  std::string name;
  std::vector<double> bounds;
  std::vector<std::uint64_t> buckets;  ///< bounds.size() + 1, last = overflow
  std::uint64_t count = 0;
  double sum = 0.0;

  double quantile(double q) const;
};

struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;  // name-sorted
  std::vector<std::pair<std::string, double>> gauges;           // name-sorted
  std::vector<HistogramSnapshot> histograms;                    // name-sorted

  const std::uint64_t* counter(std::string_view name) const;
  const HistogramSnapshot* histogram(std::string_view name) const;
};

// ---------------------------------------------------------------------------
// Registry

/// Builds `base{k1="v1",k2="v2"}` — the canonical labeled-instrument name.
/// Label values are escaped for the Prometheus exposition format.
std::string labeled(
    std::string_view base,
    std::initializer_list<std::pair<std::string_view, std::string_view>>
        labels);

/// Thread-safe instrument directory.  Lookup/registration takes a mutex;
/// returned references stay valid (and lock-free to update) for the
/// registry's lifetime.  Re-registering a name returns the existing
/// instrument; registering it as a different kind throws std::logic_error.
///
/// Thread-safety contract: registration, instrument updates, and
/// `snapshot()` may all race freely — concurrent query sessions share one
/// registry without coordination.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// `upperBounds` is used on first registration only; a later mismatch with
  /// the registered bounds throws std::logic_error.
  Histogram& histogram(const std::string& name,
                       std::vector<double> upperBounds);

  MetricsSnapshot snapshot() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace dsud::obs
