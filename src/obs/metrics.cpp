#include "obs/metrics.hpp"

#include <algorithm>
#include <stdexcept>

namespace dsud::obs {

// ---------------------------------------------------------------------------
// Histogram

Histogram::Histogram(std::vector<double> upperBounds)
    : bounds_(std::move(upperBounds)) {
  if (bounds_.empty()) {
    throw std::invalid_argument("Histogram: at least one bucket bound");
  }
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    if (!(bounds_[i - 1] < bounds_[i])) {
      throw std::invalid_argument("Histogram: bounds must strictly increase");
    }
  }
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
}

void Histogram::observe(double v) noexcept {
  // Branchless-enough upper_bound: bucket i covers (bounds[i-1], bounds[i]].
  const std::size_t i = static_cast<std::size_t>(
      std::upper_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin());
  // upper_bound yields the first bound > v, i.e. one past for v == bound;
  // Prometheus buckets are inclusive on the upper edge, so step back then.
  const std::size_t slot =
      (i > 0 && v == bounds_[i - 1]) ? i - 1 : i;
  buckets_[slot].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double expected = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(expected, expected + v,
                                     std::memory_order_relaxed)) {
  }
}

std::vector<std::uint64_t> Histogram::bucketCounts() const {
  std::vector<std::uint64_t> out(bounds_.size() + 1);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

namespace {

double quantileFromBuckets(const std::vector<double>& bounds,
                           const std::vector<std::uint64_t>& buckets,
                           std::uint64_t count, double q) {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(count);
  double cumulative = 0.0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const double next = cumulative + static_cast<double>(buckets[i]);
    if (next >= rank && buckets[i] > 0) {
      if (i == buckets.size() - 1) {
        // Overflow bucket: nothing to interpolate toward; report the largest
        // finite bound (a deliberate under-estimate flagged by the bucket
        // counts themselves).
        return bounds.back();
      }
      const double lo = i == 0 ? 0.0 : bounds[i - 1];
      const double hi = bounds[i];
      const double within =
          (rank - cumulative) / static_cast<double>(buckets[i]);
      return lo + (hi - lo) * within;
    }
    cumulative = next;
  }
  return bounds.back();
}

}  // namespace

double Histogram::quantile(double q) const {
  return quantileFromBuckets(bounds_, bucketCounts(), count(), q);
}

double HistogramSnapshot::quantile(double q) const {
  return quantileFromBuckets(bounds, buckets, count, q);
}

std::vector<double> Histogram::exponentialBounds(double start, double factor,
                                                 std::size_t count) {
  if (!(start > 0.0) || !(factor > 1.0) || count == 0) {
    throw std::invalid_argument("Histogram::exponentialBounds: bad ladder");
  }
  std::vector<double> bounds(count);
  double b = start;
  for (std::size_t i = 0; i < count; ++i, b *= factor) bounds[i] = b;
  return bounds;
}

// ---------------------------------------------------------------------------
// Snapshot lookup

const std::uint64_t* MetricsSnapshot::counter(std::string_view name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return &v;
  }
  return nullptr;
}

const HistogramSnapshot* MetricsSnapshot::histogram(
    std::string_view name) const {
  for (const auto& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Registry

std::string labeled(
    std::string_view base,
    std::initializer_list<std::pair<std::string_view, std::string_view>>
        labels) {
  std::string name(base);
  if (labels.size() == 0) return name;
  name += '{';
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) name += ',';
    first = false;
    name += key;
    name += "=\"";
    for (const char c : value) {
      // Prometheus exposition escapes for label values.
      if (c == '\\' || c == '"') name += '\\';
      if (c == '\n') {
        name += "\\n";
        continue;
      }
      name += c;
    }
    name += '"';
  }
  name += '}';
  return name;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard lock(mutex_);
  if (gauges_.count(name) != 0 || histograms_.count(name) != 0) {
    throw std::logic_error("MetricsRegistry: " + name +
                           " already registered as another kind");
  }
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard lock(mutex_);
  if (counters_.count(name) != 0 || histograms_.count(name) != 0) {
    throw std::logic_error("MetricsRegistry: " + name +
                           " already registered as another kind");
  }
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> upperBounds) {
  std::lock_guard lock(mutex_);
  if (counters_.count(name) != 0 || gauges_.count(name) != 0) {
    throw std::logic_error("MetricsRegistry: " + name +
                           " already registered as another kind");
  }
  auto& slot = histograms_[name];
  if (!slot) {
    slot = std::make_unique<Histogram>(std::move(upperBounds));
  } else if (slot->bounds() != upperBounds) {
    throw std::logic_error("MetricsRegistry: " + name +
                           " re-registered with different bounds");
  }
  return *slot;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard lock(mutex_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    snap.counters.emplace_back(name, c->value());
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    snap.gauges.emplace_back(name, g->value());
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    HistogramSnapshot hs;
    hs.name = name;
    hs.bounds = h->bounds();
    hs.buckets = h->bucketCounts();
    hs.count = h->count();
    hs.sum = h->sum();
    snap.histograms.push_back(std::move(hs));
  }
  return snap;
}

}  // namespace dsud::obs
