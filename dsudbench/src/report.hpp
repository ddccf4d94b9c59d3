// Metric collection and the per-layer breakdown computed from spans.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench_math.hpp"
#include "spans.hpp"

namespace dsudbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  ///< 0 = not a sampled statistic
  std::string note;         ///< e.g. which percentile a tail is
};

class Report {
 public:
  void add(std::string name, double value, std::string unit,
           std::size_t samples = 0, std::string note = {});
  /// Adds `name` with value 0 unless present: a layer the workload lacks.
  void ensure(const std::string& name, const std::string& unit);
  void append(const Report& other) {
    metrics_.insert(metrics_.end(), other.metrics_.begin(), other.metrics_.end());
  }
  /// Human-readable table (name, value, unit, samples) on stdout.
  void printTable() const;
  /// The result line: {"correct", "attempted", "failed", "metrics"}.
  void printResult(bool correct, std::uint64_t attempted,
                   std::uint64_t failed) const;

 private:
  std::vector<Metric> metrics_;
};

/// Everything one traced pass produced.
struct LayerInputs {
  bool hasServer = true;  ///< false on the library path (paper-tcp)
  std::vector<const QueryRecord*> queries;  ///< completed, measured queries
  std::vector<Span> spans;
};

/// Adds the per-layer metrics (server.*, cache.*, batch.*, core.*, net.*,
/// site.*, maint.rpc_per_update, maint.self_ms) to `report`.  Layers absent
/// from the workload report 0.
void addLayerMetrics(Report& report, const LayerInputs& in);

/// Peak resident set size of this process in MiB.
double peakRssMb();

}  // namespace dsudbench
