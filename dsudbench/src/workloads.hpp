// The three workloads.  Each is built once per process (data, oracle
// inputs — untimed) and then runs one or more passes: a pass sets the
// system up `setups` times (timing each), keeps the last set-up, drives the
// workload for `seconds`, and checks every answer.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "bench_math.hpp"
#include "report.hpp"

namespace dsudbench {

struct Pass {
  std::deque<QueryRecord> records;       ///< every query issued
  std::vector<const QueryRecord*> headline;  ///< the phase query_p50 comes from
  Report e2e;      ///< end-to-end metrics
  Report direct;   ///< per-layer metrics measured directly, not from spans
  double queryP50 = 0.0;
  bool hasServer = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual void pass(bool traced, double seconds, int setups, Pass& out) = 0;
};

/// Null for an unknown name.
std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                       std::uint64_t seed);

}  // namespace dsudbench
