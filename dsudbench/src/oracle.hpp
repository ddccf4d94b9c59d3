// Correctness checks: every answer set the benchmark receives is compared
// with the centralised oracle, linearSkyline's closed form over the live
// data under the query's SkylineSpec.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/dataset.hpp"
#include "geometry/rect.hpp"

namespace dsudbench {

/// P_sky of every candidate (in-window, positive probability) tuple for one
/// (mask, window); any threshold q is answered by filtering it.
struct OracleSet {
  std::unordered_map<dsud::TupleId, double> probs;
  std::vector<double> ascending;  ///< the same probabilities, sorted
};

OracleSet computeOracle(const dsud::Dataset& data, dsud::DimMask mask,
                        const std::optional<dsud::Rect>& window);

/// True when `answers` (id, P_gsky) is exactly {t : P_sky(t) >= q}: no
/// duplicates, every probability within 1e-9 of the oracle's, and nothing
/// missing.  Tuples within 1e-9 of q may fall either way.
bool answersMatch(const OracleSet& oracle, double q,
                  const std::vector<std::pair<dsud::TupleId, double>>& answers);

/// Runs fn(i) for i in [0, n) over `threads` threads.
void parallelFor(std::size_t n, std::size_t threads,
                 const std::function<void(std::size_t)>& fn);

}  // namespace dsudbench
