#include "oracle.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>
#include <unordered_set>

#include "skyline/linear_skyline.hpp"

namespace dsudbench {

namespace {

constexpr double kTolerance = 1e-9;

}  // namespace

OracleSet computeOracle(const dsud::Dataset& data, dsud::DimMask mask,
                        const std::optional<dsud::Rect>& window) {
  dsud::SkylineSpec spec;
  if (mask != 0) spec.mask = mask;
  if (window) spec.clip = &*window;
  OracleSet out;
  for (const dsud::ProbSkylineEntry& e : dsud::linearSkyline(data, spec)) {
    if (e.skyProb > 0.0) {
      out.probs.emplace(e.id, e.skyProb);
      out.ascending.push_back(e.skyProb);
    }
  }
  std::sort(out.ascending.begin(), out.ascending.end());
  return out;
}

bool answersMatch(const OracleSet& oracle, double q,
                  const std::vector<std::pair<dsud::TupleId, double>>& answers) {
  // Answers are distinct oracle members, so nothing is missing exactly when
  // they cover every oracle probability clearly above q.
  std::unordered_set<dsud::TupleId> seen;
  std::size_t clear = 0;
  for (const auto& [id, p] : answers) {
    if (!seen.insert(id).second) return false;
    const auto it = oracle.probs.find(id);
    if (it == oracle.probs.end()) return false;
    if (std::abs(it->second - p) > kTolerance * std::max(1.0, it->second)) return false;
    if (it->second < q - kTolerance) return false;
    if (it->second >= q + kTolerance) ++clear;
  }
  const auto above = static_cast<std::size_t>(
      oracle.ascending.end() - std::lower_bound(oracle.ascending.begin(),
                                                oracle.ascending.end(),
                                                q + kTolerance));
  return clear == above;
}

void parallelFor(std::size_t n, std::size_t threads,
                 const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (std::size_t i; (i = next.fetch_add(1)) < n;) fn(i);
    });
  }
  for (auto& t : pool) t.join();
}

}  // namespace dsudbench
