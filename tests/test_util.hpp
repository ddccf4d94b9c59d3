// Shared helpers for the dsud test suites.
#pragma once

#include <future>
#include <initializer_list>
#include <vector>

#include "common/dataset.hpp"
#include "core/query_engine.hpp"
#include "core/result.hpp"
#include "skyline/linear_skyline.hpp"

namespace dsud::testutil {

/// Builds a dataset from {values..., prob} rows with sequential ids.
inline Dataset makeDataset(std::size_t dims,
                           std::initializer_list<std::vector<double>> rows) {
  Dataset data(dims);
  for (const auto& row : rows) {
    const std::span<const double> values(row.data(), dims);
    data.add(values, row[dims]);
  }
  return data;
}

/// Union of several local databases into one global database.
inline Dataset unionOf(const std::vector<Dataset>& sites) {
  Dataset global(sites.front().dims());
  for (const Dataset& site : sites) {
    for (std::size_t row = 0; row < site.size(); ++row) {
      const TupleRef t = site.at(row);
      global.add(t.id, t.values, t.prob);
    }
  }
  return global;
}

/// Ground truth: the exact global skyline of the union, via the O(N²) scan.
inline std::vector<ProbSkylineEntry> groundTruth(
    const std::vector<Dataset>& sites, double q, DimMask mask = 0) {
  const Dataset global = unionOf(sites);
  const DimMask effective = mask == 0 ? fullMask(global.dims()) : mask;
  return linearSkyline(global, {.mask = effective, .q = q});
}

/// Ids of a centralised answer set.
inline std::vector<TupleId> idsOf(const std::vector<ProbSkylineEntry>& v) {
  std::vector<TupleId> ids;
  ids.reserve(v.size());
  for (const auto& e : v) ids.push_back(e.id);
  return ids;
}

/// Ids of a distributed answer set (sorted canonically first by caller).
inline std::vector<TupleId> idsOf(const std::vector<GlobalSkylineEntry>& v) {
  std::vector<TupleId> ids;
  ids.reserve(v.size());
  for (const auto& e : v) ids.push_back(e.tuple.id);
  return ids;
}

/// One threshold query on a thread of its own, as concurrent callers of
/// QueryEngine::run issue it.  Config and options are copied.
inline std::future<QueryResult> runAsync(QueryEngine& engine, Algo algo,
                                         const QueryConfig& config,
                                         const QueryOptions& options = {},
                                         QueryId id = kNoQuery) {
  return std::async(std::launch::async, [&engine, algo, config, options, id] {
    return engine.run(algo, config, options, id);
  });
}

}  // namespace dsud::testutil
