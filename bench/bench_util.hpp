// Shared harness for the figure-reproduction benchmarks.
//
// Every bench binary runs standalone with no arguments (`for b in
// build/bench/*; do $b; done`).  Scale comes from the environment:
//
//   DSUD_N        global cardinality            (default 100000)
//   DSUD_M        number of local sites         (default 60, Table 3)
//   DSUD_Q        probability threshold         (default 0.3, Table 3)
//   DSUD_REPEATS  queries averaged per point    (default 2; paper uses 10)
//   DSUD_SEED     base RNG seed                 (default 2010)
//   DSUD_SCALE    "paper" restores N=2,000,000 and 10 repeats (slow!)
//   DSUD_CSV      directory to mirror every table into as <title>.csv
//
// Results print as fixed-width tables with one row per x-axis point and one
// column per algorithm, mirroring the series of the paper's figures.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "common/options.hpp"
#include "common/stopwatch.hpp"
#include "core/cluster.hpp"
#include "gen/nyse.hpp"
#include "gen/synthetic.hpp"
#include "skyline/bbs.hpp"

namespace dsud::bench {

struct Scale {
  std::size_t n = 100000;
  std::size_t m = 60;
  double q = 0.3;
  std::size_t repeats = 2;
  std::uint64_t seed = 2010;
};

inline Scale defaultScale() {
  Scale s;
  if (envOr("DSUD_SCALE", std::string{}) == "paper") {
    s.n = 2'000'000;
    s.repeats = 10;
  }
  s.n = static_cast<std::size_t>(envOr("DSUD_N", std::int64_t(s.n)));
  s.m = static_cast<std::size_t>(envOr("DSUD_M", std::int64_t(s.m)));
  s.q = envOr("DSUD_Q", s.q);
  s.repeats =
      static_cast<std::size_t>(envOr("DSUD_REPEATS", std::int64_t(s.repeats)));
  s.seed = static_cast<std::uint64_t>(envOr("DSUD_SEED", std::int64_t(s.seed)));
  return s;
}

// The bench harness dispatches on the library's own algorithm selector.
using Algo = dsud::Algo;

inline const char* algoLabel(Algo a) {
  switch (a) {
    case Algo::kNaive:
      return "Naive";
    case Algo::kDsud:
      return "DSUD";
    case Algo::kEdsud:
      return "e-DSUD";
  }
  return "?";
}

/// One averaged measurement point.
struct Point {
  double tuples = 0.0;   ///< mean tuples shipped (the paper's bandwidth)
  double seconds = 0.0;  ///< mean wall time
  double skyline = 0.0;  ///< mean answers reported
};

/// Runs `algo` `repeats` times over fresh partitionings of `global` and
/// averages the outcome.
inline Point averagePoint(const Dataset& global, std::size_t m,
                          std::size_t repeats, Algo algo,
                          const QueryConfig& config, std::uint64_t seed) {
  Point p;
  for (std::size_t r = 0; r < repeats; ++r) {
    InProcCluster cluster(Topology::uniform(global, m, seed + r * 7919));
    const QueryResult result = cluster.engine().run(algo, config);
    p.tuples += static_cast<double>(result.stats.tuplesShipped);
    p.seconds += result.stats.seconds;
    p.skyline += static_cast<double>(result.skyline.size());
  }
  const auto d = static_cast<double>(repeats);
  p.tuples /= d;
  p.seconds /= d;
  p.skyline /= d;
  return p;
}

// ---------------------------------------------------------------------------
// Table printing
//
// Every table also lands as a CSV file when DSUD_CSV=<directory> is set, so
// figure data can be plotted without scraping stdout.  The CSV file name is
// the slugified table title.

namespace detail {

struct CsvSink {
  std::FILE* file = nullptr;

  ~CsvSink() { close(); }
  void close() {
    if (file != nullptr) {
      std::fclose(file);
      file = nullptr;
    }
  }
};

inline CsvSink& csvSink() {
  static CsvSink sink;
  return sink;
}

inline std::string slugify(const std::string& title) {
  std::string slug;
  for (const char c : title) {
    if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
        (c >= '0' && c <= '9')) {
      slug += static_cast<char>(c >= 'A' && c <= 'Z' ? c - 'A' + 'a' : c);
    } else if (!slug.empty() && slug.back() != '_') {
      slug += '_';
    }
  }
  while (!slug.empty() && slug.back() == '_') slug.pop_back();
  return slug;
}

}  // namespace detail

inline void printTitle(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
  detail::csvSink().close();
  const std::string dir = envOr("DSUD_CSV", std::string{});
  if (!dir.empty()) {
    const std::string path = dir + "/" + detail::slugify(title) + ".csv";
    detail::csvSink().file = std::fopen(path.c_str(), "w");
    if (detail::csvSink().file == nullptr) {
      std::fprintf(stderr, "bench: cannot open %s for CSV output\n",
                   path.c_str());
    }
  }
}

inline void csvCell(const std::string& v, bool first) {
  if (detail::csvSink().file == nullptr) return;
  std::fprintf(detail::csvSink().file, "%s%s", first ? "" : ",", v.c_str());
}

inline void printHeader(const std::vector<std::string>& columns) {
  bool first = true;
  for (const auto& c : columns) {
    std::printf("%16s", c.c_str());
    csvCell(c, first);
    first = false;
  }
  std::printf("\n");
  if (detail::csvSink().file != nullptr) {
    std::fprintf(detail::csvSink().file, "\n");
  }
  for (std::size_t i = 0; i < columns.size(); ++i) std::printf("%16s",
                                                               "---------");
  std::printf("\n");
}

inline void printCell(const std::string& v, bool first) {
  std::printf("%16s", v.c_str());
  csvCell(v, first);
}
inline void printCell(double v, bool first) {
  std::printf("%16.1f", v);
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.3f", v);
  csvCell(buffer, first);
}
inline void printCell(std::uint64_t v, bool first) {
  std::printf("%16llu", static_cast<unsigned long long>(v));
  csvCell(std::to_string(v), first);
}

template <typename... Cells>
void printRow(const Cells&... cells) {
  bool first = true;
  ((printCell(cells, first), first = false), ...);
  std::printf("\n");
  if (detail::csvSink().file != nullptr) {
    std::fprintf(detail::csvSink().file, "\n");
  }
}

inline void printScale(const Scale& s) {
  std::printf(
      "scale: N=%zu, m=%zu, q=%.2f, repeats=%zu, seed=%llu "
      "(set DSUD_N / DSUD_M / DSUD_Q / DSUD_REPEATS / DSUD_SCALE=paper)\n",
      s.n, s.m, s.q, s.repeats, static_cast<unsigned long long>(s.seed));
}

}  // namespace dsud::bench
