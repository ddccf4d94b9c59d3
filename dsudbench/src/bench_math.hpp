// The benchmark's own arithmetic: percentiles, interval unions for
// per-layer self time, the seeded Poisson arrival schedule, and the joining
// of NDJSON response lines into per-query records.  Everything here is pure
// (no clocks, no sockets) so the unit tests can pin it down exactly.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/result.hpp"
#include "server/proto.hpp"

namespace dsudbench {

/// Nearest-rank percentile (p in [0, 100]) of `values`; 0 for an empty set.
/// Rank = ceil(p/100 * n), clamped to [1, n].
double percentile(std::vector<double> values, double p);

inline double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

/// The highest of the standard percentiles (99.9, 99, 95, 90, 75, 50) that
/// leaves at least `beyond` samples above its rank, and its value.  Falls
/// back to the median when even p50 has too few samples beyond it.
struct Tail {
  double pct = 50.0;
  double value = 0.0;
};
Tail tailPercentile(std::vector<double> values, std::size_t beyond = 10);

double mean(const std::vector<double>& values);

/// Half-open time interval [start, end) in nanoseconds.
struct Interval {
  std::int64_t start = 0;
  std::int64_t end = 0;
};

/// Total length covered by the union of `intervals` (overlaps count once).
std::int64_t unionLength(std::vector<Interval> intervals);

/// Self time of `parent`: its length minus the part of it that the union of
/// `children` covers (children are clipped to the parent first, so
/// overlapping broadcast children are not double-subtracted).
std::int64_t selfTime(Interval parent, std::vector<Interval> children);

/// Arrival offsets (seconds from the start of the window) of a Poisson
/// process of `rate` per second over `seconds`, drawn from a splitmix64
/// stream seeded with `seed` — identical for identical arguments on every
/// platform.
std::vector<double> poissonSchedule(std::uint64_t seed, double rate,
                                    double seconds);

/// splitmix64 step; the benchmark's only source of randomness.
std::uint64_t splitmix64(std::uint64_t& state);
/// Uniform double in [0, 1) from the stream.
double uniform01(std::uint64_t& state);

/// Client-side record of one query, filled from its NDJSON response lines.
/// Times are nanoseconds on the benchmark's steady clock; 0 = not seen.
struct QueryRecord {
  dsud::server::QueryRequest request;  ///< what was asked; `request.id`
                                       ///< is the client correlation id
  std::int64_t origin = 0;  ///< latency origin: scheduled slot or send time
  std::int64_t sent = 0;    ///< when the request line was written
  std::int64_t ack = 0;
  std::int64_t firstAnswer = 0;
  std::int64_t tenthAnswer = 0;
  std::int64_t done = 0;        ///< terminal line (done or error)
  dsud::QueryId query = dsud::kNoQuery;  ///< engine session id from `ack`
  bool ok = false;              ///< terminal was `done`
  std::string error;            ///< error code when the terminal was `error`
  std::vector<std::pair<dsud::TupleId, double>> answers;  ///< id, p_gsky
  dsud::QueryStats stats;
  std::string cache;            ///< profile disposition (hit|miss|bypass)
  /// Benchmark-side tags: which phase and measurement round issued it, and
  /// which query shape it is.
  int phase = 0;
  int round = 0;
  int shape = 0;
};

/// Routes response lines to their records by client id.  Not thread-safe:
/// one reader thread owns it.
class ResponseJoiner {
 public:
  void expect(QueryRecord* record);
  /// Decodes one line and updates its record.  Returns the record when the
  /// line was terminal (done / error), otherwise null.  Pongs and lines for
  /// unknown ids are ignored.
  QueryRecord* onLine(std::string_view line, std::int64_t now);
  std::size_t pending() const noexcept { return open_.size(); }
  std::uint64_t pongs() const noexcept { return pongs_; }

 private:
  std::unordered_map<std::string, QueryRecord*> open_;
  std::uint64_t pongs_ = 0;
};

}  // namespace dsudbench
