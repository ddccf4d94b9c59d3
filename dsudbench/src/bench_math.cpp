#include "bench_math.hpp"

#include <algorithm>
#include <cmath>
#include <variant>

#include "server/proto.hpp"

namespace dsudbench {

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  return values[rank - 1];
}

Tail tailPercentile(std::vector<double> values, std::size_t beyond) {
  const double n = static_cast<double>(values.size());
  for (const double pct : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    const auto rank = static_cast<std::size_t>(std::ceil(pct / 100.0 * n));
    if (values.size() >= rank + beyond) {
      return {pct, percentile(std::move(values), pct)};
    }
  }
  return {50.0, percentile(std::move(values), 50.0)};
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

std::int64_t unionLength(std::vector<Interval> intervals) {
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  std::int64_t total = 0;
  std::int64_t curStart = 0;
  std::int64_t curEnd = 0;
  bool open = false;
  for (const Interval& iv : intervals) {
    if (iv.end <= iv.start) continue;
    if (open && iv.start <= curEnd) {
      curEnd = std::max(curEnd, iv.end);
      continue;
    }
    if (open) total += curEnd - curStart;
    curStart = iv.start;
    curEnd = iv.end;
    open = true;
  }
  if (open) total += curEnd - curStart;
  return total;
}

std::int64_t selfTime(Interval parent, std::vector<Interval> children) {
  for (Interval& c : children) {
    c.start = std::max(c.start, parent.start);
    c.end = std::min(c.end, parent.end);
  }
  return (parent.end - parent.start) - unionLength(std::move(children));
}

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double uniform01(std::uint64_t& state) {
  return static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
}

std::vector<double> poissonSchedule(std::uint64_t seed, double rate,
                                    double seconds) {
  std::vector<double> out;
  if (rate <= 0.0) return out;
  std::uint64_t state = seed;
  double t = 0.0;
  for (;;) {
    t += -std::log1p(-uniform01(state)) / rate;
    if (t >= seconds) break;
    out.push_back(t);
  }
  return out;
}

void ResponseJoiner::expect(QueryRecord* record) {
  open_[record->request.id] = record;
}

QueryRecord* ResponseJoiner::onLine(std::string_view line, std::int64_t now) {
  namespace srv = dsud::server;
  const srv::Response response = srv::decodeResponse(line);
  if (std::holds_alternative<srv::PongResponse>(response)) {
    ++pongs_;
    return nullptr;
  }
  const std::string* id = std::visit(
      [](const auto& r) -> const std::string* {
        if constexpr (requires { r.id; }) {
          return &r.id;
        } else {
          return nullptr;
        }
      },
      response);
  if (id == nullptr) return nullptr;
  const auto it = open_.find(*id);
  if (it == open_.end()) return nullptr;
  QueryRecord& rec = *it->second;
  if (const auto* ack = std::get_if<srv::AckResponse>(&response)) {
    rec.ack = now;
    rec.query = ack->query;
  } else if (const auto* answer = std::get_if<srv::AnswerResponse>(&response)) {
    rec.answers.emplace_back(answer->entry.tuple.id,
                             answer->entry.globalSkyProb);
    if (rec.answers.size() == 1) rec.firstAnswer = now;
    if (rec.answers.size() == 10) rec.tenthAnswer = now;
  } else if (const auto* done = std::get_if<srv::DoneResponse>(&response)) {
    rec.done = now;
    rec.ok = true;
    rec.stats = done->stats;
    if (done->profile) rec.cache = done->profile->cache;
  } else if (const auto* error = std::get_if<srv::ErrorResponse>(&response)) {
    rec.done = now;
    rec.ok = false;
    rec.error = srv::errorCodeName(error->code);
  } else {
    return nullptr;
  }
  if (rec.done == 0) return nullptr;
  open_.erase(it);
  return &rec;
}

}  // namespace dsudbench
