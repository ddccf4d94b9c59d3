#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <mutex>
#include <optional>
#include <thread>

#include "client.hpp"
#include "common/rng.hpp"
#include "core/updates.hpp"
#include "gen/partition.hpp"
#include "gen/synthetic.hpp"
#include "oracle.hpp"
#include "spans.hpp"
#include "wiring.hpp"

namespace dsudbench {

namespace {

constexpr std::size_t kDims = 3;
/// Data is fixed (dsudd's default --seed=1); --seed drives the queries,
/// arrivals and updates, so every seed runs against the same database.
constexpr std::uint64_t kDataSeed = 1;
constexpr std::size_t kCheckThreads = 4;
constexpr double kDrainTimeoutS = 120.0;

constexpr double kMs = 1e-6;  // ns -> ms
/// Phase tag of unmeasured warm-up queries (still checked for correctness).
constexpr int kWarmupPhase = -1;
constexpr double kWarmupS = 1.0;

void sleepUntil(std::int64_t ns) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(ns)));
}

std::int64_t afterSeconds(std::int64_t from, double seconds) {
  return from + static_cast<std::int64_t>(seconds * 1e9);
}

dsud::Dataset makeData(std::size_t n, dsud::ValueDistribution dist) {
  dsud::SyntheticSpec spec;
  spec.n = n;
  spec.dims = kDims;
  spec.dist = dist;
  spec.seed = kDataSeed;
  return dsud::generateSynthetic(spec, dsud::uniformProbability());
}

std::vector<dsud::Dataset> partition(const dsud::Dataset& global, std::size_t m) {
  dsud::Rng rng(kDataSeed + 1);
  return dsud::partitionUniform(global, m, rng);
}

/// Box with per-dimension lower corner in [0, loMax) and side in
/// [side, side + spread), clipped to the unit cube.
dsud::Rect randomWindow(dsud::Rng& rng, double loMax, double side, double spread) {
  std::vector<double> lo(kDims);
  std::vector<double> hi(kDims);
  for (std::size_t j = 0; j < kDims; ++j) {
    lo[j] = rng.uniform() * loMax;
    hi[j] = std::min(1.0, lo[j] + side + rng.uniform() * spread);
  }
  dsud::Rect r = dsud::Rect::point(lo);
  r.expand(hi);
  return r;
}

std::vector<double> collect(const std::vector<const QueryRecord*>& records,
                            std::int64_t QueryRecord::*field) {
  std::vector<double> out;
  for (const QueryRecord* r : records) {
    if (r->ok && r->*field != 0) out.push_back(static_cast<double>(r->*field - r->origin) * kMs);
  }
  return out;
}

std::vector<const QueryRecord*> inPhase(const std::deque<QueryRecord>& records,
                                        int phase) {
  std::vector<const QueryRecord*> out;
  for (const QueryRecord& r : records) {
    if (r.phase == phase) out.push_back(&r);
  }
  return out;
}

/// Timed set-ups: the median of `setups` builds goes to setup_s; the last
/// build is the one the pass measures.
struct SetupTimes {
  std::vector<double> cluster;
  std::vector<double> server;
  std::vector<double> total;

  void add(std::int64_t t0, std::int64_t t1, std::int64_t t2) {
    cluster.push_back(static_cast<double>(t1 - t0) * 1e-9);
    server.push_back(static_cast<double>(t2 - t1) * 1e-9);
    total.push_back(static_cast<double>(t2 - t0) * 1e-9);
  }
};

/// Metrics every workload reports the same way.
struct Headline {
  std::vector<const QueryRecord*> queries;  ///< query_p50 / tail / ttfa / tt10
  std::vector<const QueryRecord*> idle;     ///< idle_p50
  std::vector<double> throughputQps;        ///< one value per round
  double tuplesPerQuery = 0.0;
  double roundsPerQuery = 0.0;
};

/// Median over measurement rounds of a per-round statistic: a transient
/// slowdown of the shared host that spoils one round does not move it.
template <typename Stat>
double medianOverRounds(const std::vector<const QueryRecord*>& records, Stat&& stat) {
  std::map<int, std::vector<const QueryRecord*>> byRound;
  for (const QueryRecord* r : records) byRound[r->round].push_back(r);
  std::vector<double> perRound;
  for (const auto& [round, rs] : byRound) perRound.push_back(stat(rs));
  return median(perRound);
}

void addEndToEnd(Pass& out, const Headline& h, const SetupTimes& setup) {
  auto p50 = [](std::int64_t QueryRecord::*field) {
    return [field](const std::vector<const QueryRecord*>& rs) {
      return median(collect(rs, field));
    };
  };
  double tailPct = 0.0;
  const double tail = medianOverRounds(h.queries, [&](const auto& rs) {
    const Tail t = tailPercentile(collect(rs, &QueryRecord::done));
    tailPct = t.pct;
    return t.value;
  });
  char note[48];
  std::snprintf(note, sizeof note, "p%g per round", tailPct);
  const auto n = [&](const std::vector<const QueryRecord*>& rs,
                     std::int64_t QueryRecord::*field) { return collect(rs, field).size(); };
  out.queryP50 = medianOverRounds(h.queries, p50(&QueryRecord::done));
  out.headline = h.queries;
  out.e2e.add("setup_s", median(setup.total), "s", setup.total.size());
  out.e2e.add("query_p50_ms", out.queryP50, "ms", n(h.queries, &QueryRecord::done));
  out.e2e.add("query_tail_ms", tail, "ms", n(h.queries, &QueryRecord::done), note);
  out.e2e.add("idle_p50_ms", medianOverRounds(h.idle, p50(&QueryRecord::done)), "ms",
              n(h.idle, &QueryRecord::done));
  out.e2e.add("ttfa_p50_ms", medianOverRounds(h.queries, p50(&QueryRecord::firstAnswer)),
              "ms", n(h.queries, &QueryRecord::firstAnswer));
  out.e2e.add("tt10_p50_ms", medianOverRounds(h.queries, p50(&QueryRecord::tenthAnswer)),
              "ms", n(h.queries, &QueryRecord::tenthAnswer));
  out.e2e.add("throughput_qps", median(h.throughputQps), "1/s", h.throughputQps.size());
  out.e2e.add("tuples_per_query", h.tuplesPerQuery, "tuples");
  out.e2e.add("rounds_per_query", h.roundsPerQuery, "RPCs");
  out.e2e.add("peak_rss_mb", peakRssMb(), "MiB");
  out.direct.add("setup.cluster_s", median(setup.cluster), "s", setup.cluster.size());
  out.direct.add("setup.server_s", median(setup.server), "s", setup.server.size());
}

void meanWork(const std::deque<QueryRecord>& records, Headline& h) {
  double tuples = 0.0;
  double rounds = 0.0;
  std::size_t n = 0;
  for (const QueryRecord& r : records) {
    if (!r.ok || r.phase == kWarmupPhase) continue;
    tuples += static_cast<double>(r.stats.tuplesShipped);
    rounds += static_cast<double>(r.stats.roundTrips);
    ++n;
  }
  h.tuplesPerQuery = n ? tuples / static_cast<double>(n) : 0.0;
  h.roundsPerQuery = n ? rounds / static_cast<double>(n) : 0.0;
}

/// Judges every record with `matches` (in parallel) and counts failures:
/// errors and wrong answers alike.
template <typename Matches>
void checkAll(Pass& out, Matches&& matches) {
  std::vector<QueryRecord*> all;
  for (QueryRecord& r : out.records) all.push_back(&r);
  std::vector<char> bad(all.size(), 0);
  parallelFor(all.size(), kCheckThreads, [&](std::size_t i) {
    const QueryRecord& r = *all[i];
    bad[i] = !r.ok || !matches(r);
  });
  out.attempted += all.size();
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (!bad[i]) continue;
    ++out.failed;
    if (out.failed <= 5) {
      std::fprintf(stderr, "dsudbench: query %s failed (%s)\n",
                   all[i]->request.id.c_str(),
                   all[i]->ok ? "wrong answer" : all[i]->error.c_str());
    }
  }
}

// ---------------------------------------------------------------------------
// dsudd over NDJSON: shared rig

struct DaemonRig {
  std::unique_ptr<BenchCluster> cluster;
  std::unique_ptr<BenchDaemon> daemon;
  std::unique_ptr<ClientFleet> fleet;

  /// Tears down clients, then the daemon, then the cluster it serves.
  void reset() {
    fleet.reset();
    daemon.reset();
    cluster.reset();
  }
};

DaemonRig setUpDaemon(const std::vector<dsud::Dataset>& parts, bool traced,
                      const dsud::server::ServerConfig& config,
                      std::size_t connections, int setups, SetupTimes& times) {
  DaemonRig rig;
  for (int i = 0; i < setups; ++i) {
    rig.reset();  // tear the previous build down before timing the next
    const std::int64_t t0 = nowNs();
    rig.cluster = std::make_unique<BenchCluster>(parts, kDims,
                                                 ClusterOptions{.traced = traced});
    const std::int64_t t1 = nowNs();
    rig.daemon = std::make_unique<BenchDaemon>(*rig.cluster, config);
    rig.fleet = std::make_unique<ClientFleet>(rig.daemon->port(), connections);
    rig.fleet->ping();
    times.add(t0, t1, nowNs());
  }
  return rig;
}

/// Thread-safe record factory: the main thread and the reader thread's
/// closed-loop refills both append.
class RecordFactory {
 public:
  explicit RecordFactory(Pass& out) : out_(out) {}

  QueryRecord& make(int phase, const dsud::server::QueryRequest& request) {
    std::lock_guard lock(mutex_);
    QueryRecord& r = out_.records.emplace_back();
    r.request = request;
    r.request.id = std::to_string(out_.records.size());
    r.request.progressive = true;
    r.request.profile = true;
    r.phase = phase;
    return r;
  }

 private:
  std::mutex mutex_;  // guards out_.records appends
  Pass& out_;
};

void sendRecord(ClientFleet& fleet, std::size_t conn, QueryRecord& r) {
  fleet.send(conn, r, dsud::server::encodeRequest(r.request));
}

/// One client, one query at a time, `thinkS` between queries, until `end`.
template <typename Next>
void runIdle(ClientFleet& fleet, std::int64_t end, double thinkS, Next&& next) {
  while (nowNs() < end) {
    sendRecord(fleet, 0, next());
    fleet.drain(kDrainTimeoutS);
    if (thinkS > 0) std::this_thread::sleep_for(std::chrono::duration<double>(thinkS));
  }
}

/// Closed loop: every connection keeps `depth` queries outstanding until
/// `end`.  Returns the completions whose terminal arrived before `end`.
template <typename Next>
std::size_t runClosed(ClientFleet& fleet, std::size_t depth, std::int64_t end,
                      Next&& next) {
  // Only the reader thread runs the callback; drain() orders its writes
  // before the read below.
  std::size_t completed = 0;
  std::vector<QueryRecord*> initial;
  for (std::size_t c = 0; c < fleet.size(); ++c) {
    for (std::size_t k = 0; k < depth; ++k) initial.push_back(&next());
  }
  fleet.setOnTerminal([&](std::size_t conn, QueryRecord& record) {
    if (record.done > end) return;
    ++completed;
    sendRecord(fleet, conn, next());
  });
  for (std::size_t i = 0; i < initial.size(); ++i) {
    sendRecord(fleet, i % fleet.size(), *initial[i]);
  }
  sleepUntil(end);
  fleet.drain(kDrainTimeoutS);
  fleet.setOnTerminal(nullptr);
  return completed;
}

// ---------------------------------------------------------------------------
// dsudd-open

class DsuddOpen final : public Workload {
 public:
  /// Offered rate of the nominal phase: about half the saturation capacity
  /// measured on a 4-core x86 host (see METRICS.md).
  static constexpr double kNominalQps = 85.0;
  static constexpr std::size_t kConnections = 4;
  static constexpr std::size_t kDepth = 4;  // 16 outstanding < in-flight cap 64
  static constexpr double kThinkS = 0.005;
  /// The three phases repeat in this many rounds, so each samples the whole
  /// run and a transient slowdown of the host spoils one round, not a phase.
  static constexpr int kRounds = 5;

  explicit DsuddOpen(std::uint64_t seed)
      : seed_(seed), global_(makeData(20000, dsud::ValueDistribution::kIndependent)),
        parts_(partition(global_, 10)) {}

  void pass(bool traced, double seconds, int setups, Pass& out) override {
    SetupTimes times;
    DaemonRig rig = setUpDaemon(parts_, traced, dsuddDefaults(), kConnections,
                                setups - setups / 2, times);
    ClientFleet& fleet = *rig.fleet;
    RecordFactory records(out);
    // Both passes of a traced run draw the same queries.
    dsud::Rng rng(seed_ * 0x9e3779b97f4a7c15ull + 1);
    std::mutex rngMutex;  // guards rng and round: the closed loop draws
                          // from the reader thread
    int round = 0;
    auto next = [&](int phase) -> QueryRecord& {
      std::lock_guard lock(rngMutex);
      dsud::server::QueryRequest req;
      req.algo = rng.uniform() < 0.8 ? dsud::Algo::kEdsud : dsud::Algo::kDsud;
      req.q = 0.2 + 0.4 * rng.uniform();
      req.window = randomWindow(rng, 0.3, 0.4, 0.3);
      QueryRecord& r = records.make(phase, req);
      r.round = round;
      return r;
    };
    // Warm-up (unmeasured): a short closed loop, so caches, allocators and
    // the engine's lazily built pools are in steady state.
    runClosed(fleet, kDepth, afterSeconds(nowNs(), kWarmupS),
              [&]() -> QueryRecord& { return next(kWarmupPhase); });
    SpanLog::instance().clear();

    Headline h;
    std::vector<double> lateMs;
    const double roundSeconds = seconds / kRounds;
    for (int k = 0; k < kRounds; ++k) {
      {
        std::lock_guard lock(rngMutex);
        round = k;
      }
      // Idle: one client, one query at a time, with think time.
      runIdle(fleet, afterSeconds(nowNs(), 0.2 * roundSeconds), kThinkS,
              [&]() -> QueryRecord& { return next(0); });

      // Nominal: open-loop Poisson arrivals from one pacing thread (this
      // one), timed from the scheduled slot.
      const double window = 0.5 * roundSeconds;
      const std::vector<double> slots = poissonSchedule(
          (seed_ ^ 0x5851f42d4c957f2dull) + static_cast<std::uint64_t>(k), kNominalQps, window);
      const std::int64_t n0 = nowNs();
      for (std::size_t i = 0; i < slots.size(); ++i) {
        QueryRecord& r = next(1);
        r.origin = afterSeconds(n0, slots[i]);
        sleepUntil(r.origin);
        sendRecord(fleet, i % kConnections, r);
        lateMs.push_back(static_cast<double>(r.sent - r.origin) * kMs);
      }
      sleepUntil(afterSeconds(n0, window));
      fleet.drain(kDrainTimeoutS);

      // Saturation: closed loop under the admission caps.
      const double satSeconds = 0.3 * roundSeconds;
      const std::size_t completed =
          runClosed(fleet, kDepth, afterSeconds(nowNs(), satSeconds),
                    [&]() -> QueryRecord& { return next(2); });
      h.throughputQps.push_back(static_cast<double>(completed) / satSeconds);
    }
    // The rest of the timed set-ups come after the measurement, so setup_s
    // samples both ends of the run rather than one moment of it.
    rig.reset();
    setUpDaemon(parts_, traced, dsuddDefaults(), kConnections, setups / 2, times);

    h.queries = inPhase(out.records, 1);
    h.idle = inPhase(out.records, 0);
    meanWork(out.records, h);
    addEndToEnd(out, h, times);
    // The run is invalid when the generator fell behind: its p99 slot went
    // out later than the mean inter-arrival gap.
    const double lateP99 = percentile(lateMs, 99.0);
    const bool behind = lateP99 > 1e3 / kNominalQps;
    out.direct.add("gen.late_ms", lateP99, "ms", lateMs.size(),
                   behind ? "INVALID: generator fell behind" : "p99");
    if (behind) {
      std::fprintf(stderr, "dsudbench: invalid run, open-loop generator fell "
                   "behind (p99 late %.3f ms)\n", lateP99);
    }
    checkAll(out, [&](const QueryRecord& r) {
      const OracleSet oracle = computeOracle(global_, r.request.mask, r.request.window);
      return answersMatch(oracle, r.request.q, r.answers);
    });
  }

 private:
  std::uint64_t seed_;
  dsud::Dataset global_;
  std::vector<dsud::Dataset> parts_;
};

// ---------------------------------------------------------------------------
// dsudd-hot-rw

class DsuddHotRw final : public Workload {
 public:
  static constexpr std::size_t kSites = 8;
  static constexpr std::size_t kConnections = 4;
  static constexpr std::size_t kDepth = 4;
  static constexpr int kReadPhases = 5;
  static constexpr int kUpdatesPerBatch = 16;
  static constexpr double kMaintainQ = 0.3;
  static constexpr double kQBands[4] = {0.3, 0.4, 0.5, 0.6};
  static constexpr dsud::DimMask kMasks[4] = {0, 0b011, 0b101, 0b110};
  static constexpr int kWindows = 4;  // window 0 = unconstrained
  static constexpr int kCombos = 4 * kWindows;  // (mask, window) pairs
  static constexpr int kShapes = 4 * kCombos;   // x q band

  explicit DsuddHotRw(std::uint64_t seed)
      : seed_(seed), initial_(makeData(20000, dsud::ValueDistribution::kAnticorrelated)),
        parts_(partition(initial_, kSites)) {
    // The shape pool and its popularity are fixed, like the data; the seed
    // drives the draws from it and the update stream.
    dsud::Rng rng(kDataSeed + 7);
    windows_.push_back(std::nullopt);
    for (int w = 1; w < kWindows; ++w) windows_.push_back(randomWindow(rng, 0.25, 0.55, 0.3));
    // Zipf(1) popularity over the 64 shapes, ranked by a seeded shuffle.
    std::vector<int> order(kShapes);
    for (int i = 0; i < kShapes; ++i) order[i] = i;
    for (int i = kShapes - 1; i > 0; --i) {
      std::swap(order[i], order[rng.below(static_cast<std::uint64_t>(i) + 1)]);
    }
    double total = 0.0;
    for (int rank = 0; rank < kShapes; ++rank) {
      total += 1.0 / (rank + 1);
      cumulative_.emplace_back(total, order[rank]);
    }
    for (auto& c : cumulative_) c.first /= total;
  }

  void pass(bool traced, double seconds, int setups, Pass& out) override {
    dsud::server::ServerConfig config = dsuddDefaults();
    config.batching.enabled = true;
    config.batching.windowSeconds = 0.002;
    SetupTimes times;
    DaemonRig rig =
        setUpDaemon(parts_, traced, config, kConnections, setups - setups / 2, times);
    ClientFleet& fleet = *rig.fleet;
    RecordFactory records(out);

    // Live database mirror for the oracle, in the cluster's partitioning.
    std::vector<dsud::Tuple> live;
    std::vector<dsud::SiteId> liveSite;
    for (std::size_t s = 0; s < parts_.size(); ++s) {
      for (std::size_t row = 0; row < parts_[s].size(); ++row) {
        live.push_back(parts_[s].tuple(row));
        liveSite.push_back(static_cast<dsud::SiteId>(s));
      }
    }
    std::vector<std::vector<OracleSet>> oracles;  // [version][combo]
    auto snapshotOracles = [&] {
      dsud::Dataset data(kDims);
      for (const dsud::Tuple& t : live) data.add(t);
      std::vector<OracleSet> sets(kCombos);
      parallelFor(kCombos, kCheckThreads, [&](std::size_t c) {
        sets[c] = computeOracle(data, kMasks[c / kWindows], windows_[c % kWindows]);
      });
      oracles.push_back(std::move(sets));
    };

    dsud::QueryConfig maintained;
    maintained.q = kMaintainQ;
    // Optional so it can go before the coordinator it holds.
    std::optional<dsud::SkylineMaintainer> maintainer;
    maintainer.emplace(rig.cluster->coordinator(), maintained,
                       dsud::MaintenanceStrategy::kIncremental);
    maintainer->initialize();
    snapshotOracles();
    std::uint64_t maintChecks = 0;
    std::uint64_t maintFailures = 0;
    auto checkMaintainer = [&] {
      std::vector<std::pair<dsud::TupleId, double>> sky;
      for (const auto& e : maintainer->skyline()) sky.emplace_back(e.tuple.id, e.globalSkyProb);
      ++maintChecks;
      if (!answersMatch(oracles.back()[0], kMaintainQ, sky)) {
        ++maintFailures;
        std::fprintf(stderr, "dsudbench: maintained skyline diverged at version %zu\n",
                     oracles.size() - 1);
      }
    };
    checkMaintainer();

    // Both passes of a traced run draw the same queries and updates.
    dsud::Rng rng(seed_ * 0x9e3779b97f4a7c15ull + 3);
    dsud::Rng updateRng(seed_ * 0x9e3779b97f4a7c15ull + 5);
    std::mutex rngMutex;  // guards rng and version: the closed loop draws
                          // from the reader thread
    int version = 0;
    auto next = [&](int phase) -> QueryRecord& {
      std::lock_guard lock(rngMutex);
      const double u = rng.uniform();
      const int shape = std::lower_bound(cumulative_.begin(), cumulative_.end(),
                                         std::make_pair(u, -1))
                            ->second;
      const int combo = shape % kCombos;
      dsud::server::QueryRequest req;
      req.algo = dsud::Algo::kEdsud;
      req.q = kQBands[shape / kCombos];
      req.mask = kMasks[combo / kWindows];
      req.window = windows_[combo % kWindows];
      QueryRecord& r = records.make(phase, req);
      r.shape = combo;
      r.round = version;  // one round per read phase, i.e. per data version
      return r;
    };

    std::uint64_t nextId = 1'000'000'000;
    std::vector<double> updateMs;
    std::vector<double> updateTuples;
    auto applyBatch = [&] {
      for (int i = 0; i < kUpdatesPerBatch; ++i) {
        dsud::UpdateEvent event;
        if (i % 2 == 0) {
          event.kind = dsud::UpdateEvent::Kind::kInsert;
          event.site = static_cast<dsud::SiteId>(updateRng.below(kSites));
          std::vector<double> v(kDims);
          dsud::samplePoint(dsud::ValueDistribution::kAnticorrelated, kDims,
                            updateRng, v.data());
          event.tuple = dsud::Tuple(nextId++, std::move(v), 1.0 - updateRng.uniform());
          live.push_back(event.tuple);
          liveSite.push_back(event.site);
        } else {
          event.kind = dsud::UpdateEvent::Kind::kDelete;
          const std::size_t idx = updateRng.below(live.size());
          event.site = liveSite[idx];
          event.tuple = live[idx];
          live[idx] = std::move(live.back());
          live.pop_back();
          liveSite[idx] = liveSite.back();
          liveSite.pop_back();
        }
        const std::uint64_t key = kUpdateContextBit | nextId++;
        ContextScope context(key);
        const std::int64_t t0 = nowNs();
        dsud::UpdateStats stats;
        {
          SpanScope span(Layer::kUpdate, static_cast<Op>(event.kind), 0, key);
          stats = maintainer->apply(event);
        }
        updateMs.push_back(static_cast<double>(nowNs() - t0) * kMs);
        updateTuples.push_back(static_cast<double>(stats.tuplesShipped));
      }
    };

    SpanLog::instance().clear();
    const double phaseSeconds = seconds / kReadPhases;
    Headline h;
    for (int p = 0; p < kReadPhases; ++p) {
      if (p > 0) {
        // Writes only while no query is in flight (Sec. 5.4 contract).
        fleet.drain(kDrainTimeoutS);
        applyBatch();
        {
          std::lock_guard lock(rngMutex);
          ++version;
        }
        snapshotOracles();
        checkMaintainer();
      }
      const std::size_t completed =
          runClosed(fleet, kDepth, afterSeconds(nowNs(), 0.9 * phaseSeconds),
                    [&]() -> QueryRecord& { return next(1); });
      h.throughputQps.push_back(static_cast<double>(completed) / (0.9 * phaseSeconds));
      // Idle last, on the cache the closed loop warmed: a lone client's view.
      const std::int64_t i0 = nowNs();
      runIdle(fleet, afterSeconds(i0, 0.1 * phaseSeconds), 0.0,
              [&]() -> QueryRecord& { return next(0); });
    }
    maintainer.reset();
    rig.reset();
    setUpDaemon(parts_, traced, config, kConnections, setups / 2, times);

    h.queries = inPhase(out.records, 1);
    h.idle = inPhase(out.records, 0);
    meanWork(out.records, h);
    addEndToEnd(out, h, times);
    out.direct.add("maint.update_p50_ms", median(updateMs), "ms", updateMs.size());
    out.direct.add("maint.tuples_per_update", mean(updateTuples), "tuples", updateTuples.size());
    checkAll(out, [&](const QueryRecord& r) {
      return answersMatch(oracles[r.round][r.shape], r.request.q, r.answers);
    });
    out.attempted += maintChecks;
    out.failed += maintFailures;
  }

 private:
  std::uint64_t seed_;
  dsud::Dataset initial_;
  std::vector<dsud::Dataset> parts_;
  std::vector<std::optional<dsud::Rect>> windows_;
  std::vector<std::pair<double, int>> cumulative_;  ///< Zipf CDF -> shape
};

// ---------------------------------------------------------------------------
// paper-tcp

class PaperTcp final : public Workload {
 public:
  static constexpr std::size_t kSites = 16;
  static constexpr int kShapes = 16;

  explicit PaperTcp(std::uint64_t seed)
      : global_(makeData(100000, dsud::ValueDistribution::kAnticorrelated)),
        parts_(partition(global_, kSites)) {
    // Stratified thresholds on [0.3, 0.7]: one per sixteenth, jittered by
    // the seed, so the shape mix is even for every seed.
    dsud::Rng rng(seed * 0x9e3779b97f4a7c15ull + 11);
    for (int i = 0; i < kShapes; ++i) {
      qs_.push_back(0.3 + 0.4 * (i + rng.uniform()) / kShapes);
    }
  }

  void pass(bool traced, double seconds, int setups, Pass& out) override {
    SetupTimes times;
    std::unique_ptr<BenchCluster> cluster;
    auto setUp = [&](int count) {
      for (int i = 0; i < count; ++i) {
        cluster.reset();
        const std::int64_t t0 = nowNs();
        cluster = std::make_unique<BenchCluster>(
            parts_, kDims, ClusterOptions{.tcp = true, .traced = traced});
        const std::int64_t t1 = nowNs();
        times.add(t0, t1, t1);
      }
    };
    setUp(setups - setups / 2);
    out.hasServer = false;
    SpanLog::instance().clear();

    struct ShapeCounts {
      std::uint64_t tuples = 0, rounds = 0, toFirst = 0;
      bool operator==(const ShapeCounts&) const = default;
    };
    std::map<int, ShapeCounts> shapes;
    std::uint64_t nondeterministic = 0;
    auto runOne = [&](int i, int phase) {
      QueryRecord& r = out.records.emplace_back();
      r.phase = phase;
      r.shape = i % kShapes;
      r.request.id = std::to_string(out.records.size());
      r.request.q = qs_[r.shape];
      std::uint64_t toFirst = 0;
      dsud::QueryOptions options;
      options.progress = [&](const dsud::GlobalSkylineEntry& e,
                             const dsud::ProgressPoint& point) {
        r.answers.emplace_back(e.tuple.id, e.globalSkyProb);
        if (point.reported == 1) {
          r.firstAnswer = nowNs();
          toFirst = point.tuplesShipped;
        }
        if (point.reported == 10) r.tenthAnswer = nowNs();
      };
      dsud::QueryConfig config;
      config.q = r.request.q;
      r.origin = r.sent = nowNs();
      try {
        const dsud::QueryResult result =
            cluster->engine().run(dsud::Algo::kEdsud, config, options);
        r.done = nowNs();
        r.ok = true;
        r.query = result.id;
        r.stats = result.stats;
      } catch (const std::exception& e) {
        r.done = nowNs();
        r.error = e.what();
        return;
      }
      const ShapeCounts counts{r.stats.tuplesShipped, r.stats.roundTrips, toFirst};
      const auto [it, fresh] = shapes.emplace(r.shape, counts);
      if (!fresh && !(it->second == counts)) {
        ++nondeterministic;
        std::fprintf(stderr, "dsudbench: shape %d repeated with different counts\n",
                     r.shape);
      }
    };
    // Warm-up (unmeasured) over two shapes, which the determinism check
    // then also sees repeated.
    for (int i = 0; i < 2; ++i) runOne(i, kWarmupPhase);
    const std::int64_t end = afterSeconds(nowNs(), seconds);
    for (int i = 0; nowNs() < end; ++i) runOne(i, 0);
    setUp(setups / 2);  // the rest after the measurement, as in setUpDaemon's callers
    cluster.reset();

    // Per-shape counts are deterministic, so averaging over shapes (not
    // queries) makes the work metrics repeat exactly for a seed.
    Headline h;
    double tuples = 0.0, rounds = 0.0, toFirst = 0.0;
    std::uint64_t digest = 1469598103934665603ull;  // FNV-1a over the counts
    for (const auto& [shape, c] : shapes) {
      tuples += static_cast<double>(c.tuples);
      rounds += static_cast<double>(c.rounds);
      toFirst += static_cast<double>(c.toFirst);
      for (const std::uint64_t v : {static_cast<std::uint64_t>(shape), c.tuples, c.rounds, c.toFirst}) {
        digest = (digest ^ v) * 1099511628211ull;
      }
    }
    const double nShapes = static_cast<double>(std::max<std::size_t>(shapes.size(), 1));
    h.tuplesPerQuery = tuples / nShapes;
    h.roundsPerQuery = rounds / nShapes;
    h.queries = inPhase(out.records, 0);
    h.idle = h.queries;  // one sequential client: every query runs idle
    h.throughputQps.push_back(static_cast<double>(h.queries.size()) / seconds);
    addEndToEnd(out, h, times);
    out.direct.add("core.tuples_to_first_answer", toFirst / nShapes, "tuples", shapes.size());
    std::printf("  determinism: %zu shapes, counts digest %016llx\n", shapes.size(),
                static_cast<unsigned long long>(digest));

    // Computed after the first pass, not before its set-up: the N^2 scan
    // churns the heap, and set-up timings taken after it are bimodal.
    if (!oracle_) oracle_ = computeOracle(global_, 0, std::nullopt);
    checkAll(out, [&](const QueryRecord& r) {
      return answersMatch(*oracle_, r.request.q, r.answers);
    });
    out.attempted += 1;
    out.failed += nondeterministic > 0 ? 1 : 0;
  }

 private:
  dsud::Dataset global_;
  std::vector<dsud::Dataset> parts_;
  std::optional<OracleSet> oracle_;  ///< full-space P_sky, built on first use
  std::vector<double> qs_;
};

}  // namespace

std::unique_ptr<Workload> makeWorkload(const std::string& name, std::uint64_t seed) {
  if (name == "dsudd-open") return std::make_unique<DsuddOpen>(seed);
  if (name == "dsudd-hot-rw") return std::make_unique<DsuddHotRw>(seed);
  if (name == "paper-tcp") return std::make_unique<PaperTcp>(seed);
  return nullptr;
}

}  // namespace dsudbench
