// The structured event log and the flight recorder (obs/log.hpp,
// obs/recorder.hpp): NDJSON rendering, the level gate, sink fan-out, ring
// wraparound under concurrent writers (the TSan job runs this suite), and
// the end-to-end anomaly path — a chaos-degraded query must leave behind a
// dump whose event sequence explains the degradation.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/cluster.hpp"
#include "gen/partition.hpp"
#include "gen/synthetic.hpp"
#include "net/chaos.hpp"
#include "obs/log.hpp"
#include "obs/recorder.hpp"
#include "server/json.hpp"

namespace dsud {
namespace {

namespace fs = std::filesystem;

obs::Event makeEvent(std::string name, std::uint64_t wallNs = 0,
                     LogLevel level = LogLevel::kInfo) {
  obs::Event event;
  event.wallNs = wallNs;
  event.level = level;
  event.component = "test";
  event.name = std::move(name);
  return event;
}

/// A unique scratch directory under the system temp dir, removed on exit.
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = fs::temp_directory_path() /
            (tag + "-" + std::to_string(::getpid()) + "-" +
             std::to_string(counter_++));
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  const fs::path& path() const noexcept { return path_; }

 private:
  static inline std::atomic<int> counter_{0};
  fs::path path_;
};

/// The `event` name a recorder line carries.
std::string nameOf(const std::string& line) {
  return server::Json::parse(line).find("event")->asString();
}

std::vector<std::string> readLines(const fs::path& path) {
  std::ifstream file(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(file, line)) lines.push_back(line);
  return lines;
}

// --- NDJSON rendering ------------------------------------------------------

TEST(EventNdjsonTest, RendersReservedKeysAndTypedFields) {
  obs::Event event = makeEvent("cache.hit", 123, LogLevel::kWarn);
  event.fields.push_back(obs::field("query", std::uint64_t{42}));
  event.fields.push_back(obs::field("delta", std::int64_t{-7}));
  event.fields.push_back(obs::field("ratio", 0.5));
  event.fields.push_back(obs::field("degraded", true));
  event.fields.push_back(obs::field("tenant", "acme"));
  EXPECT_EQ(obs::eventToNdjson(event),
            R"({"ts_ns":123,"level":"warn","component":"test",)"
            R"("event":"cache.hit","query":42,"delta":-7,"ratio":0.5,)"
            R"("degraded":true,"tenant":"acme"})");
}

TEST(EventNdjsonTest, EscapesStringsAndSanitisesNonFiniteNumbers) {
  obs::Event event = makeEvent("weird", 1);
  event.component = "a\"b";
  event.fields.push_back(obs::field("path", "C:\\tmp\nx\t\x01\b\f"));
  event.fields.push_back(obs::field("nan", 0.0 / 0.0));
  const std::string line = obs::eventToNdjson(event);
  EXPECT_NE(line.find(R"("component":"a\"b")"), std::string::npos);
  EXPECT_NE(line.find(R"("path":"C:\\tmp\nx\t\u0001\b\f")"),
            std::string::npos);
  EXPECT_NE(line.find(R"("nan":null)"), std::string::npos)
      << "NaN must render as null, not break the JSON document: " << line;
}

// --- EventLog: gate and fan-out --------------------------------------------

class CountingSink final : public obs::EventSink {
 public:
  void accept(const obs::Event& event) override {
    std::lock_guard lock(mutex_);
    names.push_back(event.name);
  }
  std::vector<std::string> snapshot() const {
    std::lock_guard lock(mutex_);
    return names;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<std::string> names;
};

TEST(EventLogTest, LevelGateFiltersBelowThreshold) {
  obs::EventLog log;
  auto sink = std::make_shared<CountingSink>();
  log.addSink(sink);
  log.setLevel(LogLevel::kWarn);
  EXPECT_FALSE(log.enabled(LogLevel::kDebug));
  EXPECT_FALSE(log.enabled(LogLevel::kInfo));
  EXPECT_TRUE(log.enabled(LogLevel::kWarn));

  log.emit(LogLevel::kDebug, "test", "too.low");
  log.emit(LogLevel::kInfo, "test", "still.low");
  log.emit(LogLevel::kWarn, "test", "passes");
  log.emit(LogLevel::kError, "test", "also.passes");
  EXPECT_EQ(sink->snapshot(),
            (std::vector<std::string>{"passes", "also.passes"}));
}

TEST(EventLogTest, StampsWallClockAndRemovesSinksByIdentity) {
  obs::EventLog log;
  auto sink = std::make_shared<CountingSink>();
  log.addSink(sink);
  EXPECT_EQ(log.sinkCount(), 1u);
  log.emit(makeEvent("one"));
  log.removeSink(sink.get());
  EXPECT_EQ(log.sinkCount(), 0u);
  log.emit(makeEvent("two"));
  EXPECT_EQ(sink->snapshot(), std::vector<std::string>{"one"});
}

TEST(EventLogTest, FileSinkAppendsParseableLines) {
  TempDir dir("dsud-filesink");
  const fs::path path = dir.path() / "events.ndjson";
  {
    obs::EventLog log;
    auto sink = std::make_shared<obs::FileSink>(path.string());
    ASSERT_TRUE(sink->ok());
    log.addSink(std::move(sink));
    log.emit(LogLevel::kInfo, "test", "first",
             {obs::field("n", std::uint64_t{1})});
    log.emit(LogLevel::kWarn, "test", "second", {obs::field("ok", true)});
  }
  const std::vector<std::string> lines = readLines(path);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"event\":\"first\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"event\":\"second\""), std::string::npos);
}

// --- FlightRecorder: ring semantics ----------------------------------------

TEST(FlightRecorderTest, KeepsTheLastCapacityEventsInOrder) {
  obs::FlightRecorder recorder(8);
  for (int i = 0; i < 20; ++i) {
    recorder.accept(
        makeEvent(std::string("e").append(std::to_string(i)), 100 + i));
  }
  EXPECT_EQ(recorder.capacity(), 8u);
  EXPECT_EQ(recorder.recorded(), 20u);
  const std::vector<std::string> kept = recorder.snapshot();
  ASSERT_EQ(kept.size(), 8u);
  for (std::size_t i = 0; i < kept.size(); ++i) {
    EXPECT_EQ(nameOf(kept[i]), "e" + std::to_string(12 + i))
        << "snapshot must hold the newest events, oldest first";
  }
}

TEST(FlightRecorderTest, SnapshotIsTheRenderOfTheNewestEvents) {
  obs::FlightRecorder recorder(4);
  std::vector<std::string> renders;
  for (int i = 0; i < 11; ++i) {
    obs::Event event = makeEvent("query.done", 500 + i);
    event.fields.push_back(obs::field("query", static_cast<std::uint64_t>(i)));
    event.fields.push_back(obs::field("seconds", 0.001 * i));
    event.fields.push_back(obs::field("algo", "edsud"));
    renders.push_back(obs::eventToNdjson(event));
    recorder.accept(event);
  }
  const std::vector<std::string> newest(renders.end() - 4, renders.end());
  EXPECT_EQ(recorder.snapshot(), newest);
  std::string dump;
  for (const std::string& line : newest) dump += line + "\n";
  EXPECT_EQ(recorder.dumpNdjson(), dump);
}

TEST(FlightRecorderTest, SnapshotFiltersByTimestamp) {
  obs::FlightRecorder recorder(16);
  for (int i = 0; i < 10; ++i) {
    recorder.accept(
        makeEvent(std::string("e").append(std::to_string(i)), 1000 + i));
  }
  EXPECT_EQ(recorder.snapshot(0).size(), 10u);
  EXPECT_EQ(recorder.snapshot(1005).size(), 5u);
  EXPECT_EQ(recorder.snapshot(2000).size(), 0u);
}

/// The TSan-targeted interleaving: writers race each other around the ring
/// while readers snapshot and render.  Correctness bar: no data race, no
/// torn event, exact lifetime count, and a full ring afterwards.
TEST(FlightRecorderTest, ConcurrentWritersWrapCleanly) {
  constexpr std::size_t kWriters = 8;
  constexpr std::size_t kPerWriter = 2000;
  constexpr std::size_t kCapacity = 64;
  obs::FlightRecorder recorder(kCapacity);

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (const std::string& line : recorder.snapshot()) {
        // A torn copy would surface as a line that does not parse or lacks
        // its name (or as a TSan report).
        ASSERT_EQ(nameOf(line).front(), 'w') << line;
      }
    }
  });

  std::vector<std::thread> writers;
  for (std::size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&recorder, w] {
      for (std::size_t i = 0; i < kPerWriter; ++i) {
        obs::Event event =
            makeEvent(std::string("w").append(std::to_string(w)), 1 + i);
        event.fields.push_back(obs::field("i", static_cast<std::uint64_t>(i)));
        recorder.accept(event);
      }
    });
  }
  for (std::thread& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  EXPECT_EQ(recorder.recorded(), kWriters * kPerWriter);
  EXPECT_EQ(recorder.snapshot().size(), kCapacity)
      << "after the dust settles every slot holds one event";
}

// --- FlightRecorder: anomaly dumps -----------------------------------------

TEST(FlightRecorderTest, AnomalyDumpsTheRecentWindow) {
  TempDir dir("dsud-recorder");
  obs::FlightRecorder recorder(32);
  recorder.setDumpDir(dir.path().string());
  const std::uint64_t now = obs::wallClockNs();
  recorder.accept(makeEvent("ancient", now - 3600ull * 1'000'000'000ull));
  recorder.accept(makeEvent("recent.one", now - 1000));
  recorder.accept(makeEvent("recent.two", now));

  const std::string path = recorder.anomaly("unit_test");
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(recorder.dumps(), 1u);
  EXPECT_NE(path.find("recorder-unit_test-"), std::string::npos);

  const std::vector<std::string> lines = readLines(path);
  ASSERT_EQ(lines.size(), 2u)
      << "events older than the window must not be dumped";
  EXPECT_NE(lines[0].find("recent.one"), std::string::npos);
  EXPECT_NE(lines[1].find("recent.two"), std::string::npos);
}

TEST(FlightRecorderTest, AnomalyWithoutDumpDirIsANoOp) {
  obs::FlightRecorder recorder(8);
  recorder.accept(makeEvent("something"));
  EXPECT_EQ(recorder.anomaly("nowhere"), "");
}

TEST(FlightRecorderTest, ReasonIsSanitisedIntoTheFilename) {
  TempDir dir("dsud-recorder");
  obs::FlightRecorder recorder(8);
  recorder.setDumpDir(dir.path().string());
  recorder.accept(makeEvent("x", obs::wallClockNs()));
  const std::string path = recorder.anomaly("../weird reason!");
  ASSERT_FALSE(path.empty());
  const std::string name = fs::path(path).filename().string();
  for (const char c : name) {
    EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(c)) || c == '-' ||
                c == '_' || c == '.')
        << "unexpected byte in dump filename: " << name;
  }
  EXPECT_EQ(name.find(".."), std::string::npos);
}

TEST(FlightRecorderTest, ConfigureRejectsZeroAndLiveRecorder) {
  EXPECT_FALSE(obs::configureFlightRecorder(0));
  // Touching the global recorder makes later configuration a no-op.
  obs::flightRecorder();
  EXPECT_FALSE(obs::configureFlightRecorder(128));
}

// --- End to end: a degraded query leaves an explanatory dump ---------------

TEST(FlightRecorderTest, DegradedQueryDumpExplainsTheDegradation) {
  TempDir dir("dsud-degraded");
  obs::FlightRecorder& recorder = obs::flightRecorder();
  recorder.setDumpDir(dir.path().string());
  const std::uint64_t dumpsBefore = recorder.dumps();
  const std::uint64_t startNs = obs::wallClockNs();

  const Dataset global =
      generateSynthetic(SyntheticSpec{300, 2, ValueDistribution::kIndependent,
                                      4242});
  Rng rng(7);
  const SiteId victim = 1;
  const auto siteData = partitionUniform(global, 4, rng);
  ClusterConfig chaotic;
  chaotic.chaos = ChaosSpec{.killAfter = 1, .onlySite = victim};
  InProcCluster cluster(Topology::fromPartitions(siteData), chaotic);

  QueryOptions degrade;
  degrade.fault.onSiteFailure = OnSiteFailure::kDegrade;
  degrade.fault.retry.maxAttempts = 2;  // so the dump shows the retry
  const QueryResult result =
      cluster.engine().run(Algo::kEdsud, QueryConfig{}, degrade);
  ASSERT_TRUE(result.degraded);
  recorder.setDumpDir("");  // stop other suites' anomalies writing here

  EXPECT_GT(recorder.dumps(), dumpsBefore);
  std::vector<fs::path> dumps;
  for (const auto& entry : fs::directory_iterator(dir.path())) {
    if (entry.path().filename().string().rfind("recorder-degraded_query-",
                                               0) == 0) {
      dumps.push_back(entry.path());
    }
  }
  ASSERT_EQ(dumps.size(), 1u);

  // The dumped sequence must explain the degradation, in causal order:
  // the victim's RPC was retried, the site was declared dead, the query
  // completed degraded.
  std::ptrdiff_t retryAt = -1;
  std::ptrdiff_t deadAt = -1;
  std::ptrdiff_t degradedAt = -1;
  const std::vector<std::string> lines = readLines(dumps.front());
  const std::string queryTag =
      "\"query\":" + std::to_string(result.id);
  for (std::ptrdiff_t i = 0; i < std::ssize(lines); ++i) {
    const std::string& line = lines[i];
    const std::uint64_t ts =
        std::stoull(line.substr(line.find("\"ts_ns\":") + 8));
    EXPECT_GE(ts, startNs - 1) << "dump reaches back before the test";
    if (line.find("\"event\":\"rpc.retry\"") != std::string::npos &&
        line.find("\"site\":" + std::to_string(victim)) !=
            std::string::npos) {
      if (retryAt < 0) retryAt = i;
    }
    if (line.find("\"event\":\"site.dead\"") != std::string::npos &&
        line.find(queryTag) != std::string::npos) {
      deadAt = i;
    }
    if (line.find("\"event\":\"query.degraded\"") != std::string::npos &&
        line.find(queryTag) != std::string::npos) {
      degradedAt = i;
    }
  }
  ASSERT_GE(retryAt, 0) << "dump must show the failed RPC being retried";
  ASSERT_GE(deadAt, 0) << "dump must show the victim declared dead";
  ASSERT_GE(degradedAt, 0) << "dump must show the degraded completion";
  EXPECT_LT(retryAt, deadAt);
  EXPECT_LT(deadAt, degradedAt);
}

}  // namespace
}  // namespace dsud
