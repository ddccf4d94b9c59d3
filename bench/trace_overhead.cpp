// Tracing overhead (acceptance gate for the cross-site tracing work): wall
// time of the fig09-style workload with tracing fully off, with the default
// coordinator-only trace, and with site tracing on.  The "off" and "coord"
// columns must stay within noise of each other — the disabled path is one
// branch per protocol step — while "fetch" shows the real cost of recording
// site spans and pulling them with one kFetchTrace per site.
//
// Columns are mean seconds per query; "spans" is the merged span count of
// the mode's last run.
//
// A second panel measures the structured event log and flight recorder the
// same way: "silent" raises the level gate so every emit is one atomic
// load, "detached" renders events into an empty sink list, "recorder" is
// the default-on configuration (events retained in the ring).
#include "bench_util.hpp"
#include "obs/log.hpp"
#include "obs/recorder.hpp"

namespace {

using namespace dsud;
using namespace dsud::bench;

struct Mode {
  const char* label;
  std::size_t traceCapacity;
  std::size_t siteTraceCapacity;
};

constexpr Mode kModes[] = {
    {"off", 0, 0},
    {"coord", 65536, 0},
    {"fetch", 65536, 65536},
};

double meanSeconds(const Dataset& global, std::size_t m, std::size_t repeats,
                   Algo algo, const QueryConfig& config, const Mode& mode,
                   std::uint64_t seed, std::size_t* spans) {
  QueryOptions options;
  options.traceCapacity = mode.traceCapacity;
  options.siteTraceCapacity = mode.siteTraceCapacity;
  double seconds = 0.0;
  for (std::size_t r = 0; r < repeats; ++r) {
    InProcCluster cluster(Topology::uniform(global, m, seed + r * 7919));
    const QueryResult result = cluster.engine().run(algo, config, options);
    seconds += result.stats.seconds;
    *spans = result.trace.events.size();
  }
  return seconds / static_cast<double>(repeats);
}

void runPanel(const Scale& scale, Algo algo) {
  printTitle(std::string("Tracing overhead: ") + algoLabel(algo) +
             " wall time by trace mode");
  printHeader({"mode", "ms", "vs off %", "spans"});

  QueryConfig config;
  config.q = scale.q;
  const Dataset global = generateSynthetic(SyntheticSpec{
      scale.n, 3, ValueDistribution::kAnticorrelated, scale.seed + 90});

  double baseline = 0.0;
  for (const Mode& mode : kModes) {
    std::size_t spans = 0;
    const double seconds = meanSeconds(global, scale.m, scale.repeats, algo,
                                       config, mode, scale.seed, &spans);
    if (mode.traceCapacity == 0) baseline = seconds;
    const double pct = baseline > 0.0 ? 100.0 * seconds / baseline : 100.0;
    printRow(mode.label, seconds * 1e3, pct, static_cast<double>(spans));
  }
}

// ---------------------------------------------------------------------------
// Event log / flight recorder overhead

struct ObsMode {
  const char* label;
  bool recorderAttached;
  LogLevel level;
};

constexpr ObsMode kObsModes[] = {
    {"silent", false, LogLevel::kError},
    {"detached", false, LogLevel::kInfo},
    {"recorder", true, LogLevel::kInfo},
};

void applyObsMode(const ObsMode& mode) {
  obs::EventLog& log = obs::eventLog();  // attaches the recorder on first use
  log.setLevel(mode.level);
  log.removeSink(&obs::flightRecorder());
  if (mode.recorderAttached) {
    // The global recorder outlives the log; attach it non-owning.
    log.addSink(std::shared_ptr<obs::EventSink>(&obs::flightRecorder(),
                                                [](obs::EventSink*) {}));
  }
}

void runObsPanel(const Scale& scale, Algo algo) {
  printTitle(std::string("Recorder overhead: ") + algoLabel(algo) +
             " wall time by event-log mode");
  printHeader({"mode", "ms", "vs silent %", "events"});

  QueryConfig config;
  config.q = scale.q;
  const Dataset global = generateSynthetic(SyntheticSpec{
      scale.n, 3, ValueDistribution::kAnticorrelated, scale.seed + 91});

  double baseline = 0.0;
  for (const ObsMode& mode : kObsModes) {
    applyObsMode(mode);
    const std::uint64_t before = obs::flightRecorder().recorded();
    double seconds = 0.0;
    for (std::size_t r = 0; r < scale.repeats; ++r) {
      InProcCluster cluster(
          Topology::uniform(global, scale.m, scale.seed + r * 7919));
      const QueryResult result = cluster.engine().run(algo, config);
      seconds += result.stats.seconds;
    }
    seconds /= static_cast<double>(scale.repeats);
    if (baseline == 0.0) baseline = seconds;
    const double pct = baseline > 0.0 ? 100.0 * seconds / baseline : 100.0;
    printRow(mode.label, seconds * 1e3, pct,
             static_cast<double>(obs::flightRecorder().recorded() - before));
  }
  // Leave the process in the default-on state for anything that follows.
  applyObsMode(kObsModes[2]);
}

}  // namespace

int main() {
  const Scale scale = defaultScale();
  printScale(scale);
  runPanel(scale, Algo::kDsud);
  runPanel(scale, Algo::kEdsud);
  runObsPanel(scale, Algo::kDsud);
  runObsPanel(scale, Algo::kEdsud);
  return 0;
}
