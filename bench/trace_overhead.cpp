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
// the default-on configuration (events retained in the ring).  Set
// DSUD_OBS_JSON=<path> to also write the recorder panel as a JSON summary
// (the committed BENCH_obs2_baseline.json was produced that way).
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
    ClusterConfig clusterConfig;
    clusterConfig.metrics = &metricsRegistry();
    InProcCluster cluster(Topology::uniform(global, m, seed + r * 7919),
                          clusterConfig);
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

struct ObsLeg {
  std::string label;
  double seconds = 0.0;
  double pct = 100.0;
  std::uint64_t eventsRecorded = 0;
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

std::vector<ObsLeg> runObsPanel(const Scale& scale, Algo algo) {
  printTitle(std::string("Recorder overhead: ") + algoLabel(algo) +
             " wall time by event-log mode");
  printHeader({"mode", "ms", "vs silent %", "events"});

  QueryConfig config;
  config.q = scale.q;
  const Dataset global = generateSynthetic(SyntheticSpec{
      scale.n, 3, ValueDistribution::kAnticorrelated, scale.seed + 91});

  std::vector<ObsLeg> legs;
  double baseline = 0.0;
  for (const ObsMode& mode : kObsModes) {
    applyObsMode(mode);
    const std::uint64_t before = obs::flightRecorder().recorded();
    double seconds = 0.0;
    for (std::size_t r = 0; r < scale.repeats; ++r) {
      ClusterConfig clusterConfig;
      clusterConfig.metrics = &metricsRegistry();
      InProcCluster cluster(
          Topology::uniform(global, scale.m, scale.seed + r * 7919),
          clusterConfig);
      const QueryResult result = cluster.engine().run(algo, config);
      seconds += result.stats.seconds;
    }
    seconds /= static_cast<double>(scale.repeats);
    if (baseline == 0.0) baseline = seconds;
    ObsLeg leg;
    leg.label = mode.label;
    leg.seconds = seconds;
    leg.pct = baseline > 0.0 ? 100.0 * seconds / baseline : 100.0;
    leg.eventsRecorded = obs::flightRecorder().recorded() - before;
    legs.push_back(leg);
    printRow(leg.label, seconds * 1e3, leg.pct,
             static_cast<double>(leg.eventsRecorded));
  }
  // Leave the process in the default-on state for anything that follows.
  applyObsMode(kObsModes[2]);
  return legs;
}

void writeObsJson(const std::string& path, const Scale& scale,
                  const std::vector<std::pair<std::string, std::vector<ObsLeg>>>&
                      panels) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench: cannot open %s for JSON output\n",
                 path.c_str());
    return;
  }
  std::fprintf(f,
               "{\n \"note\": \"Flight recorder / event log overhead: mean "
               "wall seconds per query by event-log mode (silent = level "
               "gate closed, detached = events rendered to no sinks, "
               "recorder = default-on ring). Produced by "
               "bench/trace_overhead with DSUD_OBS_JSON.\",\n");
  std::fprintf(f,
               " \"scale\": {\"n\": %zu, \"m\": %zu, \"q\": %.3f, "
               "\"repeats\": %zu, \"seed\": %llu},\n \"panels\": {\n",
               scale.n, scale.m, scale.q, scale.repeats,
               static_cast<unsigned long long>(scale.seed));
  for (std::size_t p = 0; p < panels.size(); ++p) {
    std::fprintf(f, "  \"%s\": [\n", panels[p].first.c_str());
    const auto& legs = panels[p].second;
    for (std::size_t i = 0; i < legs.size(); ++i) {
      std::fprintf(f,
                   "   {\"mode\": \"%s\", \"ms\": %.4f, \"vs_silent_pct\": "
                   "%.2f, \"events\": %llu}%s\n",
                   legs[i].label.c_str(), legs[i].seconds * 1e3, legs[i].pct,
                   static_cast<unsigned long long>(legs[i].eventsRecorded),
                   i + 1 < legs.size() ? "," : "");
    }
    std::fprintf(f, "  ]%s\n", p + 1 < panels.size() ? "," : "");
  }
  std::fprintf(f, " }\n}\n");
  std::fclose(f);
}

}  // namespace

int main() {
  const Scale scale = defaultScale();
  printScale(scale);
  runPanel(scale, Algo::kDsud);
  runPanel(scale, Algo::kEdsud);

  std::vector<std::pair<std::string, std::vector<ObsLeg>>> panels;
  panels.emplace_back("DSUD", runObsPanel(scale, Algo::kDsud));
  panels.emplace_back("e-DSUD", runObsPanel(scale, Algo::kEdsud));
  const std::string obsJson = envOr("DSUD_OBS_JSON", std::string{});
  if (!obsJson.empty()) writeObsJson(obsJson, scale, panels);
  return 0;
}
