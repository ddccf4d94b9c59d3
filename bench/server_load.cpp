// Open-loop load benchmark for the dsudd query server.
//
// Starts an in-process QueryServer over a synthetic cluster, then offers
// load at several fixed request rates regardless of how fast the server
// answers (open loop — the arrival schedule never backs off, so queueing
// and shedding behaviour is visible instead of being hidden by a closed
// loop's self-throttling).  Each level reports completed/shed counts, the
// achieved completion rate, and end-to-end latency percentiles measured
// from socket write to terminal (`done`/`error`) line.
//
// Runs standalone with no arguments; scale comes from the environment:
//
//   DSUD_N                  tuples in the synthetic set   (default 8000)
//   DSUD_M                  local sites                   (default 8)
//   DSUD_Q                  probability threshold         (default 0.3)
//   DSUD_SEED               RNG seed                      (default 2010)
//   DSUD_LOAD_QPS           comma-separated offered rates (default 4,16,64,256)
//   DSUD_LOAD_SECONDS       duration per level            (default 2)
//   DSUD_LOAD_CONNS         client connections            (default 4)
//   DSUD_LOAD_MAX_INFLIGHT  server admission cap          (default 8)
//   DSUD_LOAD_MAX_QUEUED    server admission queue        (default 16)
//   DSUD_JSON               also write a JSON summary to this path
//
// A second, closed-loop section measures the shared-work layer: bursts of
// concurrent clients issuing threshold queries with the result cache and
// batch executor off, then on, for an identical mix (every client the same
// query) and a banded mix (thresholds spread across four q bands).  Its
// knobs:
//
//   DSUD_BURST_CLIENTS      concurrent burst clients      (default 64)
//   DSUD_BURST_PER_CLIENT   pipelined queries per client  (default 4)
//   DSUD_BATCH_WINDOW_MS    batching window when sharing  (default 5)
//   DSUD_BATCH_JSON         write the burst comparison to this path
//
// The committed BENCH_dsudd_baseline.json was produced by running this
// binary with defaults and DSUD_JSON pointed at the repo root;
// BENCH_batch_baseline.json the same way via DSUD_BATCH_JSON.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include <sys/socket.h>

#include "bench_util.hpp"
#include "core/cluster.hpp"
#include "gen/synthetic.hpp"
#include "net/wire.hpp"
#include "server/server.hpp"

namespace dsud::bench {
namespace {

using Clock = std::chrono::steady_clock;

struct LoadScale {
  std::size_t n = 8000;
  std::size_t m = 8;
  double q = 0.3;
  std::uint64_t seed = 2010;
  std::vector<double> qpsLevels{4, 16, 64, 256};
  double seconds = 2.0;
  std::size_t conns = 4;
  std::size_t maxInFlight = 8;
  std::size_t maxQueued = 16;
};

LoadScale loadScale() {
  LoadScale s;
  s.n = static_cast<std::size_t>(envOr("DSUD_N", std::int64_t(s.n)));
  s.m = static_cast<std::size_t>(envOr("DSUD_M", std::int64_t(s.m)));
  s.q = envOr("DSUD_Q", s.q);
  s.seed = static_cast<std::uint64_t>(envOr("DSUD_SEED", std::int64_t(s.seed)));
  s.seconds = envOr("DSUD_LOAD_SECONDS", s.seconds);
  s.conns =
      static_cast<std::size_t>(envOr("DSUD_LOAD_CONNS", std::int64_t(s.conns)));
  s.maxInFlight = static_cast<std::size_t>(
      envOr("DSUD_LOAD_MAX_INFLIGHT", std::int64_t(s.maxInFlight)));
  s.maxQueued = static_cast<std::size_t>(
      envOr("DSUD_LOAD_MAX_QUEUED", std::int64_t(s.maxQueued)));
  const std::string levels = envOr("DSUD_LOAD_QPS", std::string{});
  if (!levels.empty()) {
    s.qpsLevels.clear();
    std::size_t pos = 0;
    while (pos < levels.size()) {
      std::size_t end = levels.find(',', pos);
      if (end == std::string::npos) end = levels.size();
      s.qpsLevels.push_back(std::stod(levels.substr(pos, end - pos)));
      pos = end + 1;
    }
  }
  return s;
}

/// What one offered-load level measured.
struct LevelResult {
  double offeredQps = 0;
  std::uint64_t sent = 0;
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;
  std::uint64_t failed = 0;  ///< non-shed errors (should stay zero)
  double achievedQps = 0;
  double p50Ms = 0;
  double p95Ms = 0;
  double p99Ms = 0;
};

/// One paced connection: a sender thread writes query lines on an absolute
/// schedule (never waiting for responses); a reader thread drains the
/// response stream, timing each id from its send to its terminal line.
class LoadConnection {
 public:
  LoadConnection(std::uint16_t port, std::string idPrefix, double qps,
                 double seconds, double q)
      : sock_(dsud::connectTo(port, std::chrono::milliseconds{2000})),
        idPrefix_(std::move(idPrefix)),
        qps_(qps),
        seconds_(seconds),
        q_(q) {
    dsud::setSocketTimeouts(sock_, std::chrono::milliseconds{30'000});
  }

  void start() {
    sender_ = std::thread([this] { sendLoop(); });
    reader_ = std::thread([this] { readLoop(); });
  }

  void join() {
    sender_.join();
    reader_.join();
  }

  std::uint64_t sent() const { return sent_; }
  std::uint64_t completed() const { return completed_; }
  std::uint64_t shed() const { return shed_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<double>& latenciesMs() const { return latenciesMs_; }

 private:
  void sendLine(const std::string& text) {
    const std::string line = text + "\n";
    std::size_t off = 0;
    while (off < line.size()) {
      const auto n = ::send(sock_.fd(), line.data() + off, line.size() - off,
                            MSG_NOSIGNAL);
      if (n <= 0) throw dsud::NetError("load send failed");
      off += static_cast<std::size_t>(n);
    }
  }

  void sendLoop() {
    const auto t0 = Clock::now();
    const auto interval = std::chrono::duration<double>(1.0 / qps_);
    const auto end = t0 + std::chrono::duration<double>(seconds_);
    std::uint64_t i = 0;
    char q[32];
    std::snprintf(q, sizeof q, "%.3f", q_);
    for (;;) {
      // Open loop: each request has an absolute slot; a slow server makes
      // requests pile up rather than slowing the arrival process down.
      const auto slot =
          t0 + std::chrono::duration_cast<Clock::duration>(interval * i);
      if (slot >= end) break;
      std::this_thread::sleep_until(slot);
      const std::string id = idPrefix_ + std::to_string(i);
      {
        std::lock_guard lock(mutex_);
        sendTimes_[id] = Clock::now();
      }
      sendLine(R"({"op":"query","id":")" + id + R"(","q":)" + q +
               R"(,"progressive":false})");
      ++i;
    }
    sent_ = i;
    senderDone_.store(true, std::memory_order_release);
  }

  void readLoop() {
    std::string buffer;
    char chunk[8192];
    std::uint64_t terminals = 0;
    for (;;) {
      if (senderDone_.load(std::memory_order_acquire) && terminals >= sent_) {
        return;
      }
      const std::size_t nl = buffer.find('\n');
      if (nl == std::string::npos) {
        const auto n = ::recv(sock_.fd(), chunk, sizeof chunk, 0);
        if (n <= 0) throw dsud::NetError("load recv failed");
        buffer.append(chunk, static_cast<std::size_t>(n));
        continue;
      }
      const std::string line = buffer.substr(0, nl);
      buffer.erase(0, nl + 1);
      const server::Response response = server::decodeResponse(line);
      if (const auto* done = std::get_if<server::DoneResponse>(&response)) {
        recordTerminal(done->id, /*ok=*/true, server::ErrorCode::kInternal);
        ++terminals;
      } else if (const auto* error =
                     std::get_if<server::ErrorResponse>(&response)) {
        recordTerminal(error->id, /*ok=*/false, error->code);
        ++terminals;
      }
      // acks and stray answers carry no timing information here
    }
  }

  void recordTerminal(const std::string& id, bool ok, server::ErrorCode code) {
    Clock::time_point sentAt;
    {
      std::lock_guard lock(mutex_);
      const auto it = sendTimes_.find(id);
      if (it == sendTimes_.end()) return;
      sentAt = it->second;
      sendTimes_.erase(it);
    }
    if (ok) {
      ++completed_;
      latenciesMs_.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - sentAt)
              .count());
    } else if (code == server::ErrorCode::kOverloaded ||
               code == server::ErrorCode::kUnavailable) {
      ++shed_;
    } else {
      ++failed_;
    }
  }

  dsud::Socket sock_;
  const std::string idPrefix_;
  const double qps_;
  const double seconds_;
  const double q_;

  std::mutex mutex_;
  std::map<std::string, Clock::time_point> sendTimes_;
  std::atomic<bool> senderDone_{false};
  std::uint64_t sent_ = 0;

  // Reader-thread-only until join(); read by the harness afterwards.
  std::uint64_t completed_ = 0;
  std::uint64_t shed_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<double> latenciesMs_;

  std::thread sender_;
  std::thread reader_;
};

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(rank, sorted.size() - 1)];
}

LevelResult runLevel(std::uint16_t port, const LoadScale& scale, double qps) {
  std::vector<std::unique_ptr<LoadConnection>> conns;
  const double perConn = qps / static_cast<double>(scale.conns);
  for (std::size_t c = 0; c < scale.conns; ++c) {
    conns.push_back(std::make_unique<LoadConnection>(
        port, std::string("c").append(std::to_string(c)) + "-", perConn,
        scale.seconds, scale.q));
  }
  const auto t0 = Clock::now();
  for (auto& conn : conns) conn->start();
  for (auto& conn : conns) conn->join();
  const double elapsed = std::chrono::duration<double>(Clock::now() - t0).count();

  LevelResult r;
  r.offeredQps = qps;
  std::vector<double> latencies;
  for (const auto& conn : conns) {
    r.sent += conn->sent();
    r.completed += conn->completed();
    r.shed += conn->shed();
    r.failed += conn->failed();
    latencies.insert(latencies.end(), conn->latenciesMs().begin(),
                     conn->latenciesMs().end());
  }
  std::sort(latencies.begin(), latencies.end());
  r.achievedQps = static_cast<double>(r.completed) / elapsed;
  r.p50Ms = percentile(latencies, 0.50);
  r.p95Ms = percentile(latencies, 0.95);
  r.p99Ms = percentile(latencies, 0.99);
  return r;
}

// ---------------------------------------------------------------------------
// Shared-work burst: closed-loop clients, sharing off vs on.

struct BurstSpec {
  std::size_t clients = 64;
  std::size_t perClient = 4;
  double windowMs = 5.0;
};

BurstSpec burstSpec() {
  BurstSpec s;
  s.clients = static_cast<std::size_t>(
      envOr("DSUD_BURST_CLIENTS", std::int64_t(s.clients)));
  s.perClient = static_cast<std::size_t>(
      envOr("DSUD_BURST_PER_CLIENT", std::int64_t(s.perClient)));
  s.windowMs = envOr("DSUD_BATCH_WINDOW_MS", s.windowMs);
  return s;
}

struct BurstResult {
  std::string mix;       ///< "identical" or "banded"
  bool sharing = false;  ///< cache + batching enabled?
  std::uint64_t queries = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  double wallMs = 0;
  double qps = 0;
};

/// One burst client: pipelines all its queries on one connection, then
/// reads until every terminal arrived.  Closed loop — the burst's wall
/// time is the cost of answering everything, not an arrival schedule.
void burstClient(std::uint16_t port, const std::string& prefix,
                 std::size_t perClient, double q, std::uint64_t* completed,
                 std::uint64_t* failed) {
  dsud::Socket sock = dsud::connectTo(port, std::chrono::milliseconds{5000});
  dsud::setSocketTimeouts(sock, std::chrono::milliseconds{120'000});
  char qbuf[32];
  std::snprintf(qbuf, sizeof qbuf, "%.3f", q);
  std::string payload;
  for (std::size_t i = 0; i < perClient; ++i) {
    payload += R"({"op":"query","id":")" + prefix + std::to_string(i) +
               R"(","algo":"edsud","q":)" + qbuf +
               R"(,"progressive":false})" "\n";
  }
  std::size_t off = 0;
  while (off < payload.size()) {
    const auto n = ::send(sock.fd(), payload.data() + off,
                          payload.size() - off, MSG_NOSIGNAL);
    if (n <= 0) throw dsud::NetError("burst send failed");
    off += static_cast<std::size_t>(n);
  }
  std::string buffer;
  char chunk[8192];
  std::uint64_t terminals = 0;
  while (terminals < perClient) {
    const std::size_t nl = buffer.find('\n');
    if (nl == std::string::npos) {
      const auto n = ::recv(sock.fd(), chunk, sizeof chunk, 0);
      if (n <= 0) throw dsud::NetError("burst recv failed");
      buffer.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    const server::Response response =
        server::decodeResponse(buffer.substr(0, nl));
    buffer.erase(0, nl + 1);
    if (std::holds_alternative<server::DoneResponse>(response)) {
      ++(*completed);
      ++terminals;
    } else if (std::holds_alternative<server::ErrorResponse>(response)) {
      ++(*failed);
      ++terminals;
    }
  }
}

/// Runs one burst scenario against a fresh daemon (fresh so the "on" run
/// starts with a cold cache — the warm-up it measures is its own).
BurstResult runBurst(InProcCluster& cluster, const LoadScale& scale,
                     const BurstSpec& spec, const std::string& mix,
                     bool sharing) {
  server::ServerConfig config;
  // Generous admission: this section measures execution throughput, not
  // shedding, so nothing may be turned away.
  config.admission.maxInFlight = spec.clients;
  config.admission.maxQueued = spec.clients * spec.perClient;
  if (sharing) {
    config.batching.enabled = true;
    config.batching.windowSeconds = spec.windowMs / 1e3;
  } else {
    config.cacheCapacity = 0;
    config.batching.enabled = false;
  }
  server::QueryServer daemon(cluster.engine(), metricsRegistry(), config);
  daemon.start();
  std::thread loop([&daemon] { daemon.run(); });

  const double bands[4] = {scale.q * 0.67, scale.q, scale.q * 1.33,
                           scale.q * 1.67};
  std::vector<std::uint64_t> completed(spec.clients, 0);
  std::vector<std::uint64_t> failed(spec.clients, 0);
  std::vector<std::thread> threads;
  threads.reserve(spec.clients);
  const auto t0 = Clock::now();
  for (std::size_t c = 0; c < spec.clients; ++c) {
    const double q = mix == "banded" ? bands[c % 4] : scale.q;
    threads.emplace_back([&, c, q] {
      burstClient(daemon.port(),
                  std::string("b").append(std::to_string(c)) + "-",
                  spec.perClient, q, &completed[c], &failed[c]);
    });
  }
  for (auto& t : threads) t.join();
  const double wallMs =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();

  daemon.stop();
  loop.join();

  BurstResult r;
  r.mix = mix;
  r.sharing = sharing;
  r.queries = spec.clients * spec.perClient;
  for (std::size_t c = 0; c < spec.clients; ++c) {
    r.completed += completed[c];
    r.failed += failed[c];
  }
  r.wallMs = wallMs;
  r.qps = wallMs > 0 ? static_cast<double>(r.completed) / (wallMs / 1e3) : 0;
  return r;
}

void writeBurstJson(const std::string& path, const LoadScale& scale,
                    const BurstSpec& spec,
                    const std::vector<BurstResult>& results) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "server_load: cannot open %s\n", path.c_str());
    return;
  }
  std::fprintf(f,
               "{\n \"note\": \"Shared-work burst baseline: closed-loop "
               "concurrent clients with the result cache and batch executor "
               "off vs on (bench/server_load.cpp).  speedup_x is aggregate "
               "QPS on/off per mix.\",\n");
  std::fprintf(f,
               " \"environment\": {\n  \"DSUD_N\": %zu,\n  \"DSUD_M\": %zu,\n"
               "  \"DSUD_Q\": %.3f,\n  \"DSUD_BURST_CLIENTS\": %zu,\n"
               "  \"DSUD_BURST_PER_CLIENT\": %zu,\n"
               "  \"DSUD_BATCH_WINDOW_MS\": %.1f\n },\n",
               scale.n, scale.m, scale.q, spec.clients, spec.perClient,
               spec.windowMs);
  std::fprintf(f, " \"bursts\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const BurstResult& r = results[i];
    std::fprintf(f,
                 "  {\"mix\": \"%s\", \"sharing\": %s, \"queries\": %llu, "
                 "\"completed\": %llu, \"failed\": %llu, \"wall_ms\": %.1f, "
                 "\"qps\": %.1f}%s\n",
                 r.mix.c_str(), r.sharing ? "true" : "false",
                 static_cast<unsigned long long>(r.queries),
                 static_cast<unsigned long long>(r.completed),
                 static_cast<unsigned long long>(r.failed), r.wallMs, r.qps,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, " ],\n \"speedup_x\": {");
  bool first = true;
  for (std::size_t i = 0; i + 1 < results.size(); i += 2) {
    const BurstResult& off = results[i];
    const BurstResult& on = results[i + 1];
    if (off.mix != on.mix || off.sharing || !on.sharing) continue;
    std::fprintf(f, "%s\"%s\": %.2f", first ? "" : ", ", off.mix.c_str(),
                 off.qps > 0 ? on.qps / off.qps : 0.0);
    first = false;
  }
  std::fprintf(f, "}\n}\n");
  std::fclose(f);
}

void writeJson(const std::string& path, const LoadScale& scale,
               const std::vector<LevelResult>& results) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "server_load: cannot open %s\n", path.c_str());
    return;
  }
  std::fprintf(f,
               "{\n \"note\": \"dsudd open-loop load baseline: offered QPS "
               "vs completion rate, shedding, and end-to-end latency "
               "(bench/server_load.cpp).\",\n");
  std::fprintf(f,
               " \"environment\": {\n  \"DSUD_N\": %zu,\n  \"DSUD_M\": %zu,\n"
               "  \"DSUD_Q\": %.3f,\n  \"DSUD_LOAD_SECONDS\": %.1f,\n"
               "  \"DSUD_LOAD_CONNS\": %zu,\n  \"DSUD_LOAD_MAX_INFLIGHT\": "
               "%zu,\n  \"DSUD_LOAD_MAX_QUEUED\": %zu\n },\n",
               scale.n, scale.m, scale.q, scale.seconds, scale.conns,
               scale.maxInFlight, scale.maxQueued);
  std::fprintf(f, " \"levels\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const LevelResult& r = results[i];
    std::fprintf(f,
                 "  {\"offered_qps\": %.1f, \"sent\": %llu, \"completed\": "
                 "%llu, \"shed\": %llu, \"failed\": %llu, \"achieved_qps\": "
                 "%.2f, \"p50_ms\": %.2f, \"p95_ms\": %.2f, \"p99_ms\": "
                 "%.2f}%s\n",
                 r.offeredQps, static_cast<unsigned long long>(r.sent),
                 static_cast<unsigned long long>(r.completed),
                 static_cast<unsigned long long>(r.shed),
                 static_cast<unsigned long long>(r.failed), r.achievedQps,
                 r.p50Ms, r.p95Ms, r.p99Ms,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, " ]\n}\n");
  std::fclose(f);
}

}  // namespace
}  // namespace dsud::bench

int main() {
  using namespace dsud;
  using namespace dsud::bench;

  const LoadScale scale = loadScale();
  std::printf(
      "dsudd load: N=%zu, m=%zu, q=%.2f, %zu conns, %.1fs per level, "
      "max_in_flight=%zu, max_queued=%zu\n",
      scale.n, scale.m, scale.q, scale.conns, scale.seconds, scale.maxInFlight,
      scale.maxQueued);

  SyntheticSpec spec;
  spec.n = scale.n;
  spec.dims = 3;
  spec.dist = ValueDistribution::kAnticorrelated;
  spec.seed = scale.seed;
  ClusterConfig clusterConfig;
  clusterConfig.metrics = &metricsRegistry();
  InProcCluster cluster(
      Topology::uniform(generateSynthetic(spec, uniformProbability()),
                        scale.m, scale.seed),
      clusterConfig);

  server::ServerConfig config;
  config.admission.maxInFlight = scale.maxInFlight;
  config.admission.maxQueued = scale.maxQueued;
  // The open-loop section measures descent queueing and shedding; with the
  // (default-on) result cache every repeat would be free and the levels
  // meaningless.  The burst section below measures sharing explicitly.
  config.cacheCapacity = 0;
  config.batching.enabled = false;
  server::QueryServer daemon(cluster.engine(), metricsRegistry(), config);
  daemon.start();
  std::thread loop([&daemon] { daemon.run(); });

  printTitle("dsudd open-loop load");
  printHeader({"offered_qps", "sent", "completed", "shed", "achieved_qps",
               "p50_ms", "p95_ms", "p99_ms"});
  std::vector<LevelResult> results;
  for (const double qps : scale.qpsLevels) {
    const LevelResult r = runLevel(daemon.port(), scale, qps);
    results.push_back(r);
    printRow(r.offeredQps, r.sent, r.completed, r.shed, r.achievedQps, r.p50Ms,
             r.p95Ms, r.p99Ms);
    if (r.failed != 0) {
      std::fprintf(stderr, "server_load: %llu unexpected errors at %.1f qps\n",
                   static_cast<unsigned long long>(r.failed), qps);
    }
  }

  const std::string jsonPath = envOr("DSUD_JSON", std::string{});
  if (!jsonPath.empty()) writeJson(jsonPath, scale, results);

  daemon.stop();
  loop.join();

  // Shared-work burst comparison: same cluster, fresh daemon per scenario.
  const BurstSpec burst = burstSpec();
  printTitle("shared-work burst (closed loop)");
  printHeader({"mix", "sharing", "queries", "completed", "failed", "wall_ms",
               "qps"});
  std::vector<BurstResult> bursts;
  for (const std::string mix : {"identical", "banded"}) {
    for (const bool sharing : {false, true}) {
      const BurstResult r = runBurst(cluster, scale, burst, mix, sharing);
      bursts.push_back(r);
      printRow(r.mix.c_str(), r.sharing ? "on" : "off", r.queries, r.completed,
               r.failed, r.wallMs, r.qps);
      if (r.failed != 0) {
        std::fprintf(stderr, "server_load: %llu burst errors (%s, sharing %s)\n",
                     static_cast<unsigned long long>(r.failed), r.mix.c_str(),
                     r.sharing ? "on" : "off");
      }
    }
  }
  for (std::size_t i = 0; i + 1 < bursts.size(); i += 2) {
    std::printf("  %s speedup: %.2fx\n", bursts[i].mix.c_str(),
                bursts[i].qps > 0 ? bursts[i + 1].qps / bursts[i].qps : 0.0);
  }

  const std::string batchJson = envOr("DSUD_BATCH_JSON", std::string{});
  if (!batchJson.empty()) writeBurstJson(batchJson, scale, burst, bursts);
  return 0;
}
