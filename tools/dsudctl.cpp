// dsudctl — command-line driver for the dsud library.
//
//   dsudctl generate --out=data.bin [--n=100000] [--d=3] [--seed=1]
//                    [--dist=independent|correlated|anticorrelated|nyse]
//                    [--probs=uniform|gaussian] [--mu=0.5] [--sigma=0.2]
//                    [--format=bin|csv]
//   dsudctl inspect  --in=data.bin
//   dsudctl query    --in=data.bin [--algo=edsud|dsud|naive] [--m=10]
//                    [--q=0.3] [--k=0] [--mask=0] [--seed=1] [--limit=20]
//                    [--deadline-ms=0] [--retries=0]
//                    [--on-failure=fail|degrade] [--chaos-kill=<site>]
//                    [--profile]
//   dsudctl query    --connect=<port> [--algo=...] [--q=...] [--k=...]
//                    [--mask=0] [--limit=20] [--deadline-ms=0] [--retries=0]
//                    [--on-failure=fail|degrade] [--tenant=default]
//                    [--priority=high|normal|low] [--id=q1]
//                    [--repeat=1] [--mix=<file>] [--profile]
//   dsudctl admin    <add-site|remove-site|rebalance|topology>
//                    --connect=<port> [--site=<id>] [--id=a1]
//   dsudctl convert  --in=data.bin --out=data.csv
//   dsudctl metrics  --in=data.bin [--algo=edsud|dsud|naive] [--m=10]
//                    [--q=0.3] [--k=0] [--seed=1] [--format=prom|json]
//                    [--trace-out=trace.json]
//   dsudctl metrics  --connect=<http-port>
//   dsudctl debug    <queries|topology|cache|recorder> --connect=<http-port>
//   dsudctl trace    --in=data.bin --out=query.trace.json
//                    [--algo=edsud|dsud|naive] [--m=6] [--q=0.3] [--seed=1]
//                    [--transport=inproc|tcp] [--site-trace=piggyback|fetch|off]
//                    [--trace-capacity=65536] [--slow-threshold=0]
//
// `metrics` runs one query with full observability enabled and prints the
// resulting metrics snapshot — Prometheus text exposition by default,
// JSON with --format=json — to stdout; --trace-out additionally writes the
// query's protocol timeline as JSON.  With --connect=<http-port> it instead
// fetches GET /metrics from a running dsudd and prints the live exposition.
//
// `debug` fetches one of dsudd's live introspection endpoints — GET
// /debug/queries (in-flight + recent queries), /debug/topology (partitions
// and breaker states), /debug/cache (result-cache and batching counters),
// /debug/recorder (flight-recorder status + retained events) — and prints
// the JSON body.
//
// `query --profile` requests the per-query EXPLAIN/ANALYZE block and prints
// it after the summary: phase timings, cache/batch/failover disposition,
// and a per-site table (rounds, tuples, bytes, candidates, pruned, retries,
// failovers, dead).  Answers are bit-identical with or without --profile —
// the flag only controls reporting.
//
// `trace` runs one query with distributed tracing on — the sites record
// their own spans, ship them to the coordinator (piggybacked on responses,
// or via kFetchTrace with --site-trace=fetch), and the merged, clock-aligned
// timeline is written as Chrome trace_event JSON that loads directly in
// Perfetto (https://ui.perfetto.dev) or chrome://tracing.  --transport=tcp
// runs the cluster over real loopback sockets (one server thread per site)
// so the trace shows genuine wire latencies.  --slow-threshold exercises
// the slow-query log: a query slower than the threshold (seconds) emits a
// `query.slow` event and bumps dsud_slow_queries_total.
//
// Fault tolerance (`query`): --deadline-ms bounds every RPC, --retries adds
// that many retry attempts on top of the first try, and
// --on-failure=degrade completes over the surviving sites when a site stays
// unreachable (--chaos-kill injects exactly that: the named site dies after
// its first call).
//
// Client mode (`query --connect=<port>`): instead of building a local
// cluster, speak the dsudd line-delimited JSON protocol (docs/PROTOCOL.md,
// "Client protocol") to a running daemon on 127.0.0.1.  Streamed `answer`
// lines print as they arrive; `done` prints the same summary as a local
// run.  Exit codes match local mode — 3 when the daemon reports a degraded
// result, 2 on any protocol `error` (including load shedding, whose
// retry-after hint is printed).
//
// Cluster administration (`admin`): speak the `{"op":"admin"}` surface of a
// running dsudd — join a fresh member (`add-site`, which hosts no data until
// the next rebalance), drain and drop one (`remove-site --site=<id>`),
// repartition the database over the current members (`rebalance`), or print
// the membership / placement snapshot (`topology`).  Every action prints
// the resulting topology; exit code 0 on success, 2 when the daemon rejects
// the operation.  Same --connect convention as `query`.
//
// Load bursts (connect mode only): --repeat=N pipelines N copies of the
// flag-built query on one connection with suffixed ids (`q1#1` ... `q1#N`)
// and prints one aggregate summary — the natural way to exercise the
// daemon's shared-work batching window.  --mix=<file> reads one JSON query
// request per line (the wire format of docs/PROTOCOL.md; blank lines and
// `#` comments skipped) and sends the whole mix, N rounds with --repeat.
// Exit code is the worst outcome across the burst.
//
// Files use the binary format of common/io.hpp unless the extension is
// .csv.  Exit code 0 on success, 1 on usage errors, 2 on runtime errors,
// 3 when the query completed degraded (one or more sites excluded).
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>

#include "common/io.hpp"
#include "common/options.hpp"
#include "common/rng.hpp"
#include "core/cluster.hpp"
#include "gen/nyse.hpp"
#include "gen/partition.hpp"
#include "gen/synthetic.hpp"
#include "net/tcp_transport.hpp"
#include "obs/export.hpp"
#include "server/proto.hpp"
#include "skyline/cardinality.hpp"
#include "skyline/linear_skyline.hpp"

namespace {

using namespace dsud;

bool endsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

Dataset loadAny(const std::string& path) {
  return endsWith(path, ".csv") ? loadDatasetCsv(path)
                                : loadDatasetBinary(path);
}

void saveAny(const Dataset& data, const std::string& path) {
  if (endsWith(path, ".csv")) {
    saveDatasetCsv(data, path);
  } else {
    saveDatasetBinary(data, path);
  }
}

/// Maps an --algo name to its algorithm; nullopt for an unknown name.
std::optional<Algo> parseAlgo(const std::string& name) {
  if (name == "edsud") return Algo::kEdsud;
  if (name == "dsud") return Algo::kDsud;
  if (name == "naive") return Algo::kNaive;
  return std::nullopt;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: dsudctl "
      "<generate|inspect|query|admin|convert|metrics|debug|trace> "
      "[--flags]\n"
      "see the header of tools/dsudctl.cpp for details\n");
  return 1;
}

int cmdGenerate(const ArgParser& args) {
  const std::string out = args.get("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "generate: --out=<path> is required\n");
    return 1;
  }
  const auto n = static_cast<std::size_t>(args.getInt("n", 100000));
  const auto seed = static_cast<std::uint64_t>(args.getInt("seed", 1));
  const std::string dist = args.get("dist", "independent");

  ProbSampler probs = uniformProbability();
  if (args.get("probs", "uniform") == "gaussian") {
    probs = gaussianProbability(args.getDouble("mu", 0.5),
                                args.getDouble("sigma", 0.2));
  }

  Dataset data(1);
  if (dist == "nyse") {
    NyseSpec spec;
    spec.n = n;
    spec.seed = seed;
    data = generateNyse(spec, probs);
  } else {
    SyntheticSpec spec;
    spec.n = n;
    spec.dims = static_cast<std::size_t>(args.getInt("d", 3));
    spec.seed = seed;
    if (dist == "correlated") {
      spec.dist = ValueDistribution::kCorrelated;
    } else if (dist == "anticorrelated") {
      spec.dist = ValueDistribution::kAnticorrelated;
    } else if (dist != "independent") {
      std::fprintf(stderr, "generate: unknown --dist=%s\n", dist.c_str());
      return 1;
    }
    data = generateSynthetic(spec, probs);
  }
  saveAny(data, out);
  std::printf("wrote %zu tuples (%zu dims) to %s\n", data.size(), data.dims(),
              out.c_str());
  return 0;
}

int cmdInspect(const ArgParser& args) {
  const std::string in = args.get("in", "");
  if (in.empty()) {
    std::fprintf(stderr, "inspect: --in=<path> is required\n");
    return 1;
  }
  const Dataset data = loadAny(in);
  std::printf("%s: %zu tuples, %zu dimensions\n", in.c_str(), data.size(),
              data.dims());
  if (data.empty()) return 0;

  std::vector<double> lo(data.dims(), 1e300);
  std::vector<double> hi(data.dims(), -1e300);
  double probSum = 0.0;
  for (std::size_t row = 0; row < data.size(); ++row) {
    const auto v = data.values(row);
    for (std::size_t j = 0; j < data.dims(); ++j) {
      lo[j] = std::min(lo[j], v[j]);
      hi[j] = std::max(hi[j], v[j]);
    }
    probSum += data.prob(row);
  }
  for (std::size_t j = 0; j < data.dims(); ++j) {
    std::printf("  dim %zu: [%g, %g]\n", j, lo[j], hi[j]);
  }
  std::printf("  mean existential probability: %.4f\n",
              probSum / static_cast<double>(data.size()));
  std::printf("  estimated skyline cardinality H(%zu, %zu) = %.1f\n",
              data.dims(), data.size(),
              expectedSkylineCardinality(data.dims(), data.size()));
  return 0;
}

void printEntry(std::size_t rank, const GlobalSkylineEntry& e) {
  std::printf("  #%-4zu id=%-10llu site=%-4u P=%.4f P_gsky=%.6f  (", rank,
              static_cast<unsigned long long>(e.tuple.id), e.site,
              e.tuple.prob, e.globalSkyProb);
  for (std::size_t j = 0; j < e.tuple.values.size(); ++j) {
    std::printf("%s%g", j == 0 ? "" : ", ", e.tuple.values[j]);
  }
  std::printf(")\n");
}

/// `query --profile` rendering, shared by local and connect mode.
void printProfile(const QueryProfile& profile) {
  std::printf("profile: algo=%s cache=%s batch=%s", profile.algo.c_str(),
              profile.cache.c_str(), profile.batch.c_str());
  if (profile.batchWidth > 1) {
    std::printf("(width %llu)",
                static_cast<unsigned long long>(profile.batchWidth));
  }
  std::printf(" failovers=%llu\n",
              static_cast<unsigned long long>(profile.failovers));
  std::printf("  phases: prepare %.2f ms, execute %.2f ms, finalize %.2f ms\n",
              profile.prepareSeconds * 1e3, profile.executeSeconds * 1e3,
              profile.finalizeSeconds * 1e3);
  if (profile.sites.empty()) return;
  std::printf(
      "  %-6s %7s %8s %10s %7s %7s %8s %10s %5s\n", "site", "rounds",
      "tuples", "bytes", "cands", "pruned", "retries", "failovers", "dead");
  for (const SiteProfile& site : profile.sites) {
    std::printf("  %-6u %7llu %8llu %10llu %7llu %7llu %8llu %10llu %5s\n",
                site.site, static_cast<unsigned long long>(site.rounds),
                static_cast<unsigned long long>(site.tuples),
                static_cast<unsigned long long>(site.bytes),
                static_cast<unsigned long long>(site.candidates),
                static_cast<unsigned long long>(site.pruned),
                static_cast<unsigned long long>(site.retries),
                static_cast<unsigned long long>(site.failovers),
                site.dead ? "yes" : "no");
  }
}

/// Reads one '\n'-terminated line from a blocking socket.  Returns false on
/// EOF with nothing buffered.
bool readLine(const Socket& socket, std::string& buffer, std::string& line) {
  for (;;) {
    const std::size_t nl = buffer.find('\n');
    if (nl != std::string::npos) {
      line.assign(buffer, 0, nl);
      buffer.erase(0, nl + 1);
      return true;
    }
    char chunk[4096];
    const ssize_t n = ::recv(socket.fd(), chunk, sizeof chunk, 0);
    if (n <= 0) return false;
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
}

void writeAll(const Socket& socket, const std::string& text) {
  std::size_t sent = 0;
  while (sent < text.size()) {
    const ssize_t n = ::send(socket.fd(), text.data() + sent,
                             text.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) throw NetError("connect mode: send failed");
    sent += static_cast<std::size_t>(n);
  }
}

/// One GET against dsudd's HTTP port (the /metrics + /debug surface).  The
/// server answers every request with Connection: close, so the body is
/// simply everything after the header block until EOF.
std::string httpGet(std::uint16_t port, const std::string& path) {
  const Socket socket = connectTo(port, std::chrono::milliseconds{2000});
  writeAll(socket, "GET " + path +
                       " HTTP/1.0\r\nHost: 127.0.0.1\r\n"
                       "Connection: close\r\n\r\n");
  std::string response;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(socket.fd(), chunk, sizeof chunk, 0);
    if (n <= 0) break;
    response.append(chunk, static_cast<std::size_t>(n));
  }
  const std::size_t split = response.find("\r\n\r\n");
  if (response.compare(0, 5, "HTTP/") != 0 || split == std::string::npos) {
    throw NetError("malformed HTTP response for " + path);
  }
  const std::size_t space = response.find(' ');
  const int status =
      space != std::string::npos ? std::atoi(response.c_str() + space + 1) : 0;
  if (status != 200) {
    throw std::runtime_error("GET " + path + " answered HTTP " +
                             std::to_string(status));
  }
  return response.substr(split + 4);
}

/// `query --connect --repeat/--mix`: pipeline a whole burst of queries on
/// one connection and report one aggregate summary.  `requests` already
/// carries unique ids.
int runQueryBurst(const ArgParser& args,
                  const std::vector<dsud::server::QueryRequest>& requests) {
  namespace srv = dsud::server;

  const auto port = static_cast<std::uint16_t>(args.getInt("connect", 0));
  const Socket socket = connectTo(port, std::chrono::milliseconds{2000});

  std::string outbound;
  for (const srv::QueryRequest& request : requests) {
    outbound += srv::encodeRequest(request);
    outbound += '\n';
  }
  const auto start = std::chrono::steady_clock::now();
  writeAll(socket, outbound);

  std::string buffer;
  std::string line;
  std::size_t pending = requests.size();
  std::size_t ok = 0;
  std::size_t degraded = 0;
  std::size_t errors = 0;
  std::uint64_t answers = 0;
  std::uint64_t shipped = 0;
  while (pending > 0 && readLine(socket, buffer, line)) {
    if (line.empty()) continue;
    const srv::Response response = srv::decodeResponse(line);
    if (const auto* done = std::get_if<srv::DoneResponse>(&response)) {
      done->degraded ? ++degraded : ++ok;
      answers += done->answers;
      shipped += done->stats.tuplesShipped;
      --pending;
    } else if (const auto* error = std::get_if<srv::ErrorResponse>(&response)) {
      if (++errors <= 3) {  // show the first few, count the rest
        std::fprintf(stderr, "query %s failed: %s: %s\n", error->id.c_str(),
                     srv::errorCodeName(error->code), error->message.c_str());
      }
      --pending;
    }
    // acks and streamed answers only advance the burst; `done` carries the
    // authoritative answer count either way.
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (pending > 0) {
    std::fprintf(stderr,
                 "query: connection closed with %zu queries outstanding\n",
                 pending);
    return 2;
  }
  std::printf(
      "%zu queries: %zu ok, %zu degraded, %zu errors; %llu answers, "
      "%llu tuples shipped; %.1f ms wall (%.0f queries/s)\n",
      requests.size(), ok, degraded, errors,
      static_cast<unsigned long long>(answers),
      static_cast<unsigned long long>(shipped), seconds * 1e3,
      seconds > 0 ? static_cast<double>(requests.size()) / seconds : 0.0);
  if (errors > 0) return 2;
  if (degraded > 0) return 3;
  return 0;
}

/// Reads one query request per line from a --mix file (wire format of
/// docs/PROTOCOL.md; blank lines and `#` comments skipped).
std::vector<dsud::server::QueryRequest> loadMix(const std::string& path) {
  namespace srv = dsud::server;
  std::ifstream file(path);
  if (!file) throw std::runtime_error("query: cannot read --mix=" + path);
  std::vector<srv::QueryRequest> mix;
  std::string line;
  std::size_t lineNo = 0;
  while (std::getline(file, line)) {
    ++lineNo;
    if (line.empty() || line[0] == '#') continue;
    srv::Request parsed;
    try {
      parsed = srv::decodeRequest(line);
    } catch (const srv::ProtoError& error) {
      throw std::runtime_error("query: " + path + ":" +
                               std::to_string(lineNo) + ": " + error.what());
    }
    auto* query = std::get_if<srv::QueryRequest>(&parsed);
    if (query == nullptr) {
      throw std::runtime_error("query: " + path + ":" +
                               std::to_string(lineNo) + ": not a query op");
    }
    mix.push_back(std::move(*query));
  }
  if (mix.empty()) {
    throw std::runtime_error("query: --mix=" + path + " holds no queries");
  }
  return mix;
}

/// `query --connect=<port>`: run the query through a dsudd daemon instead
/// of a local cluster.
int cmdQueryConnect(const ArgParser& args) {
  // The server's protocol names (AckResponse, QueryRequest, ...) collide
  // with the site protocol's under a using-directive; alias instead.
  namespace srv = dsud::server;

  srv::QueryRequest request;
  request.id = args.get("id", "q1");
  const std::string algo = args.get("algo", "edsud");
  const std::optional<Algo> parsed = parseAlgo(algo);
  if (!parsed) {
    std::fprintf(stderr, "query: unknown --algo=%s\n", algo.c_str());
    return 1;
  }
  request.algo = *parsed;
  request.k = static_cast<std::size_t>(args.getInt("k", 0));
  request.q = args.getDouble("q", request.k > 0 ? 1e-3 : 0.3);
  request.mask = static_cast<DimMask>(args.getInt("mask", 0));
  request.tenant = args.get("tenant", "default");
  const std::string priority = args.get("priority", "normal");
  if (priority == "high") {
    request.priority = srv::Priority::kHigh;
  } else if (priority == "low") {
    request.priority = srv::Priority::kLow;
  } else if (priority != "normal") {
    std::fprintf(stderr, "query: unknown --priority=%s\n", priority.c_str());
    return 1;
  }
  request.deadlineMs = static_cast<std::uint32_t>(args.getInt("deadline-ms", 0));
  request.retries = static_cast<std::uint32_t>(args.getInt("retries", 0));
  const std::string onFailure = args.get("on-failure", "fail");
  if (onFailure == "degrade") {
    request.degrade = true;
  } else if (onFailure != "fail") {
    std::fprintf(stderr, "query: unknown --on-failure=%s\n", onFailure.c_str());
    return 1;
  }
  request.limit = static_cast<std::uint64_t>(args.getInt("limit", 20));
  request.profile = args.has("profile");

  const auto repeat =
      static_cast<std::size_t>(std::max<std::int64_t>(args.getInt("repeat", 1), 1));
  const std::string mixPath = args.get("mix", "");
  if (repeat > 1 || !mixPath.empty()) {
    std::vector<srv::QueryRequest> round;
    if (!mixPath.empty()) {
      round = loadMix(mixPath);
    } else {
      srv::QueryRequest base = request;
      base.progressive = false;  // burst mode reports aggregates only
      round.push_back(std::move(base));
    }
    std::vector<srv::QueryRequest> burst;
    burst.reserve(round.size() * repeat);
    for (std::size_t r = 0; r < repeat; ++r) {
      for (const srv::QueryRequest& each : round) {
        srv::QueryRequest copy = each;
        copy.id = (copy.id.empty() ? request.id : copy.id) + "#" +
                  std::to_string(burst.size() + 1);
        burst.push_back(std::move(copy));
      }
    }
    return runQueryBurst(args, burst);
  }

  const auto port = static_cast<std::uint16_t>(args.getInt("connect", 0));
  const Socket socket = connectTo(port, std::chrono::milliseconds{2000});
  writeAll(socket, srv::encodeRequest(request) + "\n");

  std::string buffer;
  std::string line;
  std::uint64_t streamed = 0;
  while (readLine(socket, buffer, line)) {
    if (line.empty()) continue;
    const srv::Response response = srv::decodeResponse(line);
    if (const auto* ack = std::get_if<srv::AckResponse>(&response)) {
      std::fprintf(stderr, "accepted as engine query %llu\n",
                   static_cast<unsigned long long>(ack->query));
    } else if (const auto* answer = std::get_if<srv::AnswerResponse>(&response)) {
      ++streamed;
      printEntry(answer->seq, answer->entry);
    } else if (const auto* done = std::get_if<srv::DoneResponse>(&response)) {
      std::printf("%llu answers; %llu tuples shipped (%llu bytes, %llu RPCs) "
                  "in %.1f ms\n",
                  static_cast<unsigned long long>(done->answers),
                  static_cast<unsigned long long>(done->stats.tuplesShipped),
                  static_cast<unsigned long long>(done->stats.bytesShipped),
                  static_cast<unsigned long long>(done->stats.roundTrips),
                  done->stats.seconds * 1e3);
      if (done->answers > streamed) {
        std::printf("  ... %llu more (raise --limit)\n",
                    static_cast<unsigned long long>(done->answers - streamed));
      }
      if (done->profile) printProfile(*done->profile);
      if (done->degraded) {
        std::fprintf(stderr, "warning: degraded result — excluded site(s):");
        for (const SiteId site : done->excluded) {
          std::fprintf(stderr, " %u", site);
        }
        std::fprintf(stderr, "\n");
        return 3;
      }
      return 0;
    } else if (const auto* error = std::get_if<srv::ErrorResponse>(&response)) {
      std::fprintf(stderr, "query failed: %s: %s", srv::errorCodeName(error->code),
                   error->message.c_str());
      if (error->retryAfterMs > 0) {
        std::fprintf(stderr, " (retry after %u ms)", error->retryAfterMs);
      }
      std::fprintf(stderr, "\n");
      return 2;
    }
    // pong/stats cannot arrive for a query id; ignore defensively.
  }
  std::fprintf(stderr, "query: connection closed before a terminal response\n");
  return 2;
}

int cmdQuery(const ArgParser& args) {
  if (args.has("connect")) return cmdQueryConnect(args);
  const std::string in = args.get("in", "");
  if (in.empty()) {
    std::fprintf(stderr, "query: --in=<path> is required\n");
    return 1;
  }
  const Dataset data = loadAny(in);
  const auto m = static_cast<std::size_t>(args.getInt("m", 10));
  const auto seed = static_cast<std::uint64_t>(args.getInt("seed", 1));
  const auto k = static_cast<std::size_t>(args.getInt("k", 0));
  const std::string algo = args.get("algo", "edsud");

  QueryOptions options;
  options.fault.deadline =
      std::chrono::milliseconds{args.getInt("deadline-ms", 0)};
  options.fault.retry.maxAttempts =
      1 + static_cast<std::uint32_t>(args.getInt("retries", 0));
  const std::string onFailure = args.get("on-failure", "fail");
  if (onFailure == "degrade") {
    options.fault.onSiteFailure = OnSiteFailure::kDegrade;
  } else if (onFailure != "fail") {
    std::fprintf(stderr, "query: unknown --on-failure=%s\n", onFailure.c_str());
    return 1;
  }

  ClusterConfig clusterConfig;
  if (const std::int64_t kill = args.getInt("chaos-kill", -1); kill >= 0) {
    clusterConfig.chaos =
        ChaosSpec{.killAfter = 1, .onlySite = static_cast<SiteId>(kill)};
  }
  InProcCluster cluster(Topology::uniform(data, m, seed), clusterConfig);

  QueryResult result;
  if (k > 0) {
    TopKConfig config;
    config.k = k;
    config.floorQ = args.getDouble("q", 1e-3);
    config.mask = static_cast<DimMask>(args.getInt("mask", 0));
    result = cluster.engine().run(config, options);
  } else {
    QueryConfig config;
    config.q = args.getDouble("q", 0.3);
    config.mask = static_cast<DimMask>(args.getInt("mask", 0));
    const std::optional<Algo> parsed = parseAlgo(algo);
    if (!parsed) {
      std::fprintf(stderr, "query: unknown --algo=%s\n", algo.c_str());
      return 1;
    }
    result = cluster.engine().run(*parsed, config, options);
    sortByGlobalProbability(result.skyline);
  }

  std::printf("%zu answers; %llu tuples shipped (%llu bytes, %llu RPCs) in "
              "%.1f ms over %zu sites\n",
              result.skyline.size(),
              static_cast<unsigned long long>(result.stats.tuplesShipped),
              static_cast<unsigned long long>(result.stats.bytesShipped),
              static_cast<unsigned long long>(result.stats.roundTrips),
              result.stats.seconds * 1e3, m);

  const auto limit =
      std::min<std::size_t>(result.skyline.size(),
                            static_cast<std::size_t>(args.getInt("limit", 20)));
  for (std::size_t i = 0; i < limit; ++i) {
    printEntry(i + 1, result.skyline[i]);
  }
  if (limit < result.skyline.size()) {
    std::printf("  ... %zu more (raise --limit)\n",
                result.skyline.size() - limit);
  }
  if (args.has("profile")) printProfile(result.profile);
  if (result.degraded) {
    std::fprintf(stderr, "warning: degraded result — excluded site(s):");
    for (const SiteId site : result.excludedSites) {
      std::fprintf(stderr, " %u", site);
    }
    std::fprintf(stderr, "\n");
    return 3;
  }
  return 0;
}

/// `admin <action> --connect=<port>`: one membership operation against a
/// running dsudd, printing the resulting topology.
int cmdAdmin(const ArgParser& args) {
  namespace srv = dsud::server;

  if (args.positional().size() < 2) {
    std::fprintf(stderr,
                 "admin: usage dsudctl admin "
                 "<add-site|remove-site|rebalance|topology> --connect=<port> "
                 "[--site=<id>]\n");
    return 1;
  }
  const std::string& action = args.positional()[1];
  srv::AdminRequest request;
  request.id = args.get("id", "a1");
  if (action == "add-site") {
    request.action = srv::AdminAction::kAddSite;
  } else if (action == "remove-site") {
    request.action = srv::AdminAction::kRemoveSite;
    const std::int64_t site = args.getInt("site", -1);
    if (site < 0) {
      std::fprintf(stderr, "admin: remove-site needs --site=<id>\n");
      return 1;
    }
    request.site = static_cast<SiteId>(site);
  } else if (action == "rebalance") {
    request.action = srv::AdminAction::kRebalance;
  } else if (action == "topology") {
    request.action = srv::AdminAction::kTopology;
  } else {
    std::fprintf(stderr, "admin: unknown action '%s'\n", action.c_str());
    return 1;
  }
  if (!args.has("connect")) {
    std::fprintf(stderr, "admin: --connect=<port> is required\n");
    return 1;
  }

  const auto port = static_cast<std::uint16_t>(args.getInt("connect", 0));
  const Socket socket = connectTo(port, std::chrono::milliseconds{2000});
  writeAll(socket, srv::encodeRequest(request) + "\n");

  std::string buffer;
  std::string line;
  while (readLine(socket, buffer, line)) {
    if (line.empty()) continue;
    const srv::Response response = srv::decodeResponse(line);
    if (const auto* admin = std::get_if<srv::AdminResponse>(&response)) {
      if (admin->site != kNoSite) {
        std::printf("joined member %u (no data until the next rebalance)\n",
                    admin->site);
      }
      std::printf("epoch %llu; %zu member(s):",
                  static_cast<unsigned long long>(admin->epoch),
                  admin->members.size());
      for (const SiteId member : admin->members) {
        std::printf(" %u", member);
      }
      std::printf("\n");
      for (const PartitionDesc& partition : admin->partitions) {
        std::printf("  partition %-4u hosts:", partition.id);
        for (const SiteId host : partition.hosts) {
          std::printf(" %u", host);
        }
        std::printf("\n");
      }
      return 0;
    }
    if (const auto* error = std::get_if<srv::ErrorResponse>(&response)) {
      std::fprintf(stderr, "admin failed: %s: %s\n",
                   srv::errorCodeName(error->code), error->message.c_str());
      return 2;
    }
    // Anything else cannot answer an admin id; keep reading defensively.
  }
  std::fprintf(stderr, "admin: connection closed before a response\n");
  return 2;
}

/// `debug <queries|topology|cache|recorder> --connect=<http-port>`: fetch
/// one live introspection document from a running dsudd and print it.
int cmdDebug(const ArgParser& args) {
  if (args.positional().size() < 2) {
    std::fprintf(stderr,
                 "debug: usage dsudctl debug "
                 "<queries|topology|cache|recorder> --connect=<http-port>\n");
    return 1;
  }
  const std::string& what = args.positional()[1];
  if (what != "queries" && what != "topology" && what != "cache" &&
      what != "recorder") {
    std::fprintf(stderr, "debug: unknown endpoint '%s'\n", what.c_str());
    return 1;
  }
  if (!args.has("connect")) {
    std::fprintf(stderr, "debug: --connect=<http-port> is required\n");
    return 1;
  }
  const auto port = static_cast<std::uint16_t>(args.getInt("connect", 0));
  const std::string body = httpGet(port, "/debug/" + what);
  std::fwrite(body.data(), 1, body.size(), stdout);
  return 0;
}

int cmdMetrics(const ArgParser& args) {
  if (args.has("connect")) {
    // Live mode: scrape the daemon's own registry instead of running a
    // local query — same exposition Prometheus sees.
    const auto port = static_cast<std::uint16_t>(args.getInt("connect", 0));
    const std::string body = httpGet(port, "/metrics");
    std::fwrite(body.data(), 1, body.size(), stdout);
    return 0;
  }
  const std::string in = args.get("in", "");
  if (in.empty()) {
    std::fprintf(stderr, "metrics: --in=<path> is required\n");
    return 1;
  }
  const Dataset data = loadAny(in);
  const auto m = static_cast<std::size_t>(args.getInt("m", 10));
  const auto seed = static_cast<std::uint64_t>(args.getInt("seed", 1));
  const auto k = static_cast<std::size_t>(args.getInt("k", 0));
  const std::string algo = args.get("algo", "edsud");
  const std::string format = args.get("format", "prom");
  if (format != "prom" && format != "json") {
    std::fprintf(stderr, "metrics: unknown --format=%s\n", format.c_str());
    return 1;
  }

  InProcCluster cluster(Topology::uniform(data, m, seed));

  QueryResult result;
  if (k > 0) {
    TopKConfig config;
    config.k = k;
    config.floorQ = args.getDouble("q", 1e-3);
    result = cluster.engine().run(config);
  } else {
    QueryConfig config;
    config.q = args.getDouble("q", 0.3);
    const std::optional<Algo> parsed = parseAlgo(algo);
    if (!parsed) {
      std::fprintf(stderr, "metrics: unknown --algo=%s\n", algo.c_str());
      return 1;
    }
    result = cluster.engine().run(*parsed, config);
  }

  const obs::MetricsSnapshot snapshot =
      cluster.metricsRegistry().snapshot();
  const std::string text = format == "json"
                               ? obs::metricsToJson(snapshot)
                               : obs::metricsToPrometheus(snapshot);
  std::fwrite(text.data(), 1, text.size(), stdout);

  if (const std::string tracePath = args.get("trace-out", "");
      !tracePath.empty()) {
    const std::string traceJson = obs::traceToJson(result.trace);
    std::FILE* f = std::fopen(tracePath.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "metrics: cannot open %s\n", tracePath.c_str());
      return 2;
    }
    std::fwrite(traceJson.data(), 1, traceJson.size(), f);
    std::fclose(f);
    std::fprintf(stderr, "wrote %zu trace events to %s\n",
                 result.trace.events.size(), tracePath.c_str());
  }
  return 0;
}

int cmdTrace(const ArgParser& args) {
  const std::string in = args.get("in", "");
  const std::string out = args.get("out", "");
  if (in.empty() || out.empty()) {
    std::fprintf(stderr, "trace: --in=<path> and --out=<path> are required\n");
    return 1;
  }
  const Dataset data = loadAny(in);
  const auto m = static_cast<std::size_t>(args.getInt("m", 6));
  const auto seed = static_cast<std::uint64_t>(args.getInt("seed", 1));
  const std::optional<Algo> algo = parseAlgo(args.get("algo", "edsud"));
  if (!algo) {
    std::fprintf(stderr, "trace: unknown --algo=%s\n",
                 args.get("algo", "").c_str());
    return 1;
  }
  const std::string transportKind = args.get("transport", "inproc");

  QueryOptions options;
  options.traceCapacity =
      static_cast<std::size_t>(args.getInt("trace-capacity", 65536));
  options.siteTraceCapacity = options.traceCapacity;
  const std::string mode = args.get("site-trace", "piggyback");
  if (mode == "piggyback") {
    options.siteTrace = SiteTraceMode::kPiggyback;
  } else if (mode == "fetch") {
    options.siteTrace = SiteTraceMode::kFetch;
  } else if (mode == "off") {
    options.siteTrace = SiteTraceMode::kOff;
  } else {
    std::fprintf(stderr, "trace: unknown --site-trace=%s\n", mode.c_str());
    return 1;
  }
  options.slowQueryThreshold = args.getDouble("slow-threshold", 0.0);

  QueryConfig config;
  config.q = args.getDouble("q", 0.3);

  QueryResult result;
  if (transportKind == "tcp") {
    // Real loopback sockets: one server thread per site, the coordinator
    // talking through TcpClientChannel (the examples/tcp_cluster.cpp wiring).
    Rng partitionRng(seed + 1);
    const auto siteData = partitionUniform(data, m, partitionRng);
    std::vector<std::unique_ptr<LocalSite>> sites;
    std::vector<std::unique_ptr<SiteServer>> dispatchers;
    std::vector<std::unique_ptr<TcpSiteServer>> servers;
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < m; ++i) {
      sites.push_back(
          std::make_unique<LocalSite>(static_cast<SiteId>(i), siteData[i]));
      dispatchers.push_back(std::make_unique<SiteServer>(*sites.back()));
      servers.push_back(
          std::make_unique<TcpSiteServer>(dispatchers.back()->handler()));
      threads.emplace_back([srv = servers.back().get()] { srv->serve(); });
    }
    TransportConfig transport;
    transport.socket.connectTimeout = std::chrono::milliseconds{2000};
    BandwidthMeter meter;
    std::vector<std::unique_ptr<SiteHandle>> handles;
    for (std::size_t i = 0; i < m; ++i) {
      const auto id = static_cast<SiteId>(i);
      auto channel = std::make_unique<TcpClientChannel>(servers[i]->port(),
                                                        transport.socket);
      channel->bindAccounting(id, &meter, nullptr);
      handles.push_back(
          std::make_unique<RpcSiteHandle>(id, std::move(channel), &meter));
    }
    {
      Coordinator coordinator(std::move(handles), &meter, data.dims());
      QueryEngine engine(coordinator);
      result = engine.run(*algo, config, options);
      // Coordinator (and its channels) close here, ending the server loops.
    }
    for (auto& t : threads) t.join();
  } else if (transportKind == "inproc") {
    InProcCluster cluster(Topology::uniform(data, m, seed));
    result = cluster.engine().run(*algo, config, options);
  } else {
    std::fprintf(stderr, "trace: unknown --transport=%s\n",
                 transportKind.c_str());
    return 1;
  }

  const std::string json = obs::traceToPerfetto(result.trace);
  std::FILE* f = std::fopen(out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "trace: cannot open %s\n", out.c_str());
    return 2;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);

  std::size_t siteSpans = 0;
  for (const obs::TraceEvent& e : result.trace.events) {
    if (e.name.rfind("site.", 0) == 0 && e.name != "site.dead") ++siteSpans;
  }
  std::printf("%zu answers; wrote %zu spans (%zu from sites, %llu dropped) "
              "to %s — load it at https://ui.perfetto.dev\n",
              result.skyline.size(), result.trace.events.size(), siteSpans,
              static_cast<unsigned long long>(result.trace.droppedEvents),
              out.c_str());
  return 0;
}

int cmdConvert(const ArgParser& args) {
  const std::string in = args.get("in", "");
  const std::string out = args.get("out", "");
  if (in.empty() || out.empty()) {
    std::fprintf(stderr, "convert: --in and --out are required\n");
    return 1;
  }
  const Dataset data = loadAny(in);
  saveAny(data, out);
  std::printf("converted %zu tuples: %s -> %s\n", data.size(), in.c_str(),
              out.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const ArgParser args(argc, argv);
  if (args.positional().empty()) return usage();
  const std::string& command = args.positional().front();
  try {
    if (command == "generate") return cmdGenerate(args);
    if (command == "inspect") return cmdInspect(args);
    if (command == "query") return cmdQuery(args);
    if (command == "admin") return cmdAdmin(args);
    if (command == "convert") return cmdConvert(args);
    if (command == "metrics") return cmdMetrics(args);
    if (command == "debug") return cmdDebug(args);
    if (command == "trace") return cmdTrace(args);
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dsudctl: %s\n", e.what());
    return 2;
  }
}
