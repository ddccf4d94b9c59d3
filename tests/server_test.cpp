// End-to-end tests for the query-serving daemon (src/server/server.hpp):
// real sockets against a QueryServer running on its own thread.  Covers the
// acceptance bar for the subsystem — concurrent clients receive answers
// bit-identical to direct QueryEngine runs, overload sheds explicitly
// instead of hanging, malformed and oversized input leave the connection
// usable, /metrics is a conformant Prometheus exposition, and drain flips
// /healthz to 503 while refusing new queries.
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "core/cluster.hpp"
#include "gen/synthetic.hpp"
#include "net/wire.hpp"
#include "prom_util.hpp"
#include "server/event_loop.hpp"
#include "server/json.hpp"
#include "server/server.hpp"

namespace dsud::server {
namespace {

// ---------------------------------------------------------------------------
// Harness: a server on its own thread plus a tiny blocking client.

class ServerFixture {
 public:
  explicit ServerFixture(ServerConfig config = {}, std::size_t n = 4000,
                         std::size_t dims = 3, bool shareWork = false,
                         bool wireAdmin = false, std::size_t replicas = 1) {
    // Most tests compare server stats strictly against direct engine runs,
    // which the sharing layer deliberately changes (a cache hit ships
    // nothing).  Keep it off unless a test opts in.
    if (!shareWork) {
      config.cacheCapacity = 0;
      config.batching.enabled = false;
    }
    SyntheticSpec spec;
    spec.n = n;
    spec.dims = dims;
    spec.dist = ValueDistribution::kAnticorrelated;
    spec.seed = 1;
    cluster_ = std::make_unique<InProcCluster>(Topology::uniform(
        generateSynthetic(spec, uniformProbability()), 4, 1, replicas));
    if (wireAdmin) {
      // The same wiring dsudd uses: the admin surface drives the cluster.
      InProcCluster* cluster = cluster_.get();
      config.admin.addSite = [cluster] { return cluster->addSite(); };
      config.admin.removeSite = [cluster](SiteId id) {
        cluster->removeSite(id);
      };
      config.admin.rebalance = [cluster] { cluster->rebalance(); };
      config.admin.topology = [cluster] { return cluster->topology(); };
    }
    server_ = std::make_unique<QueryServer>(
        cluster_->engine(), cluster_->metricsRegistry(), config);
    server_->start();  // ports are known after this
    thread_ = std::thread([this] {
      server_->run();
      exited_.store(true, std::memory_order_relaxed);
    });
  }

  ~ServerFixture() {
    server_->stop();
    thread_.join();
  }

  QueryServer& server() { return *server_; }
  QueryEngine& engine() { return cluster_->engine(); }
  InProcCluster& cluster() { return *cluster_; }

  bool waitForExit(double seconds) {
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(static_cast<int>(seconds * 1e3));
    while (std::chrono::steady_clock::now() < deadline) {
      if (exited_.load(std::memory_order_relaxed)) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return exited_.load(std::memory_order_relaxed);
  }

 private:
  std::unique_ptr<InProcCluster> cluster_;
  std::unique_ptr<QueryServer> server_;
  std::thread thread_;
  std::atomic<bool> exited_{false};
};

/// Blocking NDJSON client with a receive timeout so a server bug surfaces
/// as a test failure, not a hang.
class Client {
 public:
  explicit Client(std::uint16_t port)
      : sock_(connectTo(port, std::chrono::milliseconds{2000})) {
    setSocketTimeouts(sock_, std::chrono::milliseconds{10'000});
  }

  void send(const std::string& text) {
    const std::string line = text + "\n";
    std::size_t off = 0;
    while (off < line.size()) {
      const auto n = ::send(sock_.fd(), line.data() + off, line.size() - off,
                            MSG_NOSIGNAL);
      if (n <= 0) throw NetError("client send failed");
      off += static_cast<std::size_t>(n);
    }
  }

  std::string readLine() {
    for (;;) {
      const std::size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return line;
      }
      char chunk[4096];
      const auto n = ::recv(sock_.fd(), chunk, sizeof chunk, 0);
      if (n <= 0) throw NetError("client recv failed (timeout or close)");
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  Response read() { return decodeResponse(readLine()); }

 private:
  Socket sock_;
  std::string buffer_;
};

/// Everything the server streamed for one query id, in order.
struct QueryOutcome {
  AckResponse ack;
  std::vector<AnswerResponse> answers;
  DoneResponse done;
  ErrorResponse error;
  bool failed = false;
};

/// Demultiplexes the connection's response stream into per-id outcomes,
/// reading until every requested id has its terminal line.  Pipelined
/// queries interleave freely and terminals arrive in any order, so a
/// read-one-id-at-a-time loop would discard another id's terminal.
std::map<std::string, QueryOutcome> collectMany(
    Client& client, const std::vector<std::string>& ids) {
  std::map<std::string, QueryOutcome> out;
  for (const std::string& id : ids) out[id];
  std::size_t remaining = out.size();
  while (remaining > 0) {
    const Response response = client.read();
    if (const auto* ack = std::get_if<AckResponse>(&response)) {
      const auto it = out.find(ack->id);
      if (it != out.end()) it->second.ack = *ack;
    } else if (const auto* answer = std::get_if<AnswerResponse>(&response)) {
      const auto it = out.find(answer->id);
      if (it != out.end()) it->second.answers.push_back(*answer);
    } else if (const auto* done = std::get_if<DoneResponse>(&response)) {
      const auto it = out.find(done->id);
      if (it != out.end()) {
        it->second.done = *done;
        --remaining;
      }
    } else if (const auto* error = std::get_if<ErrorResponse>(&response)) {
      const auto it = out.find(error->id);
      if (it != out.end()) {
        it->second.error = *error;
        it->second.failed = true;
        --remaining;
      }
    }
  }
  return out;
}

QueryOutcome collect(Client& client, const std::string& id) {
  return collectMany(client, {id})[id];
}

/// Streamed answers must be byte-exact against a direct engine run: same
/// order, same tuples, same probabilities (doubles survive the JSON codec
/// bit-exactly via %.17g).
void expectBitIdentical(const QueryOutcome& out, const QueryResult& direct) {
  ASSERT_FALSE(out.failed) << out.error.message;
  ASSERT_EQ(out.answers.size(), direct.skyline.size());
  for (std::size_t i = 0; i < out.answers.size(); ++i) {
    EXPECT_EQ(out.answers[i].seq, i + 1);
    EXPECT_EQ(out.answers[i].entry, direct.skyline[i]) << "answer " << i;
  }
  EXPECT_EQ(out.done.answers, direct.skyline.size());
  EXPECT_EQ(out.done.stats.tuplesShipped, direct.stats.tuplesShipped);
  EXPECT_EQ(out.done.stats.roundTrips, direct.stats.roundTrips);
}

// ---------------------------------------------------------------------------
// Basic protocol flow

TEST(ServerTest, PingAndStats) {
  ServerFixture fx({}, 500);
  Client client(fx.server().port());
  client.send(R"({"op":"ping"})");
  EXPECT_TRUE(std::holds_alternative<PongResponse>(client.read()));
  client.send(R"({"op":"stats"})");
  const Response response = client.read();
  ASSERT_TRUE(std::holds_alternative<StatsResponse>(response));
  EXPECT_EQ(std::get<StatsResponse>(response).active, 0u);
}

TEST(ServerTest, QueryStreamsBitIdenticalToDirectRun) {
  ServerFixture fx;
  QueryConfig config;
  config.q = 0.3;
  const QueryResult direct = fx.engine().run(Algo::kEdsud, config);
  ASSERT_FALSE(direct.skyline.empty());

  Client client(fx.server().port());
  client.send(R"({"op":"query","id":"q1","algo":"edsud","q":0.3})");
  const QueryOutcome out = collect(client, "q1");
  EXPECT_EQ(out.ack.id, "q1");
  EXPECT_NE(out.ack.query, kNoQuery);
  expectBitIdentical(out, direct);
}

TEST(ServerTest, TopKSubspaceAndConstrainedRouteCorrectly) {
  ServerFixture fx;
  Client client(fx.server().port());

  TopKConfig topk;
  topk.k = 5;
  topk.floorQ = 1e-3;
  const QueryResult directTopK = fx.engine().run(topk);
  client.send(R"({"op":"query","id":"tk","k":5,"floor_q":0.001})");
  expectBitIdentical(collect(client, "tk"), directTopK);

  QueryConfig sub;
  sub.q = 0.3;
  sub.mask = 0b011;
  const QueryResult directSub = fx.engine().run(Algo::kEdsud, sub);
  client.send(R"({"op":"query","id":"sub","q":0.3,"mask":3})");
  expectBitIdentical(collect(client, "sub"), directSub);

  QueryConfig win;
  win.q = 0.2;
  Rect window(3);
  window.expand(std::vector<double>{0.0, 0.0, 0.0});
  window.expand(std::vector<double>{0.5, 0.5, 0.5});
  win.window = window;
  const QueryResult directWin = fx.engine().run(Algo::kEdsud, win);
  client.send(
      R"({"op":"query","id":"win","q":0.2,"window":{"lo":[0,0,0],"hi":[0.5,0.5,0.5]}})");
  expectBitIdentical(collect(client, "win"), directWin);
}

TEST(ServerTest, NonProgressiveAndLimitedQueries) {
  ServerFixture fx;
  QueryConfig config;
  config.q = 0.3;
  const QueryResult direct = fx.engine().run(Algo::kEdsud, config);
  ASSERT_GT(direct.skyline.size(), 3u);

  Client client(fx.server().port());
  // progressive=false: no answer lines, done still reports the full count.
  client.send(R"({"op":"query","id":"np","q":0.3,"progressive":false})");
  const QueryOutcome np = collect(client, "np");
  ASSERT_FALSE(np.failed);
  EXPECT_TRUE(np.answers.empty());
  EXPECT_EQ(np.done.answers, direct.skyline.size());

  // limit=3: exactly the first three answers stream, count stays total.
  client.send(R"({"op":"query","id":"lim","q":0.3,"limit":3})");
  const QueryOutcome lim = collect(client, "lim");
  ASSERT_FALSE(lim.failed);
  ASSERT_EQ(lim.answers.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(lim.answers[i].entry, direct.skyline[i]);
  }
  EXPECT_EQ(lim.done.answers, direct.skyline.size());
}

// ---------------------------------------------------------------------------
// Concurrency: the subsystem's acceptance bar

TEST(ServerTest, SixtyFourConcurrentClientsBitIdentical) {
  ServerFixture fx({}, 2000);
  QueryConfig config;
  config.q = 0.3;
  const QueryResult direct = fx.engine().run(Algo::kEdsud, config);
  ASSERT_FALSE(direct.skyline.empty());

  constexpr std::size_t kClients = 64;
  std::vector<std::unique_ptr<Client>> clients;
  clients.reserve(kClients);
  for (std::size_t i = 0; i < kClients; ++i) {
    clients.push_back(std::make_unique<Client>(fx.server().port()));
  }
  // All queries go out before any response is read: the server must hold 64
  // concurrent sessions without mixing their streams.
  for (std::size_t i = 0; i < kClients; ++i) {
    clients[i]->send(R"({"op":"query","id":"c)" + std::to_string(i) +
                     R"(","algo":"edsud","q":0.3})");
  }
  for (std::size_t i = 0; i < kClients; ++i) {
    const QueryOutcome out =
        collect(*clients[i], std::string("c").append(std::to_string(i)));
    expectBitIdentical(out, direct);
  }
}

TEST(ServerTest, QuotaShedBurstNeverHangsAndDrainsToZero) {
  ServerConfig config;
  config.admission.defaultQuota.ratePerSec = 1e-6;  // effectively no refill
  config.admission.defaultQuota.burst = 2.0;
  ServerFixture fx(config, 1000);

  Client client(fx.server().port());
  constexpr int kBurst = 8;
  std::vector<std::string> ids;
  for (int i = 0; i < kBurst; ++i) {
    ids.push_back(std::string("b").append(std::to_string(i)));
    client.send(R"({"op":"query","id":")" + ids.back() + R"(","q":0.3})");
  }
  int completed = 0;
  int shed = 0;
  for (auto& [id, out] : collectMany(client, ids)) {
    if (out.failed) {
      EXPECT_EQ(out.error.code, ErrorCode::kOverloaded) << id;
      EXPECT_GE(out.error.retryAfterMs, 1u) << id;
      ++shed;
    } else {
      ++completed;
    }
  }
  EXPECT_EQ(completed, 2);
  EXPECT_EQ(shed, kBurst - 2);

  // Every shed was refused without a session; after the two admitted
  // queries finish the in-flight accounting is exactly zero again.
  client.send(R"({"op":"stats"})");
  const Response response = client.read();
  ASSERT_TRUE(std::holds_alternative<StatsResponse>(response));
  const auto& stats = std::get<StatsResponse>(response);
  EXPECT_EQ(stats.active, 0u);
  EXPECT_EQ(stats.queued, 0u);
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.shed, static_cast<std::uint64_t>(kBurst - 2));
}

TEST(ServerTest, CancelAbortsQueuedQuery) {
  ServerConfig config;
  config.admission.maxInFlight = 1;
  ServerFixture fx(config, 4000);

  Client client(fx.server().port());
  // One TCP write carries all three lines, so the loop queues `b` behind
  // the slow `a` and flips b's cancel flag in the same dispatch batch —
  // deterministically before `b` could ever start.
  client.send(
      std::string(R"({"op":"query","id":"a","algo":"naive","q":0.001})") +
      "\n" + R"({"op":"query","id":"b","q":0.3})" + "\n" +
      R"({"op":"cancel","id":"b"})");
  auto outcomes = collectMany(client, {"a", "b"});
  EXPECT_FALSE(outcomes["a"].failed);
  ASSERT_TRUE(outcomes["b"].failed);
  EXPECT_EQ(outcomes["b"].error.code, ErrorCode::kCancelled);

  // Cancel for an unknown id is a silent no-op; the connection lives on.
  client.send(R"({"op":"cancel","id":"ghost"})");
  client.send(R"({"op":"ping"})");
  EXPECT_TRUE(std::holds_alternative<PongResponse>(client.read()));
}

// ---------------------------------------------------------------------------
// Hostile input

TEST(ServerTest, MalformedLinesGetCleanErrorsAndConnectionSurvives) {
  ServerFixture fx({}, 500);
  Client client(fx.server().port());

  client.send("this is not json");
  Response response = client.read();
  ASSERT_TRUE(std::holds_alternative<ErrorResponse>(response));
  EXPECT_EQ(std::get<ErrorResponse>(response).code, ErrorCode::kBadRequest);
  EXPECT_TRUE(std::get<ErrorResponse>(response).id.empty());

  client.send(R"({"op":"warp"})");
  response = client.read();
  ASSERT_TRUE(std::holds_alternative<ErrorResponse>(response));
  EXPECT_EQ(std::get<ErrorResponse>(response).code, ErrorCode::kUnknownOp);

  std::string badUtf8 = R"({"op":"ping","x":")";
  badUtf8 += "\xff\xfe\"}";
  client.send(badUtf8);
  response = client.read();
  ASSERT_TRUE(std::holds_alternative<ErrorResponse>(response));
  EXPECT_EQ(std::get<ErrorResponse>(response).code, ErrorCode::kBadRequest);

  // After all that abuse the connection still serves queries.
  client.send(R"({"op":"ping"})");
  EXPECT_TRUE(std::holds_alternative<PongResponse>(client.read()));
}

TEST(ServerTest, OversizedLineIsRejectedAndStreamResyncs) {
  ServerConfig config;
  config.maxLineBytes = 256;
  ServerFixture fx(config, 500);
  Client client(fx.server().port());

  client.send(std::string(2000, 'x'));  // one giant junk line
  const Response response = client.read();
  ASSERT_TRUE(std::holds_alternative<ErrorResponse>(response));
  EXPECT_EQ(std::get<ErrorResponse>(response).code, ErrorCode::kOversized);

  // The parser resynchronised at the newline: the next request works.
  client.send(R"({"op":"ping"})");
  EXPECT_TRUE(std::holds_alternative<PongResponse>(client.read()));
}

TEST(ServerTest, AbruptResetMidPipelineDoesNotCorruptServer) {
  // A client pipelines a burst of requests and slams the door with an RST:
  // the server's response send() then fails inside the connection's own
  // onReadable() frame, with more pipelined lines still buffered.  The
  // teardown must be deferred (never a synchronous erase under the live
  // handler frame), and the server must keep serving other clients.
  ServerFixture fx({}, 500);
  {
    Socket sock = connectTo(fx.server().port(), std::chrono::milliseconds{2000});
    std::string burst;
    for (int i = 0; i < 64; ++i) burst += "{\"op\":\"ping\"}\n";
    std::size_t off = 0;
    while (off < burst.size()) {
      const auto n = ::send(sock.fd(), burst.data() + off, burst.size() - off,
                            MSG_NOSIGNAL);
      ASSERT_GT(n, 0);
      off += static_cast<std::size_t>(n);
    }
    struct linger hard{};
    hard.l_onoff = 1;
    hard.l_linger = 0;
    ::setsockopt(sock.fd(), SOL_SOCKET, SO_LINGER, &hard, sizeof hard);
  }  // close with linger 0 -> RST races the server's reads and writes

  // Regardless of how the race lands, a fresh connection works.
  Client client(fx.server().port());
  client.send(R"({"op":"ping"})");
  EXPECT_TRUE(std::holds_alternative<PongResponse>(client.read()));
}

// ---------------------------------------------------------------------------
// Connection teardown mechanics

TEST(EventLoopTest, StopFromAnotherThreadEndsRun) {
  // stop() may be called from any thread while run() dispatches on its own;
  // under TSan this guards the stop flag against a data race.
  EventLoop loop;
  std::promise<void> started;
  loop.post([&started] { started.set_value(); });
  std::thread runner([&loop] { loop.run(); });
  started.get_future().wait();  // run() has dispatched a posted task
  std::thread stopper([&loop] { loop.stop(); });
  stopper.join();
  runner.join();
}

TEST(ConnectionTest, DefunctStopsLineDispatchWithoutDestruction) {
  // The server reacts to a failed send by marking the connection defunct
  // from inside the line handler; onReadable() must stop dispatching the
  // remaining pipelined lines and return normally (the erase is deferred).
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  Connection conn(1, Socket(fds[0]), 1024, 4096);
  std::vector<std::string> lines;
  conn.setLineHandler([&](std::string_view line) {
    lines.emplace_back(line);
    conn.markDefunct();
  });
  ASSERT_EQ(::send(fds[1], "first\nsecond\n", 13, MSG_NOSIGNAL), 13);
  EXPECT_EQ(conn.onReadable(), Connection::IoResult::kOk);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "first");
  // Defunct connections also drop writes instead of reporting failures.
  EXPECT_EQ(conn.send("late response"), Connection::IoResult::kOk);
  ::close(fds[1]);
}

// ---------------------------------------------------------------------------
// HTTP endpoints

/// One-shot HTTP GET; returns the status line and body.
std::pair<std::string, std::string> httpGet(std::uint16_t port,
                                            const std::string& request) {
  Socket sock = connectTo(port, std::chrono::milliseconds{2000});
  setSocketTimeouts(sock, std::chrono::milliseconds{5000});
  std::size_t off = 0;
  while (off < request.size()) {
    const auto n = ::send(sock.fd(), request.data() + off,
                          request.size() - off, MSG_NOSIGNAL);
    if (n <= 0) throw NetError("http send failed");
    off += static_cast<std::size_t>(n);
  }
  std::string response;
  char chunk[4096];
  for (;;) {  // the server closes after one response
    const auto n = ::recv(sock.fd(), chunk, sizeof chunk, 0);
    if (n <= 0) break;
    response.append(chunk, static_cast<std::size_t>(n));
  }
  const std::size_t eol = response.find("\r\n");
  const std::size_t split = response.find("\r\n\r\n");
  if (eol == std::string::npos || split == std::string::npos) {
    throw NetError("malformed http response");
  }
  return {response.substr(0, eol), response.substr(split + 4)};
}

TEST(ServerTest, HealthzAndMetricsEndpoints) {
  ServerFixture fx({}, 500);
  const std::uint16_t http = fx.server().httpPort();

  const auto [healthStatus, healthBody] =
      httpGet(http, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_NE(healthStatus.find("200"), std::string::npos);
  EXPECT_EQ(healthBody, "ok\n");

  // Run one query first so engine series carry non-zero values.
  Client client(fx.server().port());
  client.send(R"({"op":"query","id":"q1","q":0.3})");
  collect(client, "q1");

  const auto [status, body] =
      httpGet(http, "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_NE(status.find("200"), std::string::npos);
  // The exposition must be conformant and contain both server and engine
  // families — one registry, one page.
  for (const std::string& error : promtest::lintExposition(body)) {
    ADD_FAILURE() << error;
  }
  EXPECT_NE(body.find("dsud_server_requests_total"), std::string::npos);
  EXPECT_NE(body.find("dsud_server_active"), std::string::npos);
  EXPECT_NE(body.find("dsud_queries_total"), std::string::npos);

  const auto [notFound, nfBody] =
      httpGet(http, "GET /nope HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_NE(notFound.find("404"), std::string::npos);
  const auto [notAllowed, naBody] =
      httpGet(http, "POST /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_NE(notAllowed.find("405"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Shared work: result cache + batch executor over the wire

TEST(ServerTest, SharedWorkServesCachedAnswersBitIdenticalForFree) {
  ServerConfig config;
  config.batching.enabled = true;
  config.batching.windowSeconds = 0.02;
  ServerFixture fx(config, 2000, 3, /*shareWork=*/true);

  // Warm the shared cache through the engine directly; the same run defines
  // the reference answers every cached reply must match bit-for-bit.
  QueryConfig warm;
  warm.q = 0.3;
  const QueryResult reference = fx.engine().run(Algo::kEdsud, warm);
  ASSERT_FALSE(reference.skyline.empty());

  constexpr std::size_t kClients = 16;
  std::vector<std::unique_ptr<Client>> clients;
  clients.reserve(kClients);
  for (std::size_t i = 0; i < kClients; ++i) {
    clients.push_back(std::make_unique<Client>(fx.server().port()));
  }
  for (std::size_t i = 0; i < kClients; ++i) {
    clients[i]->send(R"({"op":"query","id":"s)" + std::to_string(i) +
                     R"(","algo":"edsud","q":0.3})");
  }
  for (std::size_t i = 0; i < kClients; ++i) {
    const QueryOutcome out =
        collect(*clients[i], std::string("s").append(std::to_string(i)));
    ASSERT_FALSE(out.failed) << out.error.message;
    ASSERT_EQ(out.answers.size(), reference.skyline.size());
    for (std::size_t j = 0; j < out.answers.size(); ++j) {
      EXPECT_EQ(out.answers[j].entry, reference.skyline[j]) << "answer " << j;
    }
    // Every burst query resolved from the cache: the sites were not asked
    // for a single tuple, yet the stream is indistinguishable in content.
    EXPECT_EQ(out.done.stats.tuplesShipped, 0u);
    EXPECT_EQ(out.done.stats.roundTrips, 0u);
  }

  // The sharing layer's counters are on the one metrics page, lint-clean,
  // and record the burst: one miss from the warm run, a hit per client.
  const auto [status, body] = httpGet(
      fx.server().httpPort(), "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_NE(status.find("200"), std::string::npos);
  promtest::PromExposition parsed;
  std::vector<std::string> errors;
  promtest::parsePrometheus(body, parsed, errors);
  for (const std::string& error : errors) ADD_FAILURE() << error;
  for (const std::string& error : promtest::lintExposition(body)) {
    ADD_FAILURE() << error;
  }
  std::map<std::string, double> counters;
  for (const auto& sample : parsed.samples) {
    if (sample.suffix.empty()) counters[sample.family] = sample.value;
  }
  ASSERT_TRUE(counters.count("dsud_cache_hits_total"));
  ASSERT_TRUE(counters.count("dsud_cache_misses_total"));
  ASSERT_TRUE(counters.count("dsud_batch_merged_total"));
  ASSERT_TRUE(counters.count("dsud_batch_flushes_total"));
  // One hit resolves a whole batch group, so hits counts groups and merged
  // counts the members that rode along: together they account for every
  // client in the burst.
  EXPECT_GE(counters["dsud_cache_hits_total"], 1.0);
  EXPECT_EQ(counters["dsud_cache_hits_total"] +
                counters["dsud_batch_merged_total"],
            static_cast<double>(kClients));
  EXPECT_GE(counters["dsud_cache_misses_total"], 1.0);
  EXPECT_GE(counters["dsud_batch_flushes_total"], 1.0);
}

// ---------------------------------------------------------------------------
// Graceful drain

TEST(ServerTest, DrainRefusesQueriesFlipsHealthzAndStops) {
  // A drain with nothing in flight completes instantly and run() returns,
  // taking the HTTP listener with it.  Hold the drain open with a slow
  // in-flight query (naive at q=0.001 over a large 5-d set takes hundreds
  // of milliseconds) so the degraded /healthz and the refusal of late
  // queries are observable mid-drain.  The drain deadline is raised well
  // past any sanitizer slowdown: this test is about the held-open drain
  // completing on its own, and the default 5 s deadline would cancel the
  // in-flight query under ASan instead.
  ServerConfig config;
  config.drainSeconds = 60.0;
  ServerFixture fx(config, 40'000, 5);
  Client client(fx.server().port());  // connected before the drain
  client.send(R"({"op":"query","id":"a","algo":"naive","q":0.001})");
  const Response ackResponse = client.read();
  ASSERT_TRUE(std::holds_alternative<AckResponse>(ackResponse));
  EXPECT_EQ(std::get<AckResponse>(ackResponse).id, "a");

  fx.server().requestDrain();
  // The drain begins asynchronously on the loop thread; /healthz flips once
  // it has.  Poll briefly rather than assuming scheduling order.
  std::string status;
  for (int i = 0; i < 100; ++i) {
    status = httpGet(fx.server().httpPort(),
                     "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
                 .first;
    if (status.find("503") != std::string::npos) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_NE(status.find("503"), std::string::npos);

  // Established connections get an explicit refusal, not silence — while
  // the in-flight query keeps streaming to completion.
  client.send(R"({"op":"query","id":"late","q":0.3})");
  auto outcomes = collectMany(client, {"a", "late"});
  ASSERT_TRUE(outcomes["late"].failed);
  EXPECT_EQ(outcomes["late"].error.code, ErrorCode::kUnavailable);
  EXPECT_FALSE(outcomes["a"].failed);
  EXPECT_GT(outcomes["a"].done.answers, 0u);

  // Once the in-flight query finished, the drain completes and run()
  // returns on its own — no stop() needed.
  EXPECT_TRUE(fx.waitForExit(5.0));
}

// ---------------------------------------------------------------------------
// Elastic-cluster admin surface

TEST(ServerTest, AdminJoinRebalanceLeaveOverTheWire) {
  ServerFixture fx({}, 1000, 3, /*shareWork=*/false, /*wireAdmin=*/true);
  Client client(fx.server().port());

  // Read-only snapshot of the initial layout.
  client.send(R"({"op":"admin","id":"t0","action":"topology"})");
  Response response = client.read();
  ASSERT_TRUE(std::holds_alternative<AdminResponse>(response));
  {
    const auto& topo = std::get<AdminResponse>(response);
    EXPECT_EQ(topo.id, "t0");
    EXPECT_EQ(topo.epoch, 1u);
    EXPECT_EQ(topo.members.size(), 4u);
    EXPECT_EQ(topo.partitions.size(), 4u);
    EXPECT_EQ(topo.site, kNoSite);
  }

  // Join: a fresh member appears in the membership, hosts nothing yet.
  client.send(R"({"op":"admin","id":"t1","action":"add-site"})");
  response = client.read();
  ASSERT_TRUE(std::holds_alternative<AdminResponse>(response));
  {
    const auto& joined = std::get<AdminResponse>(response);
    EXPECT_EQ(joined.site, 4u);
    EXPECT_EQ(joined.epoch, 2u);
    EXPECT_EQ(joined.members.size(), 5u);
    EXPECT_EQ(joined.partitions.size(), 4u) << "no data until rebalance";
  }

  // Rebalance spreads one partition onto every member.
  client.send(R"({"op":"admin","id":"t2","action":"rebalance"})");
  response = client.read();
  ASSERT_TRUE(std::holds_alternative<AdminResponse>(response));
  {
    const auto& rebalanced = std::get<AdminResponse>(response);
    EXPECT_EQ(rebalanced.epoch, 3u);
    EXPECT_EQ(rebalanced.partitions.size(), 5u);
  }

  // Leave: the member's data drains onto the survivors.
  client.send(R"({"op":"admin","id":"t3","action":"remove-site","site":4})");
  response = client.read();
  ASSERT_TRUE(std::holds_alternative<AdminResponse>(response));
  {
    const auto& shrunk = std::get<AdminResponse>(response);
    EXPECT_EQ(shrunk.members.size(), 4u);
    EXPECT_EQ(shrunk.partitions.size(), 4u);
  }

  // Queries work across every epoch the churn produced.
  client.send(R"({"op":"query","id":"q1","q":0.3})");
  const QueryOutcome out = collect(client, "q1");
  ASSERT_FALSE(out.failed) << out.error.message;
  EXPECT_GT(out.done.answers, 0u);

  // Bad requests answer cleanly and keep the connection usable.
  client.send(R"({"op":"admin","id":"t4","action":"remove-site","site":99})");
  response = client.read();
  ASSERT_TRUE(std::holds_alternative<ErrorResponse>(response));
  EXPECT_EQ(std::get<ErrorResponse>(response).code, ErrorCode::kBadRequest);
}

TEST(ServerTest, AdminRejectedWhenHooksAreNotWired) {
  ServerFixture fx({}, 500);  // no admin wiring
  Client client(fx.server().port());
  client.send(R"({"op":"admin","id":"a1","action":"topology"})");
  const Response response = client.read();
  ASSERT_TRUE(std::holds_alternative<ErrorResponse>(response));
  EXPECT_EQ(std::get<ErrorResponse>(response).code, ErrorCode::kBadRequest);
}

TEST(ServerTest, QueriesKeepCompletingDuringWireTriggeredRebalance) {
  ServerFixture fx({}, 8000, 3, /*shareWork=*/false, /*wireAdmin=*/true);
  Client adminClient(fx.server().port());
  Client queryClient(fx.server().port());

  // Kick a rebalance and immediately pipeline queries on another
  // connection; the rebalance runs on a worker while the queries flow.
  adminClient.send(R"({"op":"admin","id":"r1","action":"rebalance"})");
  std::vector<std::string> ids;
  for (int i = 0; i < 8; ++i) {
    const std::string id = std::string("q").append(std::to_string(i));
    queryClient.send(R"({"op":"query","id":")" + id +
                     R"(","q":0.3,"progressive":false})");
    ids.push_back(id);
  }
  auto outcomes = collectMany(queryClient, ids);
  std::uint64_t answers = 0;
  for (const auto& [id, out] : outcomes) {
    ASSERT_FALSE(out.failed) << id << ": " << out.error.message;
    EXPECT_FALSE(out.done.degraded) << id;
    if (answers == 0) answers = out.done.answers;
    EXPECT_EQ(out.done.answers, answers)
        << "every epoch serves the same answer set";
  }

  const Response response = adminClient.read();
  ASSERT_TRUE(std::holds_alternative<AdminResponse>(response));
  EXPECT_EQ(std::get<AdminResponse>(response).epoch, 2u);
}

// ---------------------------------------------------------------------------
// Live /debug introspection

TEST(ServerTest, DebugEndpointsServeWellFormedJson) {
  ServerFixture fx({}, 500);
  const std::uint16_t http = fx.server().httpPort();

  // Run one query first so /debug/queries has a finished row and the
  // recorder has retained its lifecycle events.
  Client client(fx.server().port());
  client.send(R"({"op":"query","id":"dbg1","algo":"edsud","q":0.3})");
  const QueryOutcome out = collect(client, "dbg1");
  ASSERT_FALSE(out.failed) << out.error.message;

  const auto [qStatus, qBody] =
      httpGet(http, "GET /debug/queries HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_NE(qStatus.find("200"), std::string::npos);
  const Json queries = Json::parse(qBody);
  ASSERT_TRUE(queries.isObject());
  ASSERT_NE(queries.find("running"), nullptr);
  ASSERT_NE(queries.find("recent"), nullptr);
  ASSERT_TRUE(queries.find("recent")->isArray());
  const auto& recent = queries.find("recent")->asArray();
  ASSERT_FALSE(recent.empty());
  // Newest first; the row is the query we just ran, fully disposed.
  const Json& row = recent.front();
  ASSERT_TRUE(row.isObject());
  EXPECT_EQ(row.find("id")->asString(), "dbg1");
  EXPECT_EQ(row.find("state")->asString(), "done");
  EXPECT_EQ(row.find("algo")->asString(), "edsud");
  EXPECT_EQ(row.find("answers")->asNumber(),
            static_cast<double>(out.done.answers));
  ASSERT_NE(row.find("cache"), nullptr);
  ASSERT_NE(row.find("batch"), nullptr);

  const auto [tStatus, tBody] =
      httpGet(http, "GET /debug/topology HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_NE(tStatus.find("200"), std::string::npos);
  const Json topology = Json::parse(tBody);
  ASSERT_TRUE(topology.isObject());
  ASSERT_NE(topology.find("epoch"), nullptr);
  ASSERT_NE(topology.find("breakers_open"), nullptr);
  ASSERT_TRUE(topology.find("partitions")->isArray());
  const auto& partitions = topology.find("partitions")->asArray();
  ASSERT_EQ(partitions.size(), 4u);
  for (const Json& part : partitions) {
    ASSERT_TRUE(part.isObject());
    ASSERT_NE(part.find("partition"), nullptr);
    ASSERT_NE(part.find("replicas"), nullptr);
    EXPECT_EQ(part.find("breaker")->asString(), "closed");
  }

  const auto [cStatus, cBody] =
      httpGet(http, "GET /debug/cache HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_NE(cStatus.find("200"), std::string::npos);
  const Json cache = Json::parse(cBody);
  ASSERT_TRUE(cache.isObject());
  // The fixture runs with sharing off, and the page says so.
  EXPECT_FALSE(cache.find("enabled")->asBool());
  ASSERT_NE(cache.find("capacity"), nullptr);
  ASSERT_NE(cache.find("size"), nullptr);
  ASSERT_NE(cache.find("hits"), nullptr);
  ASSERT_NE(cache.find("misses"), nullptr);

  const auto [rStatus, rBody] =
      httpGet(http, "GET /debug/recorder HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_NE(rStatus.find("200"), std::string::npos);
  const Json recorder = Json::parse(rBody);
  ASSERT_TRUE(recorder.isObject());
  EXPECT_GT(recorder.find("capacity")->asNumber(), 0.0);
  EXPECT_GT(recorder.find("recorded")->asNumber(), 0.0);
  ASSERT_NE(recorder.find("dumps"), nullptr);
  ASSERT_TRUE(recorder.find("events")->isArray());
  // The query's lifecycle passed through the ring: at least one retained
  // event carries the reserved keys.
  bool sawQueryDone = false;
  for (const Json& event : recorder.find("events")->asArray()) {
    ASSERT_TRUE(event.isObject());
    ASSERT_NE(event.find("ts_ns"), nullptr);
    ASSERT_NE(event.find("level"), nullptr);
    ASSERT_NE(event.find("component"), nullptr);
    ASSERT_NE(event.find("event"), nullptr);
    if (event.find("event")->asString() == "query.done") sawQueryDone = true;
  }
  EXPECT_TRUE(sawQueryDone);

  // Unknown /debug paths are a plain 404, not a crash.
  const auto [nfStatus, nfBody] =
      httpGet(http, "GET /debug/nope HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_NE(nfStatus.find("404"), std::string::npos);
}

/// Partition breaker states and the open count from /debug/topology.
std::pair<std::vector<std::string>, double> debugBreakers(std::uint16_t http) {
  const auto [status, body] =
      httpGet(http, "GET /debug/topology HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_NE(status.find("200"), std::string::npos);
  const Json topology = Json::parse(body);
  std::vector<std::string> states;
  for (const Json& part : topology.find("partitions")->asArray()) {
    states.push_back(part.find("breaker")->asString());
  }
  return {states, topology.find("breakers_open")->asNumber()};
}

TEST(ServerTest, PartitionIsOpenOnlyWhenEveryReplicaBreakerIs) {
  // k=2 on a ring of 4 members: partition i lives on members i and i+1.
  ServerFixture fx({}, 4000, 3, false, false, /*replicas=*/2);
  const auto view = fx.engine().coordinator().view();
  ASSERT_EQ(view->partitions.size(), 4u);
  const auto trip = [](SiteHealth* health) {
    for (int i = 0; i < 3; ++i) health->recordFailure();  // default threshold
    ASSERT_EQ(health->state(), SiteHealth::State::kOpen);
  };

  // Open the primaries of partitions 0 and 2 — half of all primaries, the
  // admission gate's default shed fraction.  Every partition still has a
  // replica whose breaker is closed.
  trip(view->partitions[0].health[0]);
  trip(view->partitions[2].health[0]);
  for (const ReplicaChain& chain : view->partitions) {
    ASSERT_EQ(chain.health.size(), 2u);
  }
  const auto [states, open] = debugBreakers(fx.server().httpPort());
  EXPECT_EQ(open, 0.0);
  for (const std::string& state : states) EXPECT_EQ(state, "closed");

  // Admission does not shed: failover serves the tripped partitions.
  Client client(fx.server().port());
  client.send(R"({"op":"query","id":"k2","algo":"edsud","q":0.3})");
  const QueryOutcome out = collect(client, "k2");
  ASSERT_FALSE(out.failed) << out.error.message;
  EXPECT_FALSE(out.done.degraded);

  // Once both replicas of a partition are open, it is.
  for (const ReplicaChain& chain : view->partitions) {
    for (SiteHealth* health : chain.health) {
      if (health->state() != SiteHealth::State::kOpen) trip(health);
    }
  }
  const auto [allStates, allOpen] = debugBreakers(fx.server().httpPort());
  EXPECT_EQ(allOpen, 4.0);
  for (const std::string& state : allStates) EXPECT_EQ(state, "open");
}

// ---------------------------------------------------------------------------
// Per-query EXPLAIN profiles over the wire

TEST(ServerTest, ProfileOnAnswerIsBitIdenticalAndCompleteForAllAlgos) {
  ServerFixture fx({}, 1500);
  Client client(fx.server().port());

  struct AlgoCase {
    std::string request;   // fields after the id, before the closing brace
    std::string expected;  // profile.algo on the wire
  };
  const std::vector<AlgoCase> cases = {
      {R"("algo":"naive","q":0.3)", "naive"},
      {R"("algo":"dsud","q":0.3)", "dsud"},
      {R"("algo":"edsud","q":0.3)", "edsud"},
      {R"("algo":"edsud","q":0.3,"k":5)", "topk"},
  };
  int seq = 0;
  for (const AlgoCase& c : cases) {
    // The same query with and without `profile`: answers and stats must be
    // bit-identical — profiling is observation, never perturbation.
    const std::string plainId = std::string("p").append(std::to_string(seq++));
    client.send(R"({"op":"query","id":")" + plainId + R"(",)" + c.request +
                "}");
    const QueryOutcome plain = collect(client, plainId);
    ASSERT_FALSE(plain.failed) << plain.error.message;
    EXPECT_FALSE(plain.done.profile.has_value())
        << c.expected << ": profile must be opt-in";

    const std::string profId = std::string("p").append(std::to_string(seq++));
    client.send(R"({"op":"query","id":")" + profId + R"(",)" + c.request +
                R"(,"profile":true})");
    const QueryOutcome profiled = collect(client, profId);
    ASSERT_FALSE(profiled.failed) << profiled.error.message;

    ASSERT_EQ(profiled.answers.size(), plain.answers.size()) << c.expected;
    for (std::size_t i = 0; i < profiled.answers.size(); ++i) {
      EXPECT_EQ(profiled.answers[i].entry, plain.answers[i].entry)
          << c.expected << " answer " << i;
    }
    EXPECT_EQ(profiled.done.answers, plain.done.answers) << c.expected;
    // Everything but wall-clock seconds is deterministic across the pair.
    EXPECT_EQ(profiled.done.stats.tuplesShipped, plain.done.stats.tuplesShipped)
        << c.expected;
    EXPECT_EQ(profiled.done.stats.bytesShipped, plain.done.stats.bytesShipped)
        << c.expected;
    EXPECT_EQ(profiled.done.stats.roundTrips, plain.done.stats.roundTrips)
        << c.expected;
    EXPECT_EQ(profiled.done.stats.candidatesPulled,
              plain.done.stats.candidatesPulled)
        << c.expected;
    EXPECT_EQ(profiled.done.stats.broadcasts, plain.done.stats.broadcasts)
        << c.expected;

    ASSERT_TRUE(profiled.done.profile.has_value()) << c.expected;
    const QueryProfile& profile = *profiled.done.profile;
    EXPECT_EQ(profile.algo, c.expected);
    EXPECT_EQ(profile.cache, "bypass") << "sharing is off in this fixture";
    EXPECT_EQ(profile.batch, "solo");
    EXPECT_EQ(profile.failovers, 0u);
    EXPECT_GE(profile.executeSeconds, 0.0);
    ASSERT_EQ(profile.sites.size(), 4u) << "one row per site";
    std::uint64_t tuples = 0;
    for (const SiteProfile& site : profile.sites) {
      EXPECT_FALSE(site.dead);
      EXPECT_EQ(site.retries, 0u);
      tuples += site.tuples;
    }
    // Per-site shipping decomposes the query-level total exactly.
    EXPECT_EQ(tuples, profiled.done.stats.tuplesShipped) << c.expected;
  }
}

}  // namespace
}  // namespace dsud::server
