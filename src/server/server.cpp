#include "server/server.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

#include "core/health.hpp"
#include "obs/export.hpp"
#include "obs/log.hpp"
#include "obs/recorder.hpp"
#include "server/json.hpp"

namespace dsud::server {

namespace {

const char* const kInflightAlgos[4] = {"naive", "dsud", "edsud", "topk"};

/// A partition's breaker, for admission and /debug/topology alike: that of
/// its healthiest replica.  The partition is open only when every replica's
/// breaker is open; while one replica still admits calls, failover serves
/// the partition.
SiteHealth::State partitionBreaker(const ReplicaChain& chain) {
  bool halfOpen = false;
  for (const SiteHealth* health : chain.health) {
    const SiteHealth::State state = health->state();
    if (state == SiteHealth::State::kClosed) return state;
    halfOpen = halfOpen || state == SiteHealth::State::kHalfOpen;
  }
  return halfOpen ? SiteHealth::State::kHalfOpen : SiteHealth::State::kOpen;
}

}  // namespace

QueryServer::QueryServer(QueryEngine& engine, obs::MetricsRegistry& metrics,
                         ServerConfig config)
    : engine_(engine),
      metrics_(metrics),
      config_(std::move(config)),
      admission_(config_.admission, &metrics_) {
  admission_.setBreakerProbe([this] { return breakerOpenFraction(); });
  admission_.setInflightProbe([this] { return engineInflight(); });
  connectionsGauge_ = &metrics_.gauge("dsud_server_connections");
  for (std::size_t i = 0; i < 4; ++i) {
    inflightGauges_[i] = &metrics_.gauge(
        obs::labeled("dsud_queries_inflight", {{"algo", kInflightAlgos[i]}}));
  }
  // Pre-register the request counters so every op shows as a zero series
  // from the first scrape.
  for (const char* op :
       {"query", "ping", "cancel", "stats", "admin", "invalid", "oversized"}) {
    metrics_.counter(obs::labeled("dsud_server_requests_total", {{"op", op}}));
  }
  if (config_.cacheCapacity > 0) {
    cache_ = std::make_unique<ResultCache>(
        ResultCacheConfig{.capacity = config_.cacheCapacity}, &metrics_);
    engine_.setResultCache(cache_.get());
  } else {
    // The cache's series still exist so dashboards and the CI grep see them
    // as zero series from the start (the engine registers the batch ones).
    metrics_.counter("dsud_cache_hits_total");
    metrics_.counter("dsud_cache_misses_total");
  }
}

QueryServer::~QueryServer() {
  // Flip every cancel flag so queued / running worker tasks unwind fast,
  // then join the pool (member order destroys it first anyway; the explicit
  // reset makes the dependency visible).  The loop is not running here, so
  // the workers' loop_.post() calls only append to the task list.
  for (auto& [id, conn] : conns_) conn->cancelAll();
  pool_.reset();
  // Workers are joined, so no query can touch the cache any more; detach it
  // before it is destroyed (the engine outlives the server).
  if (cache_ != nullptr) engine_.setResultCache(nullptr);
}

double QueryServer::breakerOpenFraction() {
  // Pin the view once: positional index/health() pairs could straddle a
  // concurrent membership change.
  const auto view = engine_.coordinator().view();
  if (view->partitions.empty()) return 0.0;
  std::size_t open = 0;
  for (const ReplicaChain& chain : view->partitions) {
    if (partitionBreaker(chain) == SiteHealth::State::kOpen) ++open;
  }
  return static_cast<double>(open) /
         static_cast<double>(view->partitions.size());
}

double QueryServer::engineInflight() {
  double total = 0.0;
  for (const obs::Gauge* gauge : inflightGauges_) total += gauge->value();
  return total;
}

void QueryServer::countRequest(const char* op) {
  metrics_.counter(obs::labeled("dsud_server_requests_total", {{"op", op}}))
      .inc();
}

void QueryServer::start() {
  if (started_) return;
  started_ = true;
  listener_ = listenOn(config_.port, &port_);
  setNonBlocking(listener_.fd());
  httpListener_ = listenOn(config_.httpPort, &httpPort_);
  setNonBlocking(httpListener_.fd());
  loop_.add(listener_.fd(), EPOLLIN, [this](std::uint32_t) { acceptClients(); });
  loop_.add(httpListener_.fd(), EPOLLIN, [this](std::uint32_t) { acceptHttp(); });
  pool_ = std::make_unique<ThreadPool>(std::max<std::size_t>(config_.workers, 1));
}

void QueryServer::run() {
  start();
  loop_.run();
}

void QueryServer::stop() { loop_.stop(); }

void QueryServer::requestDrain() {
  loop_.post([this] { beginDrain(); });
}

// ---------------------------------------------------------------------------
// Accept paths

void QueryServer::acceptClients() {
  for (;;) {
    const int fd = ::accept4(listener_.fd(), nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;  // transient accept failure; the listener stays registered
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    const std::uint64_t connId = nextConnId_++;
    auto conn = std::make_unique<Connection>(
        connId, Socket(fd), config_.maxLineBytes, config_.maxOutboxBytes);
    conn->setLineHandler(
        [this, connId](std::string_view line) { handleLine(connId, line); });
    conn->setOversizeHandler([this, connId] {
      countRequest("oversized");
      sendError(connId, "", ErrorCode::kOversized,
                "request line exceeds " +
                    std::to_string(config_.maxLineBytes) + " bytes");
    });
    loop_.add(fd, EPOLLIN, [this, connId](std::uint32_t events) {
      handleClientEvent(connId, events);
    });
    conns_.emplace(connId, std::move(conn));
    connectionsGauge_->set(static_cast<double>(conns_.size()));
  }
}

void QueryServer::acceptHttp() {
  for (;;) {
    const int fd =
        ::accept4(httpListener_.fd(), nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;
    }
    const std::uint64_t connId = nextConnId_++;
    auto conn = std::make_unique<HttpConnection>(connId, Socket(fd));
    loop_.add(fd, EPOLLIN, [this, connId](std::uint32_t events) {
      handleHttpEvent(connId, events);
    });
    httpConns_.emplace(connId, std::move(conn));
  }
}

// ---------------------------------------------------------------------------
// Client connections

void QueryServer::handleClientEvent(std::uint64_t connId,
                                    std::uint32_t events) {
  const auto it = conns_.find(connId);
  if (it == conns_.end()) return;
  Connection& conn = *it->second;
  if (conn.defunct()) return;  // close already posted; ignore stale events
  if ((events & (EPOLLHUP | EPOLLERR)) != 0) {
    closeConnection(connId);
    return;
  }
  if ((events & EPOLLOUT) != 0 &&
      conn.onWritable() == Connection::IoResult::kClosed) {
    closeConnection(connId);
    return;
  }
  if ((events & EPOLLIN) != 0 &&
      conn.onReadable() == Connection::IoResult::kClosed) {
    closeConnection(connId);
    return;
  }
  // The line handler may itself have dropped the connection.
  const auto again = conns_.find(connId);
  if (again != conns_.end() && !again->second->defunct()) {
    updateInterest(*again->second);
  }
}

void QueryServer::updateInterest(Connection& conn) {
  loop_.modify(conn.fd(),
               EPOLLIN | (conn.wantsWrite() ? EPOLLOUT : 0u));
}

void QueryServer::dropConnection(std::uint64_t connId) {
  const auto it = conns_.find(connId);
  if (it == conns_.end() || it->second->defunct()) return;
  // This can run with the connection's own onReadable() frame on the stack
  // (line handler -> sendLine -> send() == kClosed), so never destroy the
  // Connection here: flag it so every handler skips it and defer the erase
  // until the dispatch loop has unwound.
  it->second->markDefunct();
  it->second->cancelAll();
  loop_.post([this, connId] { closeConnection(connId); });
}

void QueryServer::closeConnection(std::uint64_t connId) {
  const auto it = conns_.find(connId);
  if (it == conns_.end()) return;
  it->second->cancelAll();  // abandoned queries abort at their next round
  loop_.remove(it->second->fd());
  conns_.erase(it);
  connectionsGauge_->set(static_cast<double>(conns_.size()));
  if (draining_.load(std::memory_order_relaxed)) checkDrainDone();
}

void QueryServer::sendLine(std::uint64_t connId, const std::string& line) {
  const auto it = conns_.find(connId);
  if (it == conns_.end() || it->second->defunct()) {
    return;  // client went away; drop the response
  }
  if (it->second->send(line) == Connection::IoResult::kClosed) {
    dropConnection(connId);
    return;
  }
  updateInterest(*it->second);
}

void QueryServer::sendError(std::uint64_t connId, const std::string& requestId,
                            ErrorCode code, const std::string& message,
                            std::uint32_t retryAfterMs) {
  ErrorResponse response;
  response.id = requestId;
  response.code = code;
  response.message = message;
  response.retryAfterMs = retryAfterMs;
  sendLine(connId, encodeResponse(response));
}

void QueryServer::handleLine(std::uint64_t connId, std::string_view line) {
  if (line.empty()) return;  // blank keep-alive lines are fine
  Request request;
  try {
    request = decodeRequest(line);
  } catch (const ProtoError& error) {
    countRequest("invalid");
    sendError(connId, "", error.code(), error.what());
    return;
  }

  if (auto* query = std::get_if<QueryRequest>(&request)) {
    countRequest("query");
    handleQuery(connId, std::move(*query));
  } else if (std::holds_alternative<PingRequest>(request)) {
    countRequest("ping");
    sendLine(connId, encodeResponse(PongResponse{}));
  } else if (auto* cancel = std::get_if<CancelRequest>(&request)) {
    countRequest("cancel");
    const auto it = conns_.find(connId);
    if (it != conns_.end()) {
      if (auto token = it->second->findQuery(cancel->id)) {
        token->store(true, std::memory_order_relaxed);
      }
      // Unknown / already-finished ids are a no-op: the cancel raced the
      // query's terminal line, which the client is about to read anyway.
    }
  } else if (std::holds_alternative<StatsRequest>(request)) {
    countRequest("stats");
    StatsResponse stats;
    stats.active = admission_.active();
    stats.queued = admission_.queued();
    stats.admitted = admission_.admittedTotal();
    stats.shed = admission_.shedTotal();
    sendLine(connId, encodeResponse(stats));
  } else if (auto* admin = std::get_if<AdminRequest>(&request)) {
    countRequest("admin");
    handleAdmin(connId, std::move(*admin));
  }
}

void QueryServer::handleAdmin(std::uint64_t connId, AdminRequest request) {
  if (draining_.load(std::memory_order_relaxed)) {
    sendError(connId, request.id, ErrorCode::kUnavailable, "server draining");
    return;
  }
  const ServerConfig::AdminHooks& hooks = config_.admin;
  if (!hooks.addSite || !hooks.removeSite || !hooks.rebalance ||
      !hooks.topology) {
    sendError(connId, request.id, ErrorCode::kBadRequest,
              "admin operations are not wired on this server");
    return;
  }
  // Every action runs on a worker: mutating ops can stream the whole
  // database, and even the read-only snapshot serialises against a running
  // rebalance — neither may stall the event loop.
  try {
    pool_->submit([this, connId, request = std::move(request)]() mutable {
      runAdmin(connId, std::move(request));
    });
  } catch (const std::exception&) {
    sendError(connId, request.id, ErrorCode::kUnavailable,
              "server shutting down");
  }
}

void QueryServer::handleQuery(std::uint64_t connId, QueryRequest request) {
  if (draining_.load(std::memory_order_relaxed)) {
    sendError(connId, request.id, ErrorCode::kUnavailable, "server draining");
    return;
  }
  const auto it = conns_.find(connId);
  if (it == conns_.end() || it->second->defunct()) return;
  auto token = it->second->registerQuery(request.id);
  if (token == nullptr) {
    sendError(connId, request.id, ErrorCode::kBadRequest,
              "a query with this id is already in flight on this connection");
    return;
  }

  QueryJob job;
  job.connId = connId;
  job.cancel = std::move(token);
  job.request = std::move(request);

  const std::string tenant = job.request.tenant;
  const Priority priority = job.request.priority;
  const std::string requestId = job.request.id;

  AdmissionController::Shed shed;
  const auto outcome = admission_.submit(
      tenant, priority,
      [this, job = std::move(job)]() mutable {
        try {
          pool_->submit([this, job = std::move(job)]() mutable {
            runQuery(std::move(job));
          });
        } catch (const std::exception&) {
          // Shutdown race: a queued start dequeued by release() can land on
          // a pool whose destructor has already set stopping_.  Drop the
          // job and free its slot so the queue keeps draining instead of
          // the exception unwinding through release().
          admission_.release();
        }
      },
      &shed);
  if (outcome == AdmissionController::Outcome::kShed) {
    const auto conn = conns_.find(connId);
    if (conn != conns_.end()) conn->second->unregisterQuery(requestId);
    sendError(connId, requestId, shed.code, "load shed: " + shed.reason,
              shed.retryAfterMs);
  }
  // kAdmit / kQueue: the worker acks once execution actually begins.
}

// ---------------------------------------------------------------------------
// Worker side

QueryResult QueryServer::executeQuery(const QueryRequest& request,
                                      const QueryOptions& options,
                                      QueryId id) {
  if (request.k > 0) {
    TopKConfig config;
    config.k = request.k;
    config.floorQ = request.q;
    config.mask = request.mask;
    config.window = request.window;
    return engine_.run(config, options, id);
  }
  QueryConfig config;
  config.q = request.q;
  config.mask = request.mask;
  config.window = request.window;
  return engine_.run(request.algo, config, options, id);
}

void QueryServer::runQuery(QueryJob job) {
  const std::uint64_t connId = job.connId;
  const std::string requestId = job.request.id;

  // Cancelled while queued (disconnect or drain): never open a session.
  if (job.cancel->load(std::memory_order_relaxed)) {
    admission_.release();
    loop_.post([this, connId, requestId] {
      const auto it = conns_.find(connId);
      if (it != conns_.end()) it->second->unregisterQuery(requestId);
      sendError(connId, requestId, ErrorCode::kCancelled,
                "cancelled before execution");
      if (draining_.load(std::memory_order_relaxed)) checkDrainDone();
    });
    return;
  }

  const QueryId id = engine_.coordinator().nextQueryId();
  debugBegin(id, job.request);
  {
    AckResponse ack;
    ack.id = requestId;
    ack.query = id;
    std::string line = encodeResponse(ack);
    loop_.post([this, connId, line = std::move(line)] {
      sendLine(connId, line);
    });
  }

  QueryOptions options;
  options.cancel = job.cancel;
  options.traceCapacity = job.request.traceCapacity;
  options.fault.deadline = std::chrono::milliseconds(job.request.deadlineMs);
  options.fault.retry.maxAttempts = job.request.retries + 1;
  options.fault.onSiteFailure = job.request.degrade
                                    ? OnSiteFailure::kDegrade
                                    : OnSiteFailure::kFail;
  // With batching enabled, a share-eligible threshold query parks in the
  // engine's window so concurrent compatible queries share one descent;
  // answers still stream via options.progress.
  options.batching = config_.batching;
  // Streams one `answer` line; false once the request's limit is reached.
  auto seq = std::make_shared<std::uint64_t>(0);
  const auto streamAnswer = [this, connId, requestId, seq,
                             limit = job.request.limit](
                                const GlobalSkylineEntry& entry) {
    ++*seq;
    if (limit > 0 && *seq > limit) return false;
    std::string line = encodeResponse(AnswerResponse{requestId, *seq, entry});
    loop_.post([this, connId, line = std::move(line)] {
      sendLine(connId, line);
    });
    return true;
  };
  if (job.request.progressive) {
    options.progress = [streamAnswer](const GlobalSkylineEntry& entry,
                                      const ProgressPoint&) {
      streamAnswer(entry);
    };
  }

  std::string terminal;
  try {
    QueryResult result = executeQuery(job.request, options, id);
    // Top-k builds its answer list only at completion (entries can be
    // displaced while the queue drains), so nothing flows through the
    // progress callback mid-run; stream the final list here so progressive
    // clients see a uniform answer stream for every query shape.
    if (job.request.progressive && *seq == 0) {
      for (const GlobalSkylineEntry& entry : result.skyline) {
        if (!streamAnswer(entry)) break;
      }
    }
    DoneResponse done;
    done.id = requestId;
    done.answers = result.skyline.size();
    done.degraded = result.degraded;
    done.excluded = result.excludedSites;
    done.stats = result.stats;
    // The profile is always collected; the flag only gates the wire block,
    // so answers stay bit-identical with profiling on or off.
    if (job.request.profile) done.profile = result.profile;
    terminal = encodeResponse(done);
    debugFinish(id, "done", &result);
  } catch (const QueryCancelled&) {
    terminal = encodeResponse(ErrorResponse{
        requestId, ErrorCode::kCancelled, "query cancelled", 0});
    debugFinish(id, "cancelled", nullptr);
  } catch (const NetError& error) {
    // Site unreachable / transport failure: the cluster, not the request.
    terminal = encodeResponse(ErrorResponse{
        requestId, ErrorCode::kUnavailable, error.what(), 0});
    debugFinish(id, "error", nullptr);
  } catch (const std::exception& error) {
    terminal = encodeResponse(ErrorResponse{
        requestId, ErrorCode::kInternal, error.what(), 0});
    debugFinish(id, "error", nullptr);
  }

  // Free the admission slot before the terminal line goes out: by the time
  // the client reads `done`, a follow-up query cannot be shed by the slot
  // its predecessor still holds.  release() may start a queued job on this
  // very thread — that is fine, the terminal post below is already built.
  admission_.release();
  loop_.post([this, connId, requestId, terminal = std::move(terminal)] {
    const auto it = conns_.find(connId);
    if (it != conns_.end()) it->second->unregisterQuery(requestId);
    sendLine(connId, terminal);
    if (draining_.load(std::memory_order_relaxed)) checkDrainDone();
  });
  loop_.wake();
}

void QueryServer::runAdmin(std::uint64_t connId, AdminRequest request) {
  std::string line;
  try {
    AdminResponse response;
    response.id = request.id;
    switch (request.action) {
      case AdminAction::kAddSite:
        response.site = config_.admin.addSite();
        break;
      case AdminAction::kRemoveSite:
        config_.admin.removeSite(request.site);
        break;
      case AdminAction::kRebalance:
        config_.admin.rebalance();
        break;
      case AdminAction::kTopology:
        break;
    }
    const Topology topology = config_.admin.topology();
    response.epoch = topology.epoch();
    response.members = topology.members();
    response.partitions = topology.partitions();
    line = encodeResponse(response);
  } catch (const std::out_of_range& error) {
    // Unknown member / last-member removal: the request, not the cluster.
    line = encodeResponse(
        ErrorResponse{request.id, ErrorCode::kBadRequest, error.what(), 0});
  } catch (const std::invalid_argument& error) {
    line = encodeResponse(
        ErrorResponse{request.id, ErrorCode::kBadRequest, error.what(), 0});
  } catch (const std::exception& error) {
    line = encodeResponse(
        ErrorResponse{request.id, ErrorCode::kInternal, error.what(), 0});
  }
  loop_.post([this, connId, line = std::move(line)] {
    sendLine(connId, line);
  });
  loop_.wake();
}

// ---------------------------------------------------------------------------
// HTTP endpoints

void QueryServer::handleHttpEvent(std::uint64_t connId, std::uint32_t events) {
  const auto it = httpConns_.find(connId);
  if (it == httpConns_.end()) return;
  HttpConnection& conn = *it->second;
  if ((events & (EPOLLHUP | EPOLLERR)) != 0) {
    closeHttp(connId);
    return;
  }
  const HttpConnection::Handler handler =
      [this](std::string_view method, std::string_view path) {
        return httpRespond(method, path);
      };
  if ((events & EPOLLIN) != 0 &&
      conn.onReadable(handler) == HttpConnection::IoResult::kClosed) {
    closeHttp(connId);
    return;
  }
  if ((events & EPOLLOUT) != 0 &&
      conn.onWritable() == HttpConnection::IoResult::kClosed) {
    closeHttp(connId);
    return;
  }
  if (conn.wantsWrite()) loop_.modify(conn.fd(), EPOLLIN | EPOLLOUT);
}

void QueryServer::closeHttp(std::uint64_t connId) {
  const auto it = httpConns_.find(connId);
  if (it == httpConns_.end()) return;
  loop_.remove(it->second->fd());
  httpConns_.erase(it);
}

std::string QueryServer::httpRespond(std::string_view method,
                                     std::string_view path) {
  if (method != "GET") {
    return makeHttpResponse(405, "Method Not Allowed", "text/plain",
                            "method not allowed\n");
  }
  if (path == "/metrics") {
    return makeHttpResponse(200, "OK", obs::kPrometheusContentType,
                            obs::metricsToPrometheus(metrics_.snapshot()));
  }
  if (path == "/healthz") {
    if (draining_.load(std::memory_order_relaxed)) {
      return makeHttpResponse(503, "Service Unavailable", "text/plain",
                              "draining\n");
    }
    return makeHttpResponse(200, "OK", "text/plain", "ok\n");
  }
  if (path == "/debug/queries") {
    return makeHttpResponse(200, "OK", "application/json",
                            debugQueriesJson() + "\n");
  }
  if (path == "/debug/topology") {
    return makeHttpResponse(200, "OK", "application/json",
                            debugTopologyJson() + "\n");
  }
  if (path == "/debug/cache") {
    return makeHttpResponse(200, "OK", "application/json",
                            debugCacheJson() + "\n");
  }
  if (path == "/debug/recorder") {
    return makeHttpResponse(200, "OK", "application/json",
                            debugRecorderJson() + "\n");
  }
  return makeHttpResponse(404, "Not Found", "text/plain", "not found\n");
}

// ---------------------------------------------------------------------------
// /debug introspection

void QueryServer::debugBegin(QueryId id, const QueryRequest& request) {
  QueryDebugRow row;
  row.query = id;
  row.requestId = request.id;
  row.tenant = request.tenant;
  row.algo = request.k > 0 ? "topk" : algoName(request.algo);
  row.startNs = obs::wallClockNs();
  std::lock_guard lock(debugMutex_);
  runningQueries_.emplace(id, std::move(row));
}

void QueryServer::debugFinish(QueryId id, const char* state,
                              const QueryResult* result) {
  std::lock_guard lock(debugMutex_);
  const auto it = runningQueries_.find(id);
  if (it == runningQueries_.end()) return;
  QueryDebugRow row = std::move(it->second);
  runningQueries_.erase(it);
  row.state = state;
  if (result != nullptr) {
    row.answers = result->skyline.size();
    row.seconds = result->stats.seconds;
    row.degraded = result->degraded;
    row.cache = result->profile.cache;
    row.batch = result->profile.batch;
    row.failovers = result->profile.failovers;
  } else {
    row.seconds =
        static_cast<double>(obs::wallClockNs() - row.startNs) / 1e9;
  }
  recentQueries_.push_front(std::move(row));
  while (recentQueries_.size() > kRecentQueries) recentQueries_.pop_back();
}

std::string QueryServer::debugQueriesJson() {
  const std::uint64_t nowNs = obs::wallClockNs();
  const auto debugRowToJson = [nowNs](const QueryDebugRow& row) {
    Json entry = Json::object();
    entry.set("query", row.query);
    entry.set("id", row.requestId);
    entry.set("tenant", row.tenant);
    entry.set("algo", row.algo);
    entry.set("state", row.state);
    entry.set("answers", row.answers);
    const bool running = row.state == "running";
    entry.set("seconds",
              running && nowNs > row.startNs
                  ? static_cast<double>(nowNs - row.startNs) / 1e9
                  : row.seconds);
    entry.set("degraded", row.degraded);
    if (!row.cache.empty()) entry.set("cache", row.cache);
    if (!row.batch.empty()) entry.set("batch", row.batch);
    entry.set("failovers", row.failovers);
    return entry;
  };
  Json doc = Json::object();
  Json running = Json::array();
  Json recent = Json::array();
  {
    std::lock_guard lock(debugMutex_);
    for (const auto& [id, row] : runningQueries_) {
      running.push(debugRowToJson(row));
    }
    for (const QueryDebugRow& row : recentQueries_) {
      recent.push(debugRowToJson(row));
    }
  }
  doc.set("running", std::move(running));
  doc.set("recent", std::move(recent));
  return doc.dump();
}

std::string QueryServer::debugTopologyJson() {
  const auto view = engine_.coordinator().view();
  Json doc = Json::object();
  doc.set("epoch", view->epoch);
  Json partitions = Json::array();
  std::size_t open = 0;
  for (const ReplicaChain& chain : view->partitions) {
    Json entry = Json::object();
    entry.set("partition", chain.partition);
    entry.set("replicas", chain.replicas.size());
    const SiteHealth::State state = partitionBreaker(chain);
    const char* name = state == SiteHealth::State::kOpen       ? "open"
                       : state == SiteHealth::State::kHalfOpen ? "half_open"
                                                               : "closed";
    entry.set("breaker", name);
    if (state == SiteHealth::State::kOpen) ++open;
    partitions.push(std::move(entry));
  }
  doc.set("partitions", std::move(partitions));
  doc.set("breakers_open", open);
  return doc.dump();
}

std::string QueryServer::debugCacheJson() {
  Json doc = Json::object();
  doc.set("enabled", cache_ != nullptr);
  doc.set("capacity", cache_ != nullptr ? cache_->capacity() : 0);
  doc.set("size", cache_ != nullptr ? cache_->size() : 0);
  doc.set("hits", metrics_.counter("dsud_cache_hits_total").value());
  doc.set("misses", metrics_.counter("dsud_cache_misses_total").value());
  doc.set("batch_flushes",
          metrics_.counter("dsud_batch_flushes_total").value());
  doc.set("batch_merged", metrics_.counter("dsud_batch_merged_total").value());
  return doc.dump();
}

std::string QueryServer::debugRecorderJson() {
  const obs::FlightRecorder& recorder = obs::flightRecorder();
  Json doc = Json::object();
  doc.set("capacity", recorder.capacity());
  doc.set("recorded", recorder.recorded());
  doc.set("dumps", recorder.dumps());
  doc.set("window_s", recorder.windowSeconds());
  doc.set("dump_dir", recorder.dumpDir());
  Json events = Json::array();
  for (const std::string& line : recorder.snapshot()) {
    // Each retained NDJSON line re-parsed: the /debug surface serves one
    // well-formed JSON document, not raw lines.
    events.push(Json::parse(line));
  }
  doc.set("events", std::move(events));
  return doc.dump();
}

// ---------------------------------------------------------------------------
// Graceful drain

void QueryServer::beginDrain() {
  if (draining_.load(std::memory_order_relaxed)) return;
  draining_.store(true, std::memory_order_relaxed);
  // Stop accepting new query connections; the HTTP port stays up so
  // /healthz can report 503 while in-flight work finishes.
  if (listener_.valid()) {
    loop_.remove(listener_.fd());
    listener_.close();
  }
  checkDrainDone();
  if (!drainTimersArmed_) {
    drainTimersArmed_ = true;
    loop_.runAfter(config_.drainSeconds, [this] {
      // Grace period over: abort whatever is still running or queued.
      for (auto& [id, conn] : conns_) conn->cancelAll();
      // Cancelled queries unwind at their next round boundary; give them a
      // moment, then stop regardless (the destructor joins the workers).
      loop_.runAfter(1.0, [this] { loop_.stop(); });
    });
  }
}

void QueryServer::checkDrainDone() {
  if (!draining_.load(std::memory_order_relaxed)) return;
  if (admission_.active() == 0 && admission_.queued() == 0) {
    loop_.stop();
  }
}

}  // namespace dsud::server
