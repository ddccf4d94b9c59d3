// dsudd's core: a persistent query-serving daemon over one QueryEngine.
//
// One event-loop thread owns two listening sockets (the NDJSON query port
// and the HTTP port for /metrics, /healthz, and the /debug/* introspection
// endpoints) and every accepted connection;
// a fixed worker pool executes admitted queries as ordinary QueryEngine
// sessions.  The two worlds meet only through EventLoop::post — workers
// never touch sockets, the loop thread never blocks on a query:
//
//     client line ──loop──> decode ──> AdmissionController::submit
//                                 │
//             kShed ──loop──> `error` (overloaded/unavailable + retry_after)
//             kAdmit/kQueue ──> worker: ack, engine.run(id), answers
//                                 │  (progress callback posts `answer` lines)
//                                 └──loop──> terminal `done` / `error`
//
// Cancellation is cooperative: every query carries a shared flag
// (QueryOptions::cancel) flipped by a `cancel` op, by client disconnect, or
// by the drain deadline; the engine aborts at its next round boundary.
//
// Graceful shutdown (requestDrain): the query listener closes, /healthz
// flips to 503, in-flight and queued queries finish normally until the
// drain deadline, then their cancel flags flip and a backstop timer stops
// the loop regardless.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/thread_pool.hpp"
#include "core/query_engine.hpp"
#include "core/topology.hpp"
#include "core/result_cache.hpp"
#include "server/admission.hpp"
#include "server/connection.hpp"
#include "server/event_loop.hpp"
#include "server/http.hpp"
#include "server/proto.hpp"

namespace dsud::server {

struct ServerConfig {
  std::uint16_t port = 0;      ///< query port (0 = pick a free one)
  std::uint16_t httpPort = 0;  ///< /metrics, /healthz, /debug/* (0 = pick)
  std::size_t workers = 4;     ///< query-executing worker threads
  AdmissionConfig admission;
  double drainSeconds = 5.0;  ///< requestDrain(): grace before cancelling
  std::size_t maxLineBytes = 1u << 20;    ///< request-line cap (1 MiB)
  std::size_t maxOutboxBytes = 8u << 20;  ///< per-connection write buffer cap
  /// Result-cache entries kept across queries (0 disables the cache).  The
  /// cache is keyed by dataset version, so Sec. 5.4 maintenance retires
  /// stale answers automatically.
  std::size_t cacheCapacity = 256;
  /// Shared-work batching applied to every threshold query the server runs
  /// (disabled by default; dsudd's --batch-window-ms turns it on).
  BatchingOptions batching;
  /// Elastic-cluster admin surface behind `{"op":"admin"}`.  The wiring
  /// layer (dsudd) points these at its InProcCluster; when unset, admin
  /// requests are rejected with `bad_request`.  Mutating hooks may block for
  /// the length of a rebalance — the server always calls them from a worker
  /// thread, never from the event loop.
  struct AdminHooks {
    std::function<SiteId()> addSite;
    std::function<void(SiteId)> removeSite;
    std::function<void()> rebalance;
    std::function<Topology()> topology;
  };
  AdminHooks admin;
};

class QueryServer {
 public:
  /// The engine (and its coordinator) and the registry must outlive the
  /// server.  The registry is the one scraped by /metrics — pass the same
  /// one the coordinator uses so engine and server series share a page.
  QueryServer(QueryEngine& engine, obs::MetricsRegistry& metrics,
              ServerConfig config);
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Binds both listeners and starts the worker pool.  After start() the
  /// bound ports are known; the loop is not yet running.
  void start();

  /// Runs the event loop on the calling thread until stop() or a completed
  /// drain.  start() is implied if not yet called.
  void run();

  /// Begins a graceful drain (idempotent; any thread): stop accepting,
  /// finish in-flight work within `drainSeconds`, then cancel stragglers
  /// and stop.  run() returns once the drain completes.
  void requestDrain();

  /// Stops the loop without draining (any thread).  In-flight queries are
  /// cancelled and joined by the destructor.
  void stop();

  std::uint16_t port() const noexcept { return port_; }
  std::uint16_t httpPort() const noexcept { return httpPort_; }

  EventLoop& loop() noexcept { return loop_; }
  AdmissionController& admission() noexcept { return admission_; }
  bool draining() const noexcept { return draining_.load(std::memory_order_relaxed); }

 private:
  /// Everything one admitted query needs, copyable into the worker task.
  struct QueryJob {
    std::uint64_t connId = 0;
    QueryRequest request;
    std::shared_ptr<std::atomic<bool>> cancel;
  };

  void acceptClients();
  void acceptHttp();
  void handleClientEvent(std::uint64_t connId, std::uint32_t events);
  void handleHttpEvent(std::uint64_t connId, std::uint32_t events);
  void handleLine(std::uint64_t connId, std::string_view line);
  void handleQuery(std::uint64_t connId, QueryRequest request);
  void handleAdmin(std::uint64_t connId, AdminRequest request);
  void runQuery(QueryJob job);   ///< worker thread
  void runAdmin(std::uint64_t connId, AdminRequest request);  ///< worker
  QueryResult executeQuery(const QueryRequest& request,
                           const QueryOptions& options, QueryId id);

  /// Queues `line` on the connection (dropped when it is gone) and keeps
  /// the epoll write interest in sync.  Loop thread only.
  void sendLine(std::uint64_t connId, const std::string& line);
  void sendError(std::uint64_t connId, const std::string& requestId,
                 ErrorCode code, const std::string& message,
                 std::uint32_t retryAfterMs = 0);
  void updateInterest(Connection& conn);
  /// Marks the connection defunct and posts the real close.  Safe from any
  /// loop-thread frame, including inside the connection's own IO callback.
  void dropConnection(std::uint64_t connId);
  /// Destroys the connection.  Only from frames where no handler of this
  /// connection is on the stack (event dispatch top level or a posted task).
  void closeConnection(std::uint64_t connId);
  void closeHttp(std::uint64_t connId);

  std::string httpRespond(std::string_view method, std::string_view path);
  void countRequest(const char* op);

  // --- /debug introspection --------------------------------------------------

  /// One row of /debug/queries: in-flight and recently finished queries.
  /// Workers write rows (debugBegin / debugFinish), the loop thread renders
  /// them; both sides serialise on debugMutex_.
  struct QueryDebugRow {
    QueryId query = kNoQuery;
    std::string requestId;
    std::string tenant;
    std::string algo;
    std::string state = "running";  ///< running | done | error | cancelled
    std::uint64_t answers = 0;
    double seconds = 0.0;
    bool degraded = false;
    std::string cache;  ///< profile disposition, set once finished
    std::string batch;
    std::uint64_t failovers = 0;
    std::uint64_t startNs = 0;  ///< wall clock; ages running queries
  };

  void debugBegin(QueryId id, const QueryRequest& request);  ///< worker
  void debugFinish(QueryId id, const char* state,
                   const QueryResult* result);  ///< worker

  std::string debugQueriesJson();
  std::string debugTopologyJson();
  std::string debugCacheJson();
  std::string debugRecorderJson();

  void beginDrain();       ///< loop thread
  void checkDrainDone();   ///< loop thread
  double breakerOpenFraction();
  double engineInflight();

  QueryEngine& engine_;
  obs::MetricsRegistry& metrics_;
  ServerConfig config_;

  /// Server-owned global-skyline result cache, attached to the engine for
  /// the server's lifetime (detached in the destructor after the workers
  /// join).  Null when cacheCapacity == 0.
  std::unique_ptr<ResultCache> cache_;

  EventLoop loop_;
  AdmissionController admission_;

  Socket listener_;
  Socket httpListener_;
  std::uint16_t port_ = 0;
  std::uint16_t httpPort_ = 0;
  bool started_ = false;

  std::uint64_t nextConnId_ = 1;
  std::map<std::uint64_t, std::unique_ptr<Connection>> conns_;
  std::map<std::uint64_t, std::unique_ptr<HttpConnection>> httpConns_;

  std::atomic<bool> draining_{false};
  bool drainTimersArmed_ = false;

  /// /debug/queries state: running rows keyed by engine id plus a bounded
  /// ring of finished rows, newest first.
  static constexpr std::size_t kRecentQueries = 64;
  mutable std::mutex debugMutex_;
  std::map<QueryId, QueryDebugRow> runningQueries_;
  std::deque<QueryDebugRow> recentQueries_;

  obs::Gauge* connectionsGauge_ = nullptr;
  obs::Gauge* inflightGauges_[4] = {nullptr, nullptr, nullptr, nullptr};

  // Destroyed first (reverse member order): joining the workers before the
  // loop, connections, and admission state go away keeps their posts safe.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace dsud::server
