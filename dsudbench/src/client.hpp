// NDJSON client side of the benchmark: a few connections to one daemon,
// drained by a single reader thread that stamps and joins every response
// line (ack / answer / done / error) into its QueryRecord.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_math.hpp"
#include "net/wire.hpp"

namespace dsudbench {

class ClientFleet {
 public:
  /// Called on the reader thread after a query's terminal line; a closed
  /// loop refills its connection from here.
  using OnTerminal = std::function<void(std::size_t conn, QueryRecord& record)>;

  ClientFleet(std::uint16_t port, std::size_t connections);
  ~ClientFleet();
  ClientFleet(const ClientFleet&) = delete;
  ClientFleet& operator=(const ClientFleet&) = delete;

  std::size_t size() const { return conns_.size(); }

  /// Registers `record` and writes `line` on connection `conn`; stamps
  /// `record.sent`.  Safe from any thread, including inside OnTerminal.
  void send(std::size_t conn, QueryRecord& record, const std::string& line);

  /// Sends a ping and blocks until its pong arrives.
  void ping();

  void setOnTerminal(OnTerminal fn);

  /// Blocks until no query is outstanding and no OnTerminal call is running;
  /// throws after `timeoutS`.
  void drain(double timeoutS);

 private:
  struct Conn {
    dsud::Socket socket;
    std::mutex writeMutex;  // guards writes on `socket`
    std::string buffer;     // reader thread only
  };

  void writeLine(Conn& conn, const std::string& line);
  void readLoop();

  std::vector<std::unique_ptr<Conn>> conns_;
  std::mutex mutex_;  // guards joiner_, onTerminal_, callbacks_, error_
  std::condition_variable changed_;
  ResponseJoiner joiner_;
  OnTerminal onTerminal_;
  /// OnTerminal calls in progress: drain() waits for them too, so a caller
  /// never returns while the reader still runs its callback (or refills).
  std::size_t callbacks_ = 0;
  std::string error_;  // first reader failure, rethrown by drain/ping
  bool stop_ = false;
  std::thread reader_;  // last: joined before the members it reads go away
};

}  // namespace dsudbench
