#include "client.hpp"

#include <poll.h>
#include <sys/socket.h>

#include <chrono>
#include <stdexcept>

#include "server/proto.hpp"
#include "spans.hpp"

namespace dsudbench {

ClientFleet::ClientFleet(std::uint16_t port, std::size_t connections) {
  for (std::size_t i = 0; i < connections; ++i) {
    auto conn = std::make_unique<Conn>();
    conn->socket = dsud::connectTo(port, std::chrono::milliseconds{5000});
    conns_.push_back(std::move(conn));
  }
  reader_ = std::thread([this] { readLoop(); });
}

ClientFleet::~ClientFleet() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  reader_.join();
}

void ClientFleet::writeLine(Conn& conn, const std::string& line) {
  std::lock_guard lock(conn.writeMutex);
  std::size_t off = 0;
  while (off < line.size()) {
    const auto n = ::send(conn.socket.fd(), line.data() + off, line.size() - off,
                          MSG_NOSIGNAL);
    if (n <= 0) throw dsud::NetError("client send failed");
    off += static_cast<std::size_t>(n);
  }
}

void ClientFleet::send(std::size_t conn, QueryRecord& record,
                       const std::string& line) {
  {
    std::lock_guard lock(mutex_);
    joiner_.expect(&record);
  }
  record.sent = nowNs();
  if (record.origin == 0) record.origin = record.sent;
  writeLine(*conns_[conn], line + "\n");
}

void ClientFleet::ping() {
  std::unique_lock lock(mutex_);
  const std::uint64_t before = joiner_.pongs();
  lock.unlock();
  writeLine(*conns_[0], dsud::server::encodeRequest(dsud::server::PingRequest{}) + "\n");
  lock.lock();
  if (!changed_.wait_for(lock, std::chrono::seconds(30), [&] {
        return joiner_.pongs() > before || !error_.empty();
      })) {
    throw std::runtime_error("no pong within 30 s");
  }
  if (!error_.empty()) throw std::runtime_error(error_);
}

void ClientFleet::setOnTerminal(OnTerminal fn) {
  std::lock_guard lock(mutex_);
  onTerminal_ = std::move(fn);
}

void ClientFleet::drain(double timeoutS) {
  std::unique_lock lock(mutex_);
  if (!changed_.wait_for(lock, std::chrono::duration<double>(timeoutS), [&] {
        return (joiner_.pending() == 0 && callbacks_ == 0) || !error_.empty();
      })) {
    throw std::runtime_error("queries still outstanding after drain timeout");
  }
  if (!error_.empty()) throw std::runtime_error(error_);
}

void ClientFleet::readLoop() {
  std::vector<pollfd> fds;
  for (const auto& c : conns_) fds.push_back({c->socket.fd(), POLLIN, 0});
  char chunk[1 << 16];
  for (;;) {
    {
      std::lock_guard lock(mutex_);
      if (stop_ || !error_.empty()) return;
    }
    if (::poll(fds.data(), fds.size(), 20) < 0) continue;
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Conn& conn = *conns_[i];
      const auto n = ::recv(conn.socket.fd(), chunk, sizeof chunk, 0);
      if (n <= 0) {
        std::lock_guard lock(mutex_);
        error_ = "daemon closed a client connection";
        changed_.notify_all();
        return;
      }
      conn.buffer.append(chunk, static_cast<std::size_t>(n));
      std::size_t start = 0;
      for (std::size_t nl; (nl = conn.buffer.find('\n', start)) != std::string::npos;
           start = nl + 1) {
        const std::string_view line(conn.buffer.data() + start, nl - start);
        QueryRecord* terminal = nullptr;
        OnTerminal onTerminal;
        {
          std::lock_guard lock(mutex_);
          try {
            terminal = joiner_.onLine(line, nowNs());
          } catch (const std::exception& e) {
            error_ = std::string("undecodable response line: ") + e.what();
            changed_.notify_all();
            return;
          }
          if (terminal != nullptr && onTerminal_) {
            onTerminal = onTerminal_;
            ++callbacks_;
          }
          changed_.notify_all();
        }
        if (onTerminal) {
          std::string failure;
          try {
            onTerminal(i, *terminal);
          } catch (const std::exception& e) {
            failure = std::string("closed-loop refill failed: ") + e.what();
          }
          std::lock_guard lock(mutex_);
          --callbacks_;
          if (!failure.empty()) error_ = failure;
          changed_.notify_all();
          if (!error_.empty()) return;
        }
      }
      conn.buffer.erase(0, start);
    }
  }
}

}  // namespace dsudbench
