// TCP implementations of the transport abstraction.
//
// A `TcpSiteServer` runs on the site side: it accepts one coordinator
// connection and serves request frames through the registered handler until
// the peer disconnects or `stop()` is called.  A `TcpClientChannel` is the
// coordinator endpoint.  Both speak the framing defined in wire.hpp, so the
// protocol layer is byte-identical to the in-process transport.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <stdexcept>
#include <utility>

#include "net/transport.hpp"
#include "net/wire.hpp"

namespace dsud {

/// Coordinator-side TCP channel to one site.
class TcpClientChannel final : public ClientChannel {
 public:
  /// Connects to a site server on 127.0.0.1:`port` with TCP_NODELAY set;
  /// `options` bounds the connect.  A per-call deadline set later via
  /// setDeadline maps onto SO_RCVTIMEO/SO_SNDTIMEO.
  explicit TcpClientChannel(std::uint16_t port, TcpSocketOptions options = {})
      : socket_(connectTo(port, options.connectTimeout)) {}

  Frame call(const Frame& request) override {
    send(request);
    return receive();
  }

  /// Writes the request; `receive` reads the oldest unanswered response.
  /// The site server answers frames in order, so requests may pipeline.
  void send(const Frame& request) override {
    poisonOnTimeout([&] { writeFrame(socket_, request); });
    sentBytes_.push_back(request.size());
  }

  Frame receive() override {
    if (sentBytes_.empty()) {
      throw std::logic_error("TcpClientChannel: receive without send");
    }
    Frame response;
    poisonOnTimeout([&] { response = readFrame(socket_); });
    // Real sockets carry the u32 length prefix in each direction; without
    // this, bytesShipped undercounts by kFrameHeaderBytes per frame.
    accountFrames(sentBytes_.front(), response.size(), kFrameHeaderBytes,
                  kFrameHeaderBytes);
    sentBytes_.pop_front();
    return response;
  }

  void close() override { socket_.close(); }

 protected:
  void onDeadlineChanged() override { setSocketTimeouts(socket_, deadline()); }

 private:
  template <typename Io>
  void poisonOnTimeout(Io&& io) {
    try {
      io();
    } catch (const NetTimeout&) {
      // The stream is desynchronised (the late reply could be misread as a
      // later request's response); poison the connection so every further
      // request fails loudly instead of silently mixing frames.
      socket_.close();
      sentBytes_.clear();
      throw;
    }
  }

  Socket socket_;
  std::deque<std::size_t> sentBytes_;  ///< payloads awaiting a response
};

/// Site-side server: one listener, one coordinator connection.
class TcpSiteServer {
 public:
  /// Binds 127.0.0.1:`port` (0 = ephemeral).  Call `port()` for the bound
  /// port and `serve()` (typically on a dedicated thread) to start.
  explicit TcpSiteServer(FrameHandler handler, std::uint16_t port = 0);

  std::uint16_t port() const noexcept { return port_; }

  /// Accepts one connection and serves frames until the peer disconnects.
  /// Returns the number of requests served.
  std::size_t serve();

  /// Makes `serve` return after the in-flight request (by closing the
  /// listener; the peer disconnect ends the loop).
  void stop() noexcept { stopped_.store(true, std::memory_order_relaxed); }

 private:
  FrameHandler handler_;
  Socket listener_;
  std::uint16_t port_ = 0;
  std::atomic<bool> stopped_{false};
};

}  // namespace dsud
