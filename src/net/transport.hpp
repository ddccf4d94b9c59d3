// Transport abstraction between the coordinator and the local sites.
//
// Every coordinator→site message receives exactly one reply, in order.  A
// `ClientChannel` is the coordinator's endpoint of one such link; besides the
// blocking `call` it offers a split-phase `send`/`receive`, so one query can
// have a request in flight on every site's link at once and wait out their
// round trips together.  Two implementations exist:
//
//   * InProcChannel  — deterministic, single-threaded loopback used by the
//                      benchmarks (the paper's metric, tuples shipped, is
//                      transport-independent);
//   * TcpClientChannel / TcpSiteServer — the same frames over real TCP
//                      sockets, wired into a cluster by TcpCluster
//                      (core/cluster.hpp).
//
// Frames are opaque byte vectors; the protocol layer (src/core/protocol.hpp)
// defines their contents.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "obs/metrics.hpp"

namespace dsud {

class BandwidthMeter;
class QueryUsage;
using SiteId = std::uint32_t;  // = common/dataset.hpp's SiteId (checked there)

using Frame = std::vector<std::byte>;

/// Handler invoked on the site side for every incoming request frame;
/// returns the response frame.
using FrameHandler = std::function<Frame(const Frame&)>;

/// Coordinator-side endpoint of a channel to one site.
///
/// Channels own the *wire-level* accounting: after `bindAccounting`, every
/// `call` reports per-site frame and byte counters to the metrics registry
/// and its framing overhead (bytes on the wire beyond the payloads the RPC
/// stub already meters) to the BandwidthMeter.  Unbound channels account
/// nothing, preserving the zero-dependency construction the tests use.
class ClientChannel {
 public:
  virtual ~ClientChannel() = default;

  /// Sends one request and blocks until its response arrives.
  virtual Frame call(const Frame& request) = 0;

  /// Split-phase `call`: `send` issues the request, `receive` blocks until
  /// its response arrives.  At most one request is in flight per channel,
  /// and each `send` is paired with one `receive`.  The default parks the
  /// request and runs `call` at receive, so a channel or decorator that
  /// overrides only `call` stays correct and does its work exactly when
  /// the caller consumes the response, as a blocking call would.
  virtual void send(const Frame& request);
  virtual Frame receive();

  /// Releases the underlying resources; further calls are invalid.
  virtual void close() {}

  /// Enables wire accounting for this channel's site.  Either sink may be
  /// null.  Call before the first `call`; not thread-safe against it.
  void bindAccounting(SiteId site, BandwidthMeter* meter,
                      obs::MetricsRegistry* metrics);

  /// Attributes this channel's framing overhead to a per-query usage scope
  /// (null detaches).  Thread-safety contract: a channel is used by one
  /// caller at a time (ChannelPool leases are exclusive), so set the scope
  /// while holding the lease, before the request, and clear it before
  /// releasing.
  /// Virtual so decorators (net/chaos.hpp) can forward it to the channel
  /// that actually does the accounting.
  virtual void setUsageScope(QueryUsage* scope) noexcept { scope_ = scope; }

  /// Per-call deadline: a `call` issued after this takes effect must fail
  /// with NetTimeout instead of blocking past the deadline (0 = none, the
  /// default).  Same leasing contract as setUsageScope — set while holding
  /// the lease; the lease clears it on release.
  void setDeadline(std::chrono::milliseconds deadline) {
    if (deadline == deadline_) return;
    deadline_ = deadline;
    onDeadlineChanged();
  }
  std::chrono::milliseconds deadline() const noexcept { return deadline_; }

 protected:
  /// Implementations call this once per round trip with the payload sizes
  /// and the transport's own framing overhead in each direction.
  void accountFrames(std::size_t payloadOut, std::size_t payloadIn,
                     std::size_t overheadOut, std::size_t overheadIn);

  /// Hook invoked when setDeadline changes the deadline — e.g. the TCP
  /// channel pushes it into SO_RCVTIMEO/SO_SNDTIMEO, a decorator forwards
  /// it to its inner channel.
  virtual void onDeadlineChanged() {}

 private:
  SiteId site_ = 0;
  BandwidthMeter* meter_ = nullptr;
  QueryUsage* scope_ = nullptr;
  std::chrono::milliseconds deadline_{0};
  obs::Counter* framesOut_ = nullptr;
  obs::Counter* framesIn_ = nullptr;
  obs::Counter* bytesOut_ = nullptr;
  obs::Counter* bytesIn_ = nullptr;
  std::optional<Frame> parked_;  ///< the default send's request
};

/// Socket options of a TcpClientChannel.  TCP_NODELAY is always on: the
/// request/response protocol sends one small frame per round trip, so
/// Nagle would cost tens of ms per RPC.
struct TcpSocketOptions {
  /// Bound on connect(2); 0 blocks indefinitely.  Expiry throws NetTimeout.
  std::chrono::milliseconds connectTimeout{0};
};

/// Transport sizing, carried on ClusterConfig.
struct TransportConfig {
  /// Channels per site for the in-process transport: enough that a handful
  /// of concurrent sessions rarely block on a lease, small enough to stay
  /// negligible per site.
  std::size_t inprocChannelsPerSite = 4;
};

}  // namespace dsud
