#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "net/bandwidth.hpp"
#include "net/inproc_transport.hpp"
#include "net/tcp_transport.hpp"
#include "net/wire.hpp"
#include "obs/metrics.hpp"

namespace dsud {
namespace {

Frame frameOf(std::initializer_list<int> bytes) {
  Frame f;
  for (int b : bytes) f.push_back(static_cast<std::byte>(b));
  return f;
}

// ---------------------------------------------------------------------------
// BandwidthMeter

TEST(BandwidthMeterTest, StartsAtZero) {
  BandwidthMeter meter(4);
  const UsageTotals t = meter.totals();
  EXPECT_EQ(t.tuples, 0u);
  EXPECT_EQ(t.bytes, 0u);
  EXPECT_EQ(t.calls, 0u);
}

TEST(BandwidthMeterTest, AccumulatesPerLink) {
  BandwidthMeter meter(2);
  meter.recordCall(0, 100, 50);
  meter.recordCall(0, 10, 5);
  meter.recordTuples(0, 3, 1);
  meter.recordCall(1, 7, 7);

  const LinkUsage l0 = meter.link(0);
  EXPECT_EQ(l0.bytesToSite, 110u);
  EXPECT_EQ(l0.bytesFromSite, 55u);
  EXPECT_EQ(l0.tuplesToSite, 3u);
  EXPECT_EQ(l0.tuplesFromSite, 1u);
  EXPECT_EQ(l0.calls, 2u);

  const UsageTotals t = meter.totals();
  EXPECT_EQ(t.tuples, 4u);
  EXPECT_EQ(t.bytes, 179u);
  EXPECT_EQ(t.calls, 3u);
}

TEST(BandwidthMeterTest, GrowsForUnseenSites) {
  BandwidthMeter meter;
  meter.recordTuples(9, 1, 0);
  EXPECT_EQ(meter.link(9).tuplesToSite, 1u);
  EXPECT_EQ(meter.link(3).tuplesToSite, 0u);  // untouched link reads zero
}

TEST(BandwidthMeterTest, ThreadSafeAccumulation) {
  BandwidthMeter meter(1);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&meter] {
      for (int i = 0; i < 10000; ++i) meter.recordTuples(0, 1, 0);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(meter.totals().tuples, 40000u);
}

// ---------------------------------------------------------------------------
// InProcChannel

TEST(InProcChannelTest, EchoesThroughHandler) {
  InProcChannel channel([](const Frame& f) {
    Frame out = f;
    out.push_back(static_cast<std::byte>(0xff));
    return out;
  });
  const Frame response = channel.call(frameOf({1, 2, 3}));
  EXPECT_EQ(response, frameOf({1, 2, 3, 0xff}));
}

TEST(InProcChannelTest, NullHandlerRejected) {
  EXPECT_THROW(InProcChannel(FrameHandler{}), std::invalid_argument);
}

TEST(InProcChannelTest, CallAfterCloseThrows) {
  InProcChannel channel([](const Frame& f) { return f; });
  channel.close();
  EXPECT_THROW(channel.call(frameOf({1})), std::logic_error);
}

// ---------------------------------------------------------------------------
// TCP transport

TEST(TcpTransportTest, RoundTripsFrames) {
  TcpSiteServer server([](const Frame& f) {
    Frame out = f;
    std::reverse(out.begin(), out.end());
    return out;
  });
  std::thread serverThread([&server] { server.serve(); });

  {
    TcpClientChannel client(server.port());
    EXPECT_EQ(client.call(frameOf({1, 2, 3})), frameOf({3, 2, 1}));
    EXPECT_EQ(client.call(frameOf({9})), frameOf({9}));
    EXPECT_EQ(client.call(Frame{}), Frame{});  // empty frames are legal
    client.close();
  }
  serverThread.join();
}

TEST(TcpTransportTest, ServesManySequentialRequests) {
  std::atomic<int> served{0};
  TcpSiteServer server([&served](const Frame& f) {
    ++served;
    return f;
  });
  std::thread serverThread([&server] { server.serve(); });
  {
    TcpClientChannel client(server.port());
    for (int i = 0; i < 500; ++i) {
      Frame f(static_cast<std::size_t>(i % 97), static_cast<std::byte>(i));
      ASSERT_EQ(client.call(f), f);
    }
    client.close();
  }
  serverThread.join();
  EXPECT_EQ(served.load(), 500);
}

TEST(TcpTransportTest, LargeFrameSurvives) {
  TcpSiteServer server([](const Frame& f) { return f; });
  std::thread serverThread([&server] { server.serve(); });
  {
    TcpClientChannel client(server.port());
    Frame big(1 << 20);
    for (std::size_t i = 0; i < big.size(); ++i) {
      big[i] = static_cast<std::byte>(i * 31);
    }
    EXPECT_EQ(client.call(big), big);
    client.close();
  }
  serverThread.join();
}

TEST(TcpTransportTest, PipelinedRequestsAnswerInOrder) {
  TcpSiteServer server([](const Frame& f) {
    Frame out = f;
    std::reverse(out.begin(), out.end());
    return out;
  });
  std::thread serverThread([&server] { server.serve(); });
  obs::MetricsRegistry metrics;
  {
    TcpClientChannel client(server.port());
    client.bindAccounting(3, nullptr, &metrics);
    client.send(frameOf({1, 2}));
    client.send(frameOf({3, 4, 5}));
    client.send(frameOf({6}));
    EXPECT_EQ(client.receive(), frameOf({2, 1}));
    EXPECT_EQ(client.receive(), frameOf({5, 4, 3}));
    EXPECT_EQ(client.receive(), frameOf({6}));
    EXPECT_THROW(client.receive(), std::logic_error);  // nothing in flight
    client.close();
  }
  serverThread.join();
  // Each request is accounted with its own response: 6 payload bytes and
  // three length prefixes each way.
  const auto counters = metrics.snapshot().counters;
  const auto bytes = [&](const char* dir) {
    const std::string name = obs::labeled("dsud_transport_bytes_total",
                                          {{"site", "3"}, {"dir", dir}});
    for (const auto& [key, value] : counters) {
      if (key == name) return value;
    }
    ADD_FAILURE() << "no counter " << name;
    return std::uint64_t{0};
  };
  EXPECT_EQ(bytes("out"), 6 + 3 * kFrameHeaderBytes);
  EXPECT_EQ(bytes("in"), 6 + 3 * kFrameHeaderBytes);
}

TEST(TcpTransportTest, ReceiveTimeoutPoisonsChannel) {
  TcpSiteServer server([](const Frame& f) {
    std::this_thread::sleep_for(std::chrono::milliseconds{300});
    return f;
  });
  std::thread serverThread([&server] {
    try {
      server.serve();
    } catch (const NetError&) {
      // The late reply meets the poisoned connection.
    }
  });
  TcpClientChannel client(server.port());
  client.setDeadline(std::chrono::milliseconds{50});
  client.send(frameOf({1}));
  EXPECT_THROW(client.receive(), NetTimeout);
  // The late reply could be misread as the next request's: the channel
  // refuses further traffic instead.
  EXPECT_THROW(client.send(frameOf({2})), NetError);
  EXPECT_THROW(client.call(frameOf({3})), NetError);
  serverThread.join();
}

/// A decorator that, like most, overrides only `call`.
class CountingChannel final : public ClientChannel {
 public:
  explicit CountingChannel(FrameHandler handler) : inner_(std::move(handler)) {}
  Frame call(const Frame& request) override {
    ++calls;
    return inner_.call(request);
  }
  int calls = 0;

 private:
  InProcChannel inner_;
};

TEST(ClientChannelTest, CallOnlyDecoratorSplitPhaseEqualsCall) {
  CountingChannel channel([](const Frame& f) {
    Frame out = f;
    out.push_back(std::byte{7});
    return out;
  });
  const Frame expected = channel.call(frameOf({1, 2}));
  channel.send(frameOf({1, 2}));
  EXPECT_EQ(channel.calls, 1) << "the default send only parks the request";
  EXPECT_THROW(channel.send(frameOf({3})), std::logic_error);
  EXPECT_EQ(channel.receive(), expected);
  EXPECT_EQ(channel.calls, 2);
  EXPECT_THROW(channel.receive(), std::logic_error);
}

TEST(TcpTransportTest, ConnectToUnboundPortFails) {
  // Bind-then-close to get a port that is very likely unbound.
  std::uint16_t port = 0;
  { const Socket s = listenOn(0, &port); }
  EXPECT_THROW(TcpClientChannel{port}, NetError);
}

TEST(WireTest, OversizedFrameRejectedOnWrite) {
  std::uint16_t port = 0;
  const Socket listener = listenOn(0, &port);
  Socket client = connectTo(port);
  Frame tooBig(kMaxFrameBytes + 1);
  EXPECT_THROW(writeFrame(client, tooBig), NetError);
}

TEST(WireTest, EphemeralPortAssigned) {
  std::uint16_t port = 0;
  const Socket listener = listenOn(0, &port);
  EXPECT_GT(port, 0u);
}

}  // namespace
}  // namespace dsud
