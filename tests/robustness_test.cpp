// Adversarial-input robustness: the site server must never crash or read out
// of bounds on malformed frames — every failure surfaces as SerializeError
// (or a domain exception), and the site remains usable afterwards.
#include <gtest/gtest.h>

#include <limits>

#include "common/rng.hpp"
#include "core/local_site.hpp"
#include "protocol_samples.hpp"
#include "test_util.hpp"

namespace dsud {
namespace {

class RobustnessTest : public ::testing::Test {
 protected:
  RobustnessTest()
      : db_(testutil::makeDataset(2, {{1.0, 2.0, 0.5}, {2.0, 1.0, 0.6}})),
        site_(0, db_),
        server_(site_) {}

  Frame validPrepare() {
    PrepareRequest request;
    request.q = 0.3;
    return toFrame(request);
  }

  /// The server must either answer or throw a library exception type.
  static void expectHandled(SiteServer& server, const Frame& frame) {
    try {
      server.handle(frame);
    } catch (const SerializeError&) {
    } catch (const std::invalid_argument&) {
    } catch (const std::logic_error&) {
    }
  }

  /// Runs `check` on the frame of every sample request and of every sample
  /// response.  Its second argument handles one (possibly damaged) frame.
  /// A request goes to a fresh copy of the fixture's site on which the
  /// sample prepare has opened query 1, so every frame meets the same state
  /// and evaluate and next-candidate frames meet a live session; the site
  /// must still serve that prepare afterwards.  A response goes through its
  /// decoder, which must either decode or throw SerializeError.
  template <typename Check>
  void forEverySampleFrame(Check check) {
    const auto requests = testutil::sampleRequests();
    const Frame prepare = toFrame(std::get<PrepareRequest>(requests));
    std::apply(
        [&](const auto&... req) {
          (check(toFrame(req),
                 [&](const Frame& f) {
                   LocalSite site(0, db_);
                   SiteServer server(site);
                   server.handle(prepare);
                   expectHandled(server, f);
                   EXPECT_NO_THROW(server.handle(prepare));
                 }),
           ...);
        },
        requests);
    std::apply(
        [&](const auto&... resp) {
          (check(toResponseFrame(resp),
                 [](const Frame& f) {
                   try {
                     fromResponseFrame<std::decay_t<decltype(resp)>>(f);
                   } catch (const SerializeError&) {
                   }
                 }),
           ...);
        },
        testutil::sampleResponses());
  }

  Dataset db_;
  LocalSite site_;
  SiteServer server_;
};

TEST_F(RobustnessTest, EmptyFrame) {
  EXPECT_THROW(server_.handle(Frame{}), SerializeError);
}

TEST_F(RobustnessTest, EveryTypeByteAlone) {
  for (int type = 0; type < 256; ++type) {
    Frame frame{static_cast<std::byte>(type)};
    expectHandled(server_, frame);
  }
  // Site still works.
  const Frame response = server_.handle(validPrepare());
  EXPECT_EQ(fromResponseFrame<PrepareResponse>(response).localSkylineSize, 2u);
}

TEST_F(RobustnessTest, TruncationsOfEveryValidMessage) {
  forEverySampleFrame([](const Frame& frame, auto handle) {
    for (std::size_t cut = 0; cut < frame.size(); ++cut) {
      handle(Frame(frame.begin(),
                   frame.begin() + static_cast<std::ptrdiff_t>(cut)));
    }
  });
}

TEST_F(RobustnessTest, RandomByteFlips) {
  Rng rng(31337);
  forEverySampleFrame([&](const Frame& frame, auto handle) {
    if (frame.empty()) return;  // AckResponse has no bytes to flip
    for (int trial = 0; trial < 2000; ++trial) {
      Frame mutated = frame;
      const std::size_t flips = 1 + rng.below(4);
      for (std::size_t f = 0; f < flips; ++f) {
        const std::size_t pos = rng.below(mutated.size());
        mutated[pos] = static_cast<std::byte>(rng.below(256));
      }
      handle(mutated);
    }
  });
}

TEST_F(RobustnessTest, RandomGarbageFrames) {
  Rng rng(424242);
  for (int trial = 0; trial < 2000; ++trial) {
    Frame garbage(rng.below(64));
    for (auto& b : garbage) b = static_cast<std::byte>(rng.below(256));
    expectHandled(server_, garbage);
  }
}

TEST_F(RobustnessTest, HugeClaimedLengthsDoNotAllocate) {
  // A u32 count of ~4 billion must fail fast on the reader's bounds check
  // rather than attempt the allocation.
  ByteWriter w;
  w.putU8(static_cast<std::uint8_t>(MsgType::kApplyDelete));
  w.putU64(0);
  w.putU32(0xffffffffu);  // claimed vector length
  const Frame frame = std::move(w).take();
  EXPECT_THROW(server_.handle(frame), SerializeError);

  // Every response vector behind a claimed u32 count: tuples, candidates,
  // replica ids, trace events and a trace event's attrs.
  const auto claim = [](auto&& prefix) {
    ByteWriter body;
    prefix(body);
    body.putU32(0xffffffffu);
    return std::move(body).take();
  };
  const auto none = [](ByteWriter&) {};
  EXPECT_THROW(fromResponseFrame<ShipAllResponse>(claim(none)), SerializeError);
  EXPECT_THROW(fromResponseFrame<RepairDeleteResponse>(claim(none)),
               SerializeError);
  EXPECT_THROW(fromResponseFrame<ApplyInsertResponse>(claim([](ByteWriter& b) {
                 b.putF64(0.5);
                 b.putF64(0.5);
               })),
               SerializeError);
  EXPECT_THROW(fromResponseFrame<FetchTraceResponse>(claim(none)),
               SerializeError);
  EXPECT_THROW(fromResponseFrame<FetchTraceResponse>(claim([](ByteWriter& b) {
                 b.putU32(1);          // one event
                 b.putString("span");  // name
                 b.putU32(0);          // parent
                 b.putU64(0);          // startNs
                 b.putU64(0);          // endNs
               })),
               SerializeError);
}

TEST_F(RobustnessTest, OutOfRangeProbabilityRejected) {
  // Two pending candidates with P = 0.9.  A delivered dominator with
  // P = 5.0 would make extSurvival 1 - 5 < 0 and prune both; the decoder
  // must reject it before the site sees it.
  const Dataset db =
      testutil::makeDataset(2, {{1.0, 2.0, 0.9}, {2.0, 1.0, 0.9}});
  LocalSite site(0, db);
  SiteServer server(site);
  PrepareRequest prepare;
  prepare.query = 1;
  prepare.q = 0.3;
  server.handle(toFrame(prepare));
  ASSERT_EQ(site.pendingCount(1), 2u);

  EvaluateRequest eval;
  eval.query = 1;
  eval.pruneLocal = true;
  for (const double p : {5.0, 0.0, -0.5, 1.0 + 1e-9,
                         std::numeric_limits<double>::quiet_NaN()}) {
    eval.tuple = Tuple{9, {0.5, 0.5}, p};
    EXPECT_THROW(server.handle(toFrame(eval)), SerializeError) << p;
  }
  EXPECT_EQ(site.pendingCount(1), 2u);

  // The same frame with an in-range probability is served and prunes none.
  eval.tuple = Tuple{9, {0.5, 0.5}, 0.1};
  const auto response =
      fromResponseFrame<EvaluateResponse>(server.handle(toFrame(eval)));
  EXPECT_EQ(response.prunedCount, 0u);
  EXPECT_EQ(site.pendingCount(1), 2u);
}

TEST_F(RobustnessTest, DuplicateInsertIsRefused) {
  const Dataset db =
      testutil::makeDataset(2, {{1.0, 2.0, 0.9}, {2.0, 1.0, 0.9}});
  LocalSite site(0, db);
  SiteServer server(site);
  const TupleId held = db.at(0).id;
  ApplyInsertRequest insert;
  insert.tuple = Tuple{held, {0.5, 0.5}, 0.5};
  for (int i = 0; i < 3; ++i) {
    EXPECT_THROW(server.handle(toFrame(insert)), std::invalid_argument);
  }
  EXPECT_EQ(site.size(), 2u);
  EXPECT_EQ(site.datasetVersion(), 0u);

  // One delete removes the only copy.
  ApplyDeleteRequest erase;
  erase.id = held;
  erase.values = {1.0, 2.0};
  const auto deleted =
      fromResponseFrame<ApplyDeleteResponse>(server.handle(toFrame(erase)));
  EXPECT_TRUE(deleted.existed);
  EXPECT_EQ(site.size(), 1u);
  EXPECT_EQ(site.datasetVersion(), 1u);

  // A fresh id is still served.
  insert.tuple.id = 1000;
  server.handle(toFrame(insert));
  EXPECT_EQ(site.size(), 2u);
  EXPECT_EQ(site.datasetVersion(), 2u);
}

TEST_F(RobustnessTest, EvaluateWithWrongDimensionality) {
  server_.handle(validPrepare());
  EvaluateRequest eval;
  eval.tuple = Tuple{9, {0.5, 0.5, 0.5, 0.5}, 0.5};  // 4 dims vs site's 2
  const Frame frame = toFrame(eval);
  EXPECT_THROW(server_.handle(frame), std::invalid_argument);
}

}  // namespace
}  // namespace dsud
