#include "core/protocol.hpp"

#include <gtest/gtest.h>

#include <set>

#include "core/local_site.hpp"
#include "protocol_samples.hpp"
#include "test_util.hpp"

namespace dsud {
namespace {

Tuple sampleTuple() {
  return Tuple{42, {1.5, -2.5, 3.25}, 0.625};
}

template <typename Msg>
Msg reencode(const Msg& msg) {
  ByteWriter w;
  wire::put(w, msg);
  ByteReader r(w.bytes());
  return decodeBody<Msg>(r);
}

TEST(ProtocolTest, TupleRoundTrip) {
  EXPECT_EQ(reencode(sampleTuple()), sampleTuple());
  EXPECT_TRUE(reencode(Tuple{7, {}, 1.0}).values.empty());
}

TEST(ProtocolTest, VectorCountBoundedByBytesLeft) {
  ByteWriter w;
  w.putU32(1000);  // claims 1000 doubles, provides one
  w.putF64(1.0);
  ByteReader r(w.bytes());
  std::vector<double> v;
  EXPECT_THROW(wire::get(r, v), SerializeError);
}

TEST(ProtocolTest, CandidateRoundTrip) {
  Candidate c;
  c.site = 7;
  c.tuple = sampleTuple();
  c.localSkyProb = 0.375;
  EXPECT_EQ(reencode(c), c);
}

TEST(ProtocolTest, PrepareRequestRoundTrip) {
  PrepareRequest msg;
  msg.query = 77;
  msg.q = 0.45;
  msg.mask = 0b101;
  msg.prune = PruneRule::kDominance;
  const PrepareRequest out = reencode(msg);
  EXPECT_EQ(out.query, 77u);
  EXPECT_EQ(out.q, 0.45);
  EXPECT_EQ(out.mask, 0b101u);
  EXPECT_EQ(out.prune, PruneRule::kDominance);
}

TEST(ProtocolTest, PrepareRequestCarriesTraceSettings) {
  PrepareRequest msg;
  msg.query = 9;
  msg.traceCapacity = 4096;
  const PrepareRequest out = reencode(msg);
  EXPECT_EQ(out.traceCapacity, 4096u);
  // The default (tracing off) must survive the wire too.
  const PrepareRequest off = reencode(PrepareRequest{});
  EXPECT_EQ(off.traceCapacity, 0u);
}

obs::QueryTrace sampleTrace() {
  obs::QueryTrace trace;
  obs::TraceEvent prepare;
  prepare.name = "site.prepare";
  prepare.startNs = 1'000;
  prepare.endNs = 2'500;
  prepare.attrs = {{"tuples", 400.0}, {"pruned", 123.0}};
  obs::TraceEvent next;
  next.name = "site.next";
  next.parent = 0;
  next.startNs = 3'000;
  next.endNs = 0;  // still open: snapshot semantics
  next.attrs = {{"seq", 1.0}};
  trace.events = {prepare, next};
  trace.droppedEvents = 7;
  return trace;
}

void expectTraceEq(const obs::QueryTrace& out, const obs::QueryTrace& in) {
  EXPECT_EQ(out.droppedEvents, in.droppedEvents);
  ASSERT_EQ(out.events.size(), in.events.size());
  for (std::size_t i = 0; i < in.events.size(); ++i) {
    EXPECT_EQ(out.events[i].name, in.events[i].name);
    EXPECT_EQ(out.events[i].parent, in.events[i].parent);
    EXPECT_EQ(out.events[i].startNs, in.events[i].startNs);
    EXPECT_EQ(out.events[i].endNs, in.events[i].endNs);
    EXPECT_EQ(out.events[i].attrs, in.events[i].attrs);
  }
}

TEST(ProtocolTest, TraceBlockRoundTrip) {
  const obs::QueryTrace trace = sampleTrace();
  expectTraceEq(reencode(trace), trace);

  const obs::QueryTrace none = reencode(obs::QueryTrace{});
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(none.droppedEvents, 0u);
}

TEST(ProtocolTest, FetchTraceMessagesRoundTrip) {
  FetchTraceRequest req;
  req.query = 321;
  EXPECT_EQ(reencode(req).query, 321u);

  FetchTraceResponse resp;
  resp.trace = sampleTrace();
  expectTraceEq(reencode(resp).trace, resp.trace);
}

TEST(ProtocolTest, NextCandidateRequestCarriesQueryId) {
  NextCandidateRequest msg;
  msg.query = 12345;
  EXPECT_EQ(reencode(msg).query, 12345u);
}

TEST(ProtocolTest, NextCandidateRequestCarriesReplaySeq) {
  NextCandidateRequest msg;
  msg.query = 12345;
  msg.seq = 77;
  const auto out = reencode(msg);
  EXPECT_EQ(out.query, 12345u);
  EXPECT_EQ(out.seq, 77u);
  // seq 0 = no replay protection; must survive the wire unchanged.
  EXPECT_EQ(reencode(NextCandidateRequest{}).seq, 0u);
}

TEST(ProtocolTest, FinishQueryRoundTrip) {
  FinishQueryRequest msg;
  msg.query = 9;
  EXPECT_EQ(reencode(msg).query, 9u);
}

TEST(ProtocolTest, NextCandidateResponseEmptyAndFull) {
  NextCandidateResponse empty;
  EXPECT_FALSE(reencode(empty).candidate.has_value());

  NextCandidateResponse full;
  full.candidate = Candidate{3, sampleTuple(), 0.5};
  const auto out = reencode(full);
  ASSERT_TRUE(out.candidate.has_value());
  EXPECT_EQ(*out.candidate, *full.candidate);
}

TEST(ProtocolTest, EvaluateRoundTrip) {
  EvaluateRequest req;
  req.query = 5;
  req.tuple = sampleTuple();
  req.mask = 0b011;
  req.pruneLocal = false;
  req.seq = 4096;
  const auto reqOut = reencode(req);
  EXPECT_EQ(reqOut.query, 5u);
  EXPECT_EQ(reqOut.tuple, sampleTuple());
  EXPECT_EQ(reqOut.mask, 0b011u);
  EXPECT_FALSE(reqOut.pruneLocal);
  EXPECT_EQ(reqOut.seq, 4096u);

  EvaluateResponse resp;
  resp.survival = 0.123;
  resp.prunedCount = 9;
  const auto respOut = reencode(resp);
  EXPECT_EQ(respOut.survival, 0.123);
  EXPECT_EQ(respOut.prunedCount, 9u);
}

TEST(ProtocolTest, ShipAllRoundTrip) {
  ShipAllResponse msg;
  msg.tuples = {sampleTuple(), Tuple{1, {0.0, 0.0, 0.0}, 1.0}};
  const auto out = reencode(msg);
  EXPECT_EQ(out.tuples, msg.tuples);
}

TEST(ProtocolTest, ApplyInsertRoundTrip) {
  ApplyInsertResponse msg;
  msg.localSkyProb = 0.5;
  msg.globalUpperBound = 0.25;
  msg.dominatedReplica = {1, 2, 3};
  msg.datasetVersion = 41;
  const auto out = reencode(msg);
  EXPECT_EQ(out.localSkyProb, 0.5);
  EXPECT_EQ(out.globalUpperBound, 0.25);
  EXPECT_EQ(out.dominatedReplica, (std::vector<TupleId>{1, 2, 3}));
  EXPECT_EQ(out.datasetVersion, 41u);
}

TEST(ProtocolTest, ApplyDeleteRoundTrip) {
  ApplyDeleteRequest req;
  req.id = 99;
  req.values = {4.0, 5.0};
  const auto reqOut = reencode(req);
  EXPECT_EQ(reqOut.id, 99u);
  EXPECT_EQ(reqOut.values, req.values);

  ApplyDeleteResponse resp;
  resp.existed = true;
  resp.prob = 0.75;
  resp.datasetVersion = 7;
  const auto respOut = reencode(resp);
  EXPECT_TRUE(respOut.existed);
  EXPECT_EQ(respOut.prob, 0.75);
  EXPECT_EQ(respOut.datasetVersion, 7u);
}

TEST(ProtocolTest, RepairDeleteRoundTrip) {
  RepairDeleteRequest req;
  req.deleted = sampleTuple();
  req.origin = 4;
  req.q = 0.4;
  req.mask = 0b110;
  const auto reqOut = reencode(req);
  EXPECT_EQ(reqOut.deleted, sampleTuple());
  EXPECT_EQ(reqOut.origin, 4u);
  EXPECT_EQ(reqOut.q, 0.4);
  EXPECT_EQ(reqOut.mask, 0b110u);

  RepairDeleteResponse resp;
  resp.candidates = {Candidate{1, sampleTuple(), 0.5}};
  const auto respOut = reencode(resp);
  ASSERT_EQ(respOut.candidates.size(), 1u);
  EXPECT_EQ(respOut.candidates[0], resp.candidates[0]);
}

TEST(ProtocolTest, ReplicaMessagesRoundTrip) {
  ReplicaAddRequest add;
  add.entry = Candidate{2, sampleTuple(), 0.5};
  add.globalSkyProb = 0.4;
  const auto addOut = reencode(add);
  EXPECT_EQ(addOut.entry, add.entry);
  EXPECT_EQ(addOut.globalSkyProb, 0.4);

  ReplicaRemoveRequest remove;
  remove.id = 1234;
  EXPECT_EQ(reencode(remove).id, 1234u);
}

std::string hexOf(const Frame& frame) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (const std::byte b : frame) {
    const auto v = std::to_integer<unsigned>(b);
    hex += kDigits[v >> 4];
    hex += kDigits[v & 0xf];
  }
  return hex;
}

void expectFrames(const std::vector<std::string>& got,
                  const std::vector<std::string>& golden) {
  ASSERT_EQ(got.size(), golden.size());
  for (std::size_t i = 0; i < golden.size(); ++i) {
    EXPECT_EQ(got[i], golden[i]) << "sample " << i;
  }
}

// Round trips cannot see a layout change that encoder and decoder share;
// these frames pin the byte layout of docs/PROTOCOL.md itself.  A request
// frame starts with its declared type byte; a response frame has none.
TEST(ProtocolTest, GoldenRequestFrames) {
  std::vector<std::string> got;
  std::apply(
      [&](const auto&... req) { (got.push_back(hexOf(toFrame(req))), ...); },
      testutil::sampleRequests());
  expectFrames(got, {
      // kStreamTuples
      "0e000000000100000000000000020000000100000000000000000000000000e0"
      "3f02000000000000000000f03f00000000000000400200000000000000000000"
      "000000e43f020000000000000000000040000000000000f03f",
      // kJoinSite
      "0c0200000000000000",
      // kPrepare
      "010100000000000000333333333333d33f030000000001020000000000000000"
      "00000000000000000000000000002040000000000000204010000000",
      // kNextCandidate
      "0201000000000000000100000000000000",
      // kEvaluate
      "03010000000000000001000000000000000900000000000000000000000000e8"
      "3f02000000000000000000e03f00000000000008400300000001010200000000"
      "00000000000000000000000000000000000020400000000000002040",
      // kShipAll
      "04",
      // kApplyInsert
      "050a00000000000000000000000000ec3f02000000000000000000e03f000000"
      "000000e03f",
      // kApplyDelete
      "060a0000000000000002000000000000000000e03f000000000000e03f",
      // kRepairDelete
      "070b00000000000000000000000000e03f02000000000000000000d03f000000"
      "000000d03f01000000333333333333d33f00000000",
      // kReplicaAdd
      "0801000000000000000000d03f0c00000000000000000000000000d83f020000"
      "000000000000000840000000000000e03f000000000000c03f",
      // kReplicaRemove
      "090c00000000000000",
      // kFetchTrace
      "0b0100000000000000",
      // kFinishQuery
      "0a0100000000000000",
      // kLeaveSite
      "0d0300000000000000",
  });
}

TEST(ProtocolTest, GoldenResponseFrames) {
  std::vector<std::string> got;
  std::apply(
      [&](const auto&... r) { (got.push_back(hexOf(toResponseFrame(r))), ...); },
      testutil::sampleResponses());
  expectFrames(got, {
      // StreamTuplesResponse
      "0200000000000000",
      // JoinSiteResponse
      "0200000000000000",
      // PrepareResponse
      "0100000000000000",
      // NextCandidateResponse
      "0100000000000000000000e03f0100000000000000000000000000e03f020000"
      "00000000000000f03f0000000000000040",
      // EvaluateResponse
      "000000000000d03f01000000",
      // ShipAllResponse
      "020000000100000000000000000000000000e03f02000000000000000000f03f"
      "00000000000000400200000000000000000000000000e43f0200000000000000"
      "00000040000000000000f03f",
      // ApplyInsertResponse
      "000000000000e03f000000000000d03f02000000040000000000000005000000"
      "000000002900000000000000",
      // ApplyDeleteResponse
      "01000000000000ec3f2a00000000000000",
      // RepairDeleteResponse
      "0100000000000000000000000000e43f0200000000000000000000000000e43f"
      "020000000000000000000040000000000000f03f",
      // AckResponse
      "",
      // FetchTraceResponse
      "020000000c000000736974652e70726570617265ffffffffe803000000000000"
      "c40900000000000002000000060000007475706c657300000000000010400600"
      "00007072756e6564000000000000f03f09000000736974652e6e657874ffffff"
      "ffb80b0000000000000000000000000000010000000300000073657100000000"
      "0000f03f0700000000000000",
      // LeaveSiteResponse
      "0000000000000000",
  });
}

TEST(ProtocolTest, QueryConfigEffectiveMask) {
  QueryConfig config;
  EXPECT_EQ(config.effectiveMask(3), fullMask(3));
  config.mask = 0b01;
  EXPECT_EQ(config.effectiveMask(3), 0b01u);
}

// ---------------------------------------------------------------------------
// SiteServer dispatch

TEST(SiteServerTest, DispatchesPrepareAndCandidates) {
  const Dataset db = testutil::makeDataset(2, {
                                                  {1.0, 1.0, 0.9},
                                                  {2.0, 2.0, 0.9},
                                              });
  LocalSite site(0, db);
  SiteServer server(site);

  PrepareRequest prep;
  prep.q = 0.3;
  const Frame prepResp = server.handle(toFrame(prep));
  EXPECT_EQ(fromResponseFrame<PrepareResponse>(prepResp).localSkylineSize, 1u);

  const Frame candResp =
      server.handle(toFrame(NextCandidateRequest{}));
  const auto cand = fromResponseFrame<NextCandidateResponse>(candResp);
  ASSERT_TRUE(cand.candidate.has_value());
  EXPECT_EQ(cand.candidate->tuple.values, (std::vector<double>{1.0, 1.0}));
}

TEST(SiteServerTest, EveryRequestAnswersItsDeclaredResponse) {
  LocalSite site(0, 2);  // staging: the samples stream its data in first
  SiteServer server(site);
  std::set<int> types;
  std::apply(
      [&](const auto&... req) {
        ((types.insert(static_cast<int>(req.kType)),
          fromResponseFrame<typename std::decay_t<decltype(req)>::Response>(
              server.handle(toFrame(req)))),
         ...);
      },
      testutil::sampleRequests());
  std::set<int> all;
  for (int type = 1; type <= 14; ++type) all.insert(type);
  EXPECT_EQ(types, all);
  EXPECT_EQ(site.size(), 2u);
  EXPECT_EQ(site.phase(), LocalSite::Phase::kDraining);
}

TEST(SiteServerTest, DispatchesFinishQueryAndReleasesSession) {
  const Dataset db = testutil::makeDataset(2, {{1.0, 1.0, 0.9}});
  LocalSite site(0, db);
  SiteServer server(site);

  PrepareRequest prep;
  prep.query = 42;
  prep.q = 0.3;
  server.handle(toFrame(prep));
  EXPECT_EQ(site.sessionCount(), 1u);

  FinishQueryRequest finish;
  finish.query = 42;
  server.handle(toFrame(finish));
  EXPECT_EQ(site.sessionCount(), 0u);
  // Idempotent: finishing an unknown query is a no-op.
  server.handle(toFrame(finish));
  EXPECT_EQ(site.sessionCount(), 0u);
}

TEST(SiteServerTest, InterleavedSessionsKeepIndependentCursors) {
  const Dataset db = testutil::makeDataset(2, {
                                                  {1.0, 4.0, 0.9},
                                                  {4.0, 1.0, 0.9},
                                              });
  LocalSite site(0, db);

  PrepareRequest a;
  a.query = 1;
  a.q = 0.3;
  PrepareRequest b;
  b.query = 2;
  b.q = 0.3;
  site.prepare(a);
  site.prepare(b);
  EXPECT_EQ(site.sessionCount(), 2u);

  NextCandidateRequest pullA;
  pullA.query = 1;
  NextCandidateRequest pullB;
  pullB.query = 2;
  // Draining session 1 must not move session 2's cursor.
  ASSERT_TRUE(site.nextCandidate(pullA).candidate.has_value());
  ASSERT_TRUE(site.nextCandidate(pullA).candidate.has_value());
  EXPECT_FALSE(site.nextCandidate(pullA).candidate.has_value());
  EXPECT_EQ(site.pendingCount(1), 0u);
  EXPECT_EQ(site.pendingCount(2), 2u);
  ASSERT_TRUE(site.nextCandidate(pullB).candidate.has_value());

  site.finishQuery(FinishQueryRequest{1});
  site.finishQuery(FinishQueryRequest{2});
  EXPECT_EQ(site.sessionCount(), 0u);
}

TEST(SiteServerTest, UnknownTypeThrows) {
  const Dataset db = testutil::makeDataset(2, {{1.0, 1.0, 0.5}});
  LocalSite site(0, db);
  SiteServer server(site);
  ByteWriter w;
  w.putU8(200);  // not a MsgType
  const Frame bogus = std::move(w).take();
  EXPECT_THROW(server.handle(bogus), SerializeError);
}

TEST(SiteServerTest, TrailingGarbageRejected) {
  const Dataset db = testutil::makeDataset(2, {{1.0, 1.0, 0.5}});
  LocalSite site(0, db);
  SiteServer server(site);
  Frame frame = toFrame(NextCandidateRequest{});
  frame.push_back(std::byte{0});
  EXPECT_THROW(server.handle(frame), SerializeError);
}

TEST(SiteServerTest, TruncatedBodyRejected) {
  const Dataset db = testutil::makeDataset(2, {{1.0, 1.0, 0.5}});
  LocalSite site(0, db);
  SiteServer server(site);
  Frame frame = toFrame(PrepareRequest{});
  frame.resize(frame.size() - 2);
  EXPECT_THROW(server.handle(frame), SerializeError);
}

}  // namespace
}  // namespace dsud
