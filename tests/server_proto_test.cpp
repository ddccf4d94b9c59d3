// Codec tests for the dsudd client protocol (src/server/proto.hpp) and the
// JSON layer beneath it: encode/decode round-trips for every request and
// response type, then a corpus of malformed lines — truncated documents,
// bad UTF-8, type confusion, out-of-range values, oversized fields — each
// of which must surface as a clean ProtoError with the right wire code
// (never a crash, never a silently-wrong struct).  Unknown *fields* are the
// one thing the decoder must ignore, so old servers tolerate new clients.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <limits>
#include <random>
#include <string>
#include <variant>

#include "server/json.hpp"
#include "server/proto.hpp"

namespace dsud::server {
namespace {

// ---------------------------------------------------------------------------
// JSON layer

TEST(JsonTest, ScalarRoundTrips) {
  EXPECT_EQ(Json::parse("null").dump(), "null");
  EXPECT_EQ(Json::parse("true").dump(), "true");
  EXPECT_EQ(Json::parse("false").dump(), "false");
  EXPECT_EQ(Json::parse("42").dump(), "42");
  EXPECT_EQ(Json::parse("-7").dump(), "-7");
  EXPECT_EQ(Json::parse("\"hi\"").dump(), "\"hi\"");
  // Doubles survive a dump/parse cycle bit-exactly (%.17g).
  const double x = 0.1 + 0.2;
  Json v(x);
  EXPECT_EQ(Json::parse(v.dump()).asNumber(), x);
}

TEST(JsonTest, StringEscapes) {
  const Json v = Json::parse(R"("a\"b\\c\ndAé")");
  EXPECT_EQ(v.asString(), "a\"b\\c\ndA\xc3\xa9");
  // Control characters re-escape on dump, in the short form where JSON
  // has one.
  Json s(std::string("x\ty\n\b\f\x01"));
  EXPECT_EQ(s.dump(), "\"x\\ty\\n\\b\\f\\u0001\"");
  EXPECT_EQ(Json::parse(s.dump()).asString(), "x\ty\n\b\f\x01");
}

TEST(JsonTest, SurrogatePairs) {
  // U+1F600 as a surrogate pair decodes to 4-byte UTF-8.
  const Json v = Json::parse(R"("😀")");
  EXPECT_EQ(v.asString(), "\xf0\x9f\x98\x80");
  // A lone high surrogate is malformed.
  EXPECT_THROW(Json::parse(R"("\ud83d")"), JsonError);
}

TEST(JsonTest, RejectsMalformedDocuments) {
  for (const char* text :
       {"", "{", "[1,2", "{\"a\":}", "{\"a\" 1}", "tru", "01", "1.",
        "\"unterminated", "{\"a\":1}garbage", "[1,]", "{,}", "nan", "+1"}) {
    EXPECT_THROW(Json::parse(text), JsonError) << text;
  }
}

TEST(JsonTest, RejectsInvalidUtf8) {
  EXPECT_THROW(Json::parse("\"\xff\xfe\""), JsonError);
  EXPECT_THROW(Json::parse("\"\xc3\""), JsonError);        // truncated 2-byte
  EXPECT_THROW(Json::parse("\"\xed\xa0\x80\""), JsonError);  // raw surrogate
}

TEST(JsonTest, DepthCapStopsNestingBombs) {
  std::string bomb;
  for (int i = 0; i < 100; ++i) bomb += '[';
  for (int i = 0; i < 100; ++i) bomb += ']';
  EXPECT_THROW(Json::parse(bomb), JsonError);
}

// ---------------------------------------------------------------------------
// Golden lines: the exact bytes of one sample of every request and response,
// each optional part both present and absent.  A change to the wire fails
// here; each line must also decode back to its sample.

QueryRequest fullQuery() {
  QueryRequest r;
  r.id = "big-query";
  r.algo = Algo::kDsud;
  r.q = 0.125;
  r.mask = 0b101;
  Rect window(3);
  window.expand(std::vector<double>{0.0, 0.1, 0.2});
  window.expand(std::vector<double>{0.5, 0.6, 7.0});
  r.window = window;
  r.tenant = "analytics";
  r.priority = Priority::kHigh;
  r.deadlineMs = 2500;
  r.retries = 3;
  r.degrade = true;
  r.progressive = false;
  r.limit = 10;
  r.traceCapacity = 4096;
  r.profile = true;
  return r;
}

std::vector<std::pair<Request, std::string>> goldenRequests() {
  QueryRequest defaults;
  defaults.id = "q1";
  QueryRequest topk;
  topk.id = "topk";
  topk.k = 12;
  topk.q = 1e-3;
  topk.priority = Priority::kLow;
  AdminRequest add{"a1", AdminAction::kAddSite, kNoSite};
  AdminRequest remove{"a2", AdminAction::kRemoveSite, 7};
  AdminRequest rebalance{"a3", AdminAction::kRebalance, kNoSite};
  return {
      {defaults,
       R"({"op":"query","id":"q1","algo":"edsud","q":0.29999999999999999})"},
      {fullQuery(),
       R"({"op":"query","id":"big-query","algo":"dsud","q":0.125,"mask":5,)"
       R"("window":{"lo":[0,0.10000000000000001,0.20000000000000001],)"
       R"("hi":[0.5,0.59999999999999998,7]},"tenant":"analytics",)"
       R"("priority":"high","deadline_ms":2500,"retries":3,)"
       R"("on_failure":"degrade","progressive":false,"limit":10,)"
       R"("trace_capacity":4096,"profile":true})"},
      {topk,
       R"({"op":"query","id":"topk","k":12,"floor_q":0.001,"priority":"low"})"},
      {PingRequest{}, R"({"op":"ping"})"},
      {StatsRequest{}, R"({"op":"stats"})"},
      {CancelRequest{"q7"}, R"({"op":"cancel","id":"q7"})"},
      {add, R"({"op":"admin","id":"a1","action":"add-site"})"},
      {remove, R"({"op":"admin","id":"a2","action":"remove-site","site":7})"},
      {rebalance, R"({"op":"admin","id":"a3","action":"rebalance"})"},
  };
}

DoneResponse fullDone() {
  DoneResponse r;
  r.id = "q9";
  r.answers = 12;
  r.degraded = true;
  r.excluded = {1, 4};
  r.stats = QueryStats{231, 18289, 246, 40, 6, 7, 100, 0.0028};
  QueryProfile profile;
  profile.algo = "edsud";
  profile.cache = "miss";
  profile.batch = "leader";
  profile.batchWidth = 3;
  profile.failovers = 1;
  profile.prepareSeconds = 0.001;
  profile.executeSeconds = 0.025;
  profile.finalizeSeconds = 0.5;
  profile.sites = {SiteProfile{0, 4, 25, 1200, 30, 970, 0, 0, false},
                   SiteProfile{1, 1, 15, 720, 0, 0, 2, 1, true}};
  r.profile = profile;
  return r;
}

std::vector<std::pair<Response, std::string>> goldenResponses() {
  AnswerResponse answer;
  answer.id = "q1";
  answer.seq = 3;
  answer.entry.site = 2;
  answer.entry.tuple = Tuple(std::uint64_t{1} << 60, {0.1, 3.0, 1e-7}, 0.75);
  answer.entry.localSkyProb = 0.875;
  answer.entry.globalSkyProb = 0.1;
  DoneResponse bareDone;
  bareDone.id = "q10";
  bareDone.answers = 2;
  bareDone.stats.tuplesShipped = 40;
  bareDone.stats.seconds = 0.01;
  AdminResponse topology;
  topology.id = "a1";
  topology.epoch = 5;
  topology.members = {0, 1, 3};
  topology.partitions = {PartitionDesc{0, {0, 1}}, PartitionDesc{1, {3}}};
  AdminResponse added = topology;
  added.site = 3;
  AdminResponse empty;
  empty.id = "a2";
  return {
      {AckResponse{"q1", 42}, R"({"type":"ack","id":"q1","query":42})"},
      {answer,
       R"({"type":"answer","id":"q1","seq":3,"site":2,)"
       R"("tuple":{"id":1.152921504606847e+18,"prob":0.75,)"
       R"("values":[0.10000000000000001,3,9.9999999999999995e-08]},)"
       R"("p_local":0.875,"p_gsky":0.10000000000000001})"},
      {bareDone,
       R"({"type":"done","id":"q10","answers":2,"degraded":false,)"
       R"("stats":{"tuples_shipped":40,"bytes_shipped":0,"round_trips":0,)"
       R"("candidates_pulled":0,"broadcasts":0,"expunged":0,)"
       R"("pruned_at_sites":0,"seconds":0.01}})"},
      {fullDone(),
       R"({"type":"done","id":"q9","answers":12,"degraded":true,)"
       R"("excluded":[1,4],"stats":{"tuples_shipped":231,)"
       R"("bytes_shipped":18289,"round_trips":246,"candidates_pulled":40,)"
       R"("broadcasts":6,"expunged":7,"pruned_at_sites":100,)"
       R"("seconds":0.0028},"profile":{"algo":"edsud","cache":"miss",)"
       R"("batch":"leader","batch_width":3,"failovers":1,)"
       R"("phases":{"prepare_s":0.001,"execute_s":0.025000000000000001,)"
       R"("finalize_s":0.5},"sites":[{"site":0,"rounds":4,"tuples":25,)"
       R"("bytes":1200,"candidates":30,"pruned":970,"retries":0,)"
       R"("failovers":0,"dead":false},{"site":1,"rounds":1,"tuples":15,)"
       R"("bytes":720,"candidates":0,"pruned":0,"retries":2,)"
       R"("failovers":1,"dead":true}]}})"},
      {ErrorResponse{"q2", ErrorCode::kOverloaded, "queue full", 250},
       R"({"type":"error","id":"q2","code":"overloaded",)"
       R"("message":"queue full","retry_after_ms":250})"},
      {ErrorResponse{"", ErrorCode::kBadRequest, "bad \"line\"\n", 0},
       R"({"type":"error","code":"bad_request","message":"bad \"line\"\n"})"},
      {PongResponse{}, R"({"type":"pong"})"},
      {StatsResponse{2, 5, 100, 7},
       R"({"type":"stats","active":2,"queued":5,"admitted":100,"shed":7})"},
      {topology,
       R"({"type":"admin","id":"a1","epoch":5,"members":[0,1,3],)"
       R"("partitions":[{"id":0,"hosts":[0,1]},{"id":1,"hosts":[3]}]})"},
      {added,
       R"({"type":"admin","id":"a1","epoch":5,"site":3,"members":[0,1,3],)"
       R"("partitions":[{"id":0,"hosts":[0,1]},{"id":1,"hosts":[3]}]})"},
      {empty,
       R"({"type":"admin","id":"a2","epoch":0,"members":[],"partitions":[]})"},
  };
}

TEST(ProtoGoldenTest, RequestLines) {
  for (const auto& [request, line] : goldenRequests()) {
    EXPECT_EQ(std::visit([](const auto& r) { return encodeRequest(r); },
                         request),
              line);
    EXPECT_EQ(decodeRequest(line), request) << line;
  }
}

TEST(ProtoGoldenTest, ResponseLines) {
  for (const auto& [response, line] : goldenResponses()) {
    EXPECT_EQ(std::visit([](const auto& r) { return encodeResponse(r); },
                         response),
              line);
    EXPECT_EQ(decodeResponse(line), response) << line;
  }
}

// ---------------------------------------------------------------------------
// Request round-trips

TEST(ProtoRequestTest, QueryDefaultsRoundTrip) {
  QueryRequest r;
  r.id = "q1";
  const Request decoded = decodeRequest(encodeRequest(r));
  ASSERT_TRUE(std::holds_alternative<QueryRequest>(decoded));
  EXPECT_EQ(std::get<QueryRequest>(decoded), r);
}

TEST(ProtoRequestTest, QueryFullyLoadedRoundTrip) {
  QueryRequest r;
  r.id = "big-query";
  r.algo = Algo::kDsud;
  r.q = 0.125;
  r.mask = 0b101;
  Rect window(3);
  window.expand(std::vector<double>{0.0, 0.1, 0.2});
  window.expand(std::vector<double>{0.5, 0.6, 0.7});
  r.window = window;
  r.tenant = "analytics";
  r.priority = Priority::kHigh;
  r.deadlineMs = 2500;
  r.retries = 3;
  r.degrade = true;
  r.progressive = false;
  r.limit = 10;
  r.traceCapacity = 4096;
  const Request decoded = decodeRequest(encodeRequest(r));
  ASSERT_TRUE(std::holds_alternative<QueryRequest>(decoded));
  EXPECT_EQ(std::get<QueryRequest>(decoded), r);
}

TEST(ProtoRequestTest, TopKRoundTrip) {
  QueryRequest r;
  r.id = "topk";
  r.k = 12;
  r.q = 1e-3;  // travels as floor_q
  r.priority = Priority::kLow;
  const Request decoded = decodeRequest(encodeRequest(r));
  ASSERT_TRUE(std::holds_alternative<QueryRequest>(decoded));
  EXPECT_EQ(std::get<QueryRequest>(decoded), r);
}

TEST(ProtoRequestTest, PingCancelStatsRoundTrip) {
  EXPECT_TRUE(std::holds_alternative<PingRequest>(
      decodeRequest(encodeRequest(PingRequest{}))));
  EXPECT_TRUE(std::holds_alternative<StatsRequest>(
      decodeRequest(encodeRequest(StatsRequest{}))));
  CancelRequest c;
  c.id = "q7";
  const Request decoded = decodeRequest(encodeRequest(c));
  ASSERT_TRUE(std::holds_alternative<CancelRequest>(decoded));
  EXPECT_EQ(std::get<CancelRequest>(decoded), c);
}

TEST(ProtoRequestTest, AdminRoundTripEveryAction) {
  for (const AdminAction action :
       {AdminAction::kAddSite, AdminAction::kRemoveSite,
        AdminAction::kRebalance, AdminAction::kTopology}) {
    AdminRequest request;
    request.id = "a1";
    request.action = action;
    if (action == AdminAction::kRemoveSite) request.site = 7;
    const Request decoded = decodeRequest(encodeRequest(request));
    ASSERT_TRUE(std::holds_alternative<AdminRequest>(decoded))
        << adminActionName(action);
    EXPECT_EQ(std::get<AdminRequest>(decoded), request)
        << adminActionName(action);
  }
}

TEST(ProtoRequestTest, AdminSchemaViolations) {
  // No id, unknown action, remove-site without a site.
  for (const char* line :
       {R"({"op":"admin","action":"topology"})",
        R"({"op":"admin","id":"a","action":"explode"})",
        R"({"op":"admin","id":"a","action":"remove-site"})",
        R"({"op":"admin","id":"a","action":"remove-site","site":-1})"}) {
    try {
      decodeRequest(line);
      FAIL() << line;
    } catch (const ProtoError& error) {
      EXPECT_EQ(error.code(), ErrorCode::kBadRequest) << line;
    }
  }
}

TEST(ProtoRequestTest, UnknownFieldsAreIgnored) {
  const Request decoded = decodeRequest(
      R"({"op":"query","id":"q1","future_flag":true,"nested":{"a":[1,2]}})");
  ASSERT_TRUE(std::holds_alternative<QueryRequest>(decoded));
  EXPECT_EQ(std::get<QueryRequest>(decoded).id, "q1");
}

// ---------------------------------------------------------------------------
// Request malformed corpus

ErrorCode decodeError(std::string_view line) {
  try {
    decodeRequest(line);
  } catch (const ProtoError& e) {
    return e.code();
  }
  ADD_FAILURE() << "decoded without error: " << line;
  return ErrorCode::kInternal;
}

TEST(ProtoRequestTest, TruncatedAndMalformedJson) {
  for (const char* line :
       {"", "   ", "{", R"({"op":"query")", R"({"op":"query","id":)",
        "[1,2,3]", "\"just a string\"", "42", "not json at all",
        R"({"op":"query","id":"q1"} trailing)"}) {
    EXPECT_EQ(decodeError(line), ErrorCode::kBadRequest) << line;
  }
}

TEST(ProtoRequestTest, BadUtf8IsBadRequest) {
  std::string line = R"({"op":"ping","x":")";
  line += "\xff\xfe";
  line += "\"}";
  EXPECT_EQ(decodeError(line), ErrorCode::kBadRequest);
}

TEST(ProtoRequestTest, UnknownOpIsItsOwnCode) {
  EXPECT_EQ(decodeError(R"({"op":"subscribe"})"), ErrorCode::kUnknownOp);
  // ...but a missing or non-string op is a schema violation.
  EXPECT_EQ(decodeError(R"({"id":"q1"})"), ErrorCode::kBadRequest);
  EXPECT_EQ(decodeError(R"({"op":42})"), ErrorCode::kBadRequest);
}

TEST(ProtoRequestTest, SchemaViolations) {
  for (const char* line : {
           R"({"op":"query"})",                          // missing id
           R"({"op":"query","id":""})",                  // empty id
           R"({"op":"query","id":7})",                   // id not a string
           R"({"op":"query","id":"q","q":1.5})",         // q out of range
           R"({"op":"query","id":"q","q":"hi"})",        // q not a number
           R"({"op":"query","id":"q","k":-1})",          // negative k
           R"({"op":"query","id":"q","k":2.5})",         // fractional k
           R"({"op":"query","id":"q","algo":"quantum"})",
           R"({"op":"query","id":"q","priority":"urgent"})",
           R"({"op":"query","id":"q","on_failure":"explode"})",
           R"({"op":"query","id":"q","tenant":""})",
           R"({"op":"query","id":"q","progressive":"yes"})",
           R"({"op":"query","id":"q","retries":17})",    // > 16
           R"({"op":"query","id":"q","window":[1,2]})",  // not an object
           R"({"op":"query","id":"q","window":{"lo":[0],"hi":[0,1]}})",
           R"({"op":"query","id":"q","window":{"lo":[1],"hi":[0]}})",
           R"({"op":"query","id":"q","window":{"lo":[],"hi":[]}})",
           R"({"op":"cancel"})",                         // cancel without id
       }) {
    EXPECT_EQ(decodeError(line), ErrorCode::kBadRequest) << line;
  }
}

TEST(ProtoRequestTest, OversizedFieldsAreRejected) {
  const std::string longId(129, 'x');
  EXPECT_EQ(decodeError(R"({"op":"query","id":")" + longId + "\"}"),
            ErrorCode::kBadRequest);
  const std::string longTenant(65, 't');
  EXPECT_EQ(decodeError(R"({"op":"query","id":"q","tenant":")" + longTenant +
                        "\"}"),
            ErrorCode::kBadRequest);
}

// ---------------------------------------------------------------------------
// Response round-trips

TEST(ProtoResponseTest, AckRoundTrip) {
  AckResponse r;
  r.id = "q1";
  r.query = 42;
  const Response decoded = decodeResponse(encodeResponse(r));
  ASSERT_TRUE(std::holds_alternative<AckResponse>(decoded));
  EXPECT_EQ(std::get<AckResponse>(decoded), r);
}

TEST(ProtoResponseTest, AnswerRoundTrip) {
  AnswerResponse r;
  r.id = "q1";
  r.seq = 3;
  r.entry.site = 2;
  r.entry.tuple = Tuple(17, {0.25, 0.5, 0.125}, 0.75);
  r.entry.localSkyProb = 0.875;
  r.entry.globalSkyProb = 0.8125;
  const Response decoded = decodeResponse(encodeResponse(r));
  ASSERT_TRUE(std::holds_alternative<AnswerResponse>(decoded));
  EXPECT_EQ(std::get<AnswerResponse>(decoded), r);
}

TEST(ProtoResponseTest, DoneRoundTrip) {
  DoneResponse r;
  r.id = "q1";
  r.answers = 33;
  r.degraded = true;
  r.excluded = {1, 4};
  r.stats.tuplesShipped = 231;
  r.stats.bytesShipped = 18289;
  r.stats.roundTrips = 246;
  r.stats.candidatesPulled = 40;
  r.stats.broadcasts = 6;
  r.stats.expunged = 7;
  r.stats.prunedAtSites = 100;
  r.stats.seconds = 0.0028;
  const Response decoded = decodeResponse(encodeResponse(r));
  ASSERT_TRUE(std::holds_alternative<DoneResponse>(decoded));
  EXPECT_EQ(std::get<DoneResponse>(decoded), r);
}

TEST(ProtoResponseTest, DoneWithProfileRoundTrip) {
  DoneResponse r;
  r.id = "q9";
  r.answers = 12;
  r.stats.tuplesShipped = 40;
  r.stats.seconds = 0.01;

  QueryProfile profile;
  profile.algo = "edsud";
  profile.cache = "miss";
  profile.batch = "leader";
  profile.batchWidth = 3;
  profile.failovers = 1;
  profile.prepareSeconds = 0.001;
  profile.executeSeconds = 0.025;
  profile.finalizeSeconds = 0.0005;
  SiteProfile alive;
  alive.site = 0;
  alive.rounds = 4;
  alive.tuples = 25;
  alive.bytes = 1200;
  alive.candidates = 30;
  alive.pruned = 970;
  SiteProfile fallen;
  fallen.site = 1;
  fallen.rounds = 1;
  fallen.tuples = 15;
  fallen.bytes = 720;
  fallen.retries = 2;
  fallen.failovers = 1;
  fallen.dead = true;
  profile.sites = {alive, fallen};
  r.profile = profile;

  const Response decoded = decodeResponse(encodeResponse(r));
  ASSERT_TRUE(std::holds_alternative<DoneResponse>(decoded));
  EXPECT_EQ(std::get<DoneResponse>(decoded), r);

  // Without the block, the option stays disengaged after a round-trip —
  // profiles never materialise out of thin air on the client side.
  DoneResponse bare;
  bare.id = "q10";
  const Response plain = decodeResponse(encodeResponse(bare));
  ASSERT_TRUE(std::holds_alternative<DoneResponse>(plain));
  EXPECT_FALSE(std::get<DoneResponse>(plain).profile.has_value());
}

TEST(ProtoRequestTest, ProfileFlagRoundTrip) {
  QueryRequest r;
  r.id = "explain";
  r.profile = true;
  const Request decoded = decodeRequest(encodeRequest(r));
  ASSERT_TRUE(std::holds_alternative<QueryRequest>(decoded));
  EXPECT_TRUE(std::get<QueryRequest>(decoded).profile);
  EXPECT_EQ(std::get<QueryRequest>(decoded), r);
}

TEST(ProtoResponseTest, ErrorRoundTripEveryCode) {
  for (const ErrorCode code :
       {ErrorCode::kBadRequest, ErrorCode::kUnknownOp, ErrorCode::kOversized,
        ErrorCode::kOverloaded, ErrorCode::kUnavailable, ErrorCode::kCancelled,
        ErrorCode::kInternal}) {
    ErrorResponse r;
    r.id = "q9";
    r.code = code;
    r.message = "because";
    r.retryAfterMs = code == ErrorCode::kOverloaded ? 250 : 0;
    const Response decoded = decodeResponse(encodeResponse(r));
    ASSERT_TRUE(std::holds_alternative<ErrorResponse>(decoded));
    EXPECT_EQ(std::get<ErrorResponse>(decoded), r);
  }
}

TEST(ProtoResponseTest, PongAndStatsRoundTrip) {
  EXPECT_TRUE(std::holds_alternative<PongResponse>(
      decodeResponse(encodeResponse(PongResponse{}))));
  StatsResponse r;
  r.active = 2;
  r.queued = 5;
  r.admitted = 100;
  r.shed = 7;
  const Response decoded = decodeResponse(encodeResponse(r));
  ASSERT_TRUE(std::holds_alternative<StatsResponse>(decoded));
  EXPECT_EQ(std::get<StatsResponse>(decoded), r);
}

TEST(ProtoResponseTest, AdminRoundTrip) {
  AdminResponse response;
  response.id = "a1";
  response.epoch = 5;
  response.members = {0, 1, 3, 4};
  response.partitions.push_back(PartitionDesc{0, {0, 1}});
  response.partitions.push_back(PartitionDesc{1, {1, 3}});
  const Response decoded = decodeResponse(encodeResponse(response));
  ASSERT_TRUE(std::holds_alternative<AdminResponse>(decoded));
  EXPECT_EQ(std::get<AdminResponse>(decoded), response);

  // add-site carries the new member's id; kNoSite is elided on the wire
  // and restored on decode.
  response.site = 4;
  const Response withSite = decodeResponse(encodeResponse(response));
  EXPECT_EQ(std::get<AdminResponse>(withSite), response);
}

TEST(ProtoResponseTest, UintFieldAtTwoToTheSixtyFourIsRejected) {
  // static_cast<double>(UINT64_MAX) rounds up to exactly 2^64, so a naive
  // `d > (double)hi` range check would let 18446744073709551616 through
  // into an undefined uint64 cast.  It must be a clean decode error.
  for (const char* line :
       {R"({"type":"done","id":"q1","answers":18446744073709551616})",
        R"({"type":"done","id":"q1","answers":18446744073709551615})",
        R"({"type":"done","id":"q1","answers":1e300})"}) {
    EXPECT_THROW(decodeResponse(line), ProtoError) << line;
  }
  // Large-but-representable values still decode exactly.
  const Response decoded =
      decodeResponse(R"({"type":"done","id":"q1","answers":9007199254740992})");
  ASSERT_TRUE(std::holds_alternative<DoneResponse>(decoded));
  EXPECT_EQ(std::get<DoneResponse>(decoded).answers, 9007199254740992u);
}

TEST(ProtoResponseTest, HostileSiteIdsAreBadRequests) {
  // Every site id is read through the checked integer path: negative,
  // fractional and beyond-u32 ids are refused, never cast.
  for (const char* line :
       {R"({"type":"done","id":"q","excluded":[-1]})",
        R"({"type":"done","id":"q","excluded":[1.5]})",
        R"({"type":"done","id":"q","excluded":[5e12]})",
        R"({"type":"admin","id":"a","members":[-7]})",
        R"({"type":"admin","id":"a","members":[2.5]})",
        R"({"type":"admin","id":"a","members":[4294967296]})",
        R"({"type":"admin","id":"a","partitions":[{"id":0,"hosts":[5e12]}]})",
        R"({"type":"admin","id":"a","partitions":[{"id":0,"hosts":[-1]}]})",
        R"({"type":"admin","id":"a","partitions":[{"id":0,"hosts":[0.5]}]})",
        R"({"type":"answer","id":"q","site":-3,)"
        R"("tuple":{"id":1,"prob":0.5,"values":[1]}})"}) {
    try {
      decodeResponse(line);
      ADD_FAILURE() << "decoded: " << line;
    } catch (const ProtoError& error) {
      EXPECT_EQ(error.code(), ErrorCode::kBadRequest) << line;
    }
  }
  // The largest site id still decodes.
  const Response members =
      decodeResponse(R"({"type":"admin","id":"a","members":[4294967295]})");
  EXPECT_EQ(std::get<AdminResponse>(members).members,
            std::vector<SiteId>{4294967295u});
}

TEST(ProtoResponseTest, MalformedResponsesThrow) {
  for (const char* line :
       {"", "{", R"({"type":"telemetry"})", R"({"id":"q1"})",
        R"({"type":"answer","id":"q1","seq":1})",  // missing tuple
        R"({"type":"answer","id":"q1","seq":1,"tuple":[1]})",
        R"({"type":"error","id":"q1","code":"catastrophic"})",
        R"({"type":"done","id":"q1","excluded":"none"})",
        R"({"type":"done","id":"q1","stats":[1,2]})"}) {
    EXPECT_THROW(decodeResponse(line), ProtoError) << line;
  }
}

// ---------------------------------------------------------------------------
// Error-code names

TEST(ProtoErrorCodeTest, NamesRoundTrip) {
  for (const ErrorCode code :
       {ErrorCode::kBadRequest, ErrorCode::kUnknownOp, ErrorCode::kOversized,
        ErrorCode::kOverloaded, ErrorCode::kUnavailable, ErrorCode::kCancelled,
        ErrorCode::kInternal}) {
    const auto parsed = errorCodeFromName(errorCodeName(code));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, code);
  }
  EXPECT_FALSE(errorCodeFromName("no_such_code").has_value());
}

// ---------------------------------------------------------------------------
// Mutation fuzzer: every truncation and a fixed count of seeded byte
// mutations of every golden line go through the decoder.  Each must decode
// (and then re-encode) or throw ProtoError; anything else is a defect.

struct FuzzTally {
  std::size_t decoded = 0;
  std::size_t rejected = 0;
};

template <typename Decode, typename Encode>
void fuzzLine(const std::string& line, Decode decode, Encode encode,
              std::mt19937_64& rng, FuzzTally& tally) {
  // Bytes that keep a mutant near valid JSON, so the field walker (not only
  // the parser) sees it, plus any byte at all.
  static constexpr std::string_view kAlphabet = "{}[]\":,-.0123456789eE tfn";
  constexpr int kFlipsPerLine = 400;
  const auto attempt = [&](const std::string& mutant) {
    try {
      const auto decoded = decode(mutant);
      std::visit([&](const auto& m) { encode(m); }, decoded);
      ++tally.decoded;
    } catch (const ProtoError&) {
      ++tally.rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << e.what() << " escaped on: " << mutant;
    }
  };
  for (std::size_t n = 0; n < line.size(); ++n) attempt(line.substr(0, n));
  for (int trial = 0; trial < kFlipsPerLine; ++trial) {
    std::string mutant = line;
    const int edits = 1 + static_cast<int>(rng() % 3);
    for (int e = 0; e < edits; ++e) {
      char& c = mutant[rng() % mutant.size()];
      c = rng() % 2 == 0 ? kAlphabet[rng() % kAlphabet.size()]
                         : static_cast<char>(rng());
    }
    attempt(mutant);
  }
}

TEST(ProtoFuzzTest, MutatedGoldenLinesDecodeOrThrowProtoError) {
  const auto start = std::chrono::steady_clock::now();
  std::mt19937_64 rng(29);
  FuzzTally requests;
  for (const auto& [request, line] : goldenRequests()) {
    fuzzLine(
        line, [](std::string_view l) { return decodeRequest(l); },
        [](const auto& m) { return encodeRequest(m); }, rng, requests);
  }
  FuzzTally responses;
  for (const auto& [response, line] : goldenResponses()) {
    fuzzLine(
        line, [](std::string_view l) { return decodeResponse(l); },
        [](const auto& m) { return encodeResponse(m); }, rng, responses);
  }
  // Some mutants must get through the parser to the field walker.
  EXPECT_GT(requests.decoded, 100u);
  EXPECT_GT(responses.decoded, 100u);
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  std::printf("fuzz: requests %zu decoded / %zu rejected, responses %zu / "
              "%zu, %.3f s\n",
              requests.decoded, requests.rejected, responses.decoded,
              responses.rejected, seconds);
}

}  // namespace
}  // namespace dsud::server
