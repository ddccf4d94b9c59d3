// One fixed, valid sample of every site request and every response.
//
// The golden wire-bytes test pins the frame of each sample (a request frame
// starts with the request's declared type byte); the robustness
// tests cut and corrupt the same frames; SiteServerTest replays the requests
// against a two-dimensional store in list order.  The order is one a fresh
// staging store (site 0) accepts: stream, seal, query, maintain, drain.
#pragma once

#include <tuple>

#include "core/protocol.hpp"

namespace dsud::testutil {

inline Rect sampleWindow() {
  Rect window(2);
  window.expand(std::vector<double>{0.0, 0.0});
  window.expand(std::vector<double>{8.0, 8.0});
  return window;
}

inline obs::QueryTrace sampleSiteTrace() {
  obs::QueryTrace trace;
  obs::TraceEvent prepare;
  prepare.name = "site.prepare";
  prepare.startNs = 1'000;
  prepare.endNs = 2'500;
  prepare.attrs = {{"tuples", 4.0}, {"pruned", 1.0}};
  obs::TraceEvent next;
  next.name = "site.next";
  next.startNs = 3'000;
  next.attrs = {{"seq", 1.0}};
  trace.events = {prepare, next};
  trace.droppedEvents = 7;
  return trace;
}

/// Every request type, in an order a fresh staging store 0 of dims 2 serves.
inline auto sampleRequests() {
  StreamTuplesRequest stream;
  stream.partition = 0;
  stream.seq = 1;
  stream.tuples = {Tuple{1, {1.0, 2.0}, 0.5}, Tuple{2, {2.0, 1.0}, 0.625}};

  PrepareRequest prepare;
  prepare.query = 1;
  prepare.q = 0.3;
  prepare.mask = 0b11;
  prepare.prune = PruneRule::kThresholdBound;
  prepare.window = sampleWindow();
  prepare.traceCapacity = 16;

  EvaluateRequest evaluate;
  evaluate.query = 1;
  evaluate.tuple = Tuple{9, {0.5, 3.0}, 0.75};
  evaluate.mask = 0b11;
  evaluate.pruneLocal = true;
  evaluate.window = sampleWindow();
  evaluate.seq = 1;

  RepairDeleteRequest repair;
  repair.deleted = Tuple{11, {0.25, 0.25}, 0.5};
  repair.origin = 1;
  repair.q = 0.3;
  repair.mask = 0;

  ReplicaAddRequest replicaAdd;
  replicaAdd.entry = Candidate{1, Tuple{12, {3.0, 0.5}, 0.375}, 0.25};
  replicaAdd.globalSkyProb = 0.125;

  return std::tuple{
      stream,
      JoinSiteRequest{2},
      prepare,
      NextCandidateRequest{1, 1},
      evaluate,
      ShipAllRequest{},
      ApplyInsertRequest{Tuple{10, {0.5, 0.5}, 0.875}},
      ApplyDeleteRequest{10, {0.5, 0.5}},
      repair,
      replicaAdd,
      ReplicaRemoveRequest{12},
      FetchTraceRequest{1},
      FinishQueryRequest{1},
      LeaveSiteRequest{3},
  };
}

/// Every response type, once each.
inline auto sampleResponses() {
  ApplyInsertResponse inserted;
  inserted.localSkyProb = 0.5;
  inserted.globalUpperBound = 0.25;
  inserted.dominatedReplica = {4, 5};
  inserted.datasetVersion = 41;

  ApplyDeleteResponse deleted;
  deleted.existed = true;
  deleted.prob = 0.875;
  deleted.datasetVersion = 42;

  FetchTraceResponse trace;
  trace.trace = sampleSiteTrace();

  return std::tuple{
      StreamTuplesResponse{2},
      JoinSiteResponse{2},
      PrepareResponse{1},
      NextCandidateResponse{Candidate{0, Tuple{1, {1.0, 2.0}, 0.5}, 0.5}},
      EvaluateResponse{0.25, 1},
      ShipAllResponse{{Tuple{1, {1.0, 2.0}, 0.5}, Tuple{2, {2.0, 1.0}, 0.625}}},
      inserted,
      deleted,
      RepairDeleteResponse{{Candidate{0, Tuple{2, {2.0, 1.0}, 0.625}, 0.625}}},
      AckResponse{},
      trace,
      LeaveSiteResponse{0},
  };
}

}  // namespace dsud::testutil
