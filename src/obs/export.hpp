// Observability: snapshot and trace serialisation.
//
// Two metric formats are produced from the same MetricsSnapshot:
//
//   * JSON — machine-friendly dump for tooling (`dsudctl metrics
//     --format=json`); histograms carry bounds, per-bucket counts,
//     sum/count and pre-computed p50/p95/p99.
//   * Prometheus text exposition (version 0.0.4) — what a scrape endpoint
//     or `dsudctl metrics` prints.  Labeled instrument names
//     (`base{k="v"}`, built by obs::labeled) are split back into family
//     and labels; histograms expand into the conventional
//     `_bucket{le=...}` / `_sum` / `_count` series.
//
// Traces export as JSON only (a flat span list; see obs/trace.hpp).
#pragma once

#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dsud::obs {

/// Content-Type a scrape endpoint should answer with when serving
/// metricsToPrometheus output (text exposition format 0.0.4).
inline constexpr const char* kPrometheusContentType =
    "text/plain; version=0.0.4; charset=utf-8";

std::string metricsToJson(const MetricsSnapshot& snapshot);
std::string metricsToPrometheus(const MetricsSnapshot& snapshot);

std::string traceToJson(const QueryTrace& trace);

/// Chrome trace_event JSON (the "JSON Array Format" Perfetto and
/// chrome://tracing load): one complete ("ph":"X") event per span, one
/// track (tid) per site plus tid 0 for the coordinator — merged site spans
/// (names starting "site.", placed by obs::mergeSiteTraces) land on their
/// site's track, everything else on the coordinator's.  Timestamps convert
/// to microseconds as the format requires.
std::string traceToPerfetto(const QueryTrace& trace);

/// Appends `text` with JSON string escaping (quotes, backslashes, control
/// characters; the short forms where JSON has one) — the one escaper every
/// JSON writer in the tree uses, the dsudd protocol's included.
void appendJsonEscaped(std::string& out, std::string_view text);

}  // namespace dsud::obs
