#include "obs/export.hpp"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <map>
#include <string_view>

namespace dsud::obs {
namespace {

void appendDouble(std::string& out, double v) {
  char buffer[40];
  if (std::isinf(v)) {
    out += v > 0 ? "+Inf" : "-Inf";
    return;
  }
  // max_digits10 so JSON round-trips exactly; %g keeps integers compact.
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  out += buffer;
}

void appendU64(std::string& out, std::uint64_t v) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "%" PRIu64, v);
  out += buffer;
}

/// Splits `base{labels}` into its parts; `labels` excludes the braces and is
/// empty for unlabeled names.
void splitName(const std::string& name, std::string_view& base,
               std::string_view& labels) {
  const std::size_t brace = name.find('{');
  if (brace == std::string::npos) {
    base = name;
    labels = {};
    return;
  }
  base = std::string_view(name).substr(0, brace);
  labels = std::string_view(name).substr(brace + 1,
                                         name.size() - brace - 2);  // no '}'
}

/// `family NAME{labels[,extra]} value` exposition line.
void appendSeries(std::string& out, std::string_view base,
                  std::string_view labels, std::string_view suffix,
                  std::string_view extraLabel, const std::string& value) {
  out += base;
  out += suffix;
  if (!labels.empty() || !extraLabel.empty()) {
    out += '{';
    out += labels;
    if (!labels.empty() && !extraLabel.empty()) out += ',';
    out += extraLabel;
    out += '}';
  }
  out += ' ';
  out += value;
  out += '\n';
}

void appendTypeLine(std::string& out, std::string_view base,
                    std::string_view kind, std::string& lastFamily) {
  if (lastFamily == base) return;  // one TYPE line per family
  lastFamily.assign(base);
  out += "# TYPE ";
  out += base;
  out += ' ';
  out += kind;
  out += '\n';
}

}  // namespace

void appendJsonEscaped(std::string& out, std::string_view text) {
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
}

std::string metricsToJson(const MetricsSnapshot& snapshot) {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : snapshot.counters) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"";
    appendJsonEscaped(out, name);
    out += "\": ";
    appendU64(out, value);
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : snapshot.gauges) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"";
    appendJsonEscaped(out, name);
    out += "\": ";
    appendDouble(out, value);
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"histograms\": {";
  first = true;
  for (const auto& h : snapshot.histograms) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"";
    appendJsonEscaped(out, h.name);
    out += "\": {\"bounds\": [";
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      if (i != 0) out += ", ";
      appendDouble(out, h.bounds[i]);
    }
    out += "], \"buckets\": [";
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      if (i != 0) out += ", ";
      appendU64(out, h.buckets[i]);
    }
    out += "], \"count\": ";
    appendU64(out, h.count);
    out += ", \"sum\": ";
    appendDouble(out, h.sum);
    out += ", \"p50\": ";
    appendDouble(out, h.quantile(0.50));
    out += ", \"p95\": ";
    appendDouble(out, h.quantile(0.95));
    out += ", \"p99\": ";
    appendDouble(out, h.quantile(0.99));
    out += "}";
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

std::string metricsToPrometheus(const MetricsSnapshot& snapshot) {
  std::string out;
  std::string lastFamily;

  for (const auto& [name, value] : snapshot.counters) {
    std::string_view base, labels;
    splitName(name, base, labels);
    appendTypeLine(out, base, "counter", lastFamily);
    std::string v;
    appendU64(v, value);
    appendSeries(out, base, labels, "", "", v);
  }

  lastFamily.clear();
  for (const auto& [name, value] : snapshot.gauges) {
    std::string_view base, labels;
    splitName(name, base, labels);
    appendTypeLine(out, base, "gauge", lastFamily);
    std::string v;
    appendDouble(v, value);
    appendSeries(out, base, labels, "", "", v);
  }

  lastFamily.clear();
  for (const auto& h : snapshot.histograms) {
    std::string_view base, labels;
    splitName(h.name, base, labels);
    appendTypeLine(out, base, "histogram", lastFamily);
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      cumulative += h.buckets[i];
      std::string le = "le=\"";
      if (i < h.bounds.size()) {
        appendDouble(le, h.bounds[i]);
      } else {
        le += "+Inf";
      }
      le += '"';
      std::string v;
      appendU64(v, cumulative);
      appendSeries(out, base, labels, "_bucket", le, v);
    }
    std::string sum;
    appendDouble(sum, h.sum);
    appendSeries(out, base, labels, "_sum", "", sum);
    std::string count;
    appendU64(count, h.count);
    appendSeries(out, base, labels, "_count", "", count);
  }
  return out;
}

std::string traceToJson(const QueryTrace& trace) {
  std::string out = "{\"dropped\": ";
  appendU64(out, trace.droppedEvents);
  out += ", \"events\": [";
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    const TraceEvent& e = trace.events[i];
    out += i == 0 ? "\n" : ",\n";
    out += "  {\"name\": \"";
    appendJsonEscaped(out, e.name);
    out += "\", \"parent\": ";
    if (e.parent == kNoSpan) {
      out += "-1";
    } else {
      appendU64(out, e.parent);
    }
    out += ", \"start_ns\": ";
    appendU64(out, e.startNs);
    out += ", \"end_ns\": ";
    appendU64(out, e.endNs);
    if (!e.attrs.empty()) {
      out += ", \"attrs\": {";
      for (std::size_t j = 0; j < e.attrs.size(); ++j) {
        if (j != 0) out += ", ";
        out += '"';
        appendJsonEscaped(out, e.attrs[j].first);
        out += "\": ";
        appendDouble(out, e.attrs[j].second);
      }
      out += '}';
    }
    out += '}';
  }
  out += trace.events.empty() ? "]}\n" : "\n]}\n";
  return out;
}

namespace {

/// Track of one event: 0 = coordinator, site + 1 for merged site spans.
/// "site.dead" is the coordinator *observing* a site failure, so it stays
/// on the coordinator track despite the prefix.
std::uint32_t perfettoTid(const TraceEvent& e) {
  const std::string_view name = e.name;
  if (!name.starts_with("site.") || name == "site.dead") return 0;
  for (const auto& [key, value] : e.attrs) {
    if (key == "site") return static_cast<std::uint32_t>(value) + 1;
  }
  return 0;
}

}  // namespace

std::string traceToPerfetto(const QueryTrace& trace) {
  std::string out = "{\"displayTimeUnit\": \"ms\", \"otherData\": "
                    "{\"droppedEvents\": ";
  appendU64(out, trace.droppedEvents);
  out += "}, \"traceEvents\": [";

  // Name the process and every track up front (metadata events).
  std::map<std::uint32_t, std::string> tracks;
  tracks.emplace(0, "coordinator");
  for (const TraceEvent& e : trace.events) {
    const std::uint32_t tid = perfettoTid(e);
    if (tid != 0) {
      tracks.emplace(tid, "site " + std::to_string(tid - 1));
    }
  }
  out += "\n  {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
         "\"tid\": 0, \"args\": {\"name\": \"dsud\"}}";
  for (const auto& [tid, label] : tracks) {
    out += ",\n  {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
           "\"tid\": ";
    appendU64(out, tid);
    out += ", \"args\": {\"name\": \"";
    appendJsonEscaped(out, label);
    out += "\"}}";
  }

  for (const TraceEvent& e : trace.events) {
    out += ",\n  {\"name\": \"";
    appendJsonEscaped(out, e.name);
    out += "\", \"cat\": \"dsud\", \"ph\": \"X\", \"pid\": 1, \"tid\": ";
    appendU64(out, perfettoTid(e));
    out += ", \"ts\": ";
    appendDouble(out, static_cast<double>(e.startNs) / 1e3);
    out += ", \"dur\": ";
    const std::uint64_t end = e.endNs == 0 ? e.startNs : e.endNs;
    appendDouble(out, static_cast<double>(end - e.startNs) / 1e3);
    if (!e.attrs.empty()) {
      out += ", \"args\": {";
      for (std::size_t j = 0; j < e.attrs.size(); ++j) {
        if (j != 0) out += ", ";
        out += '"';
        appendJsonEscaped(out, e.attrs[j].first);
        out += "\": ";
        appendDouble(out, e.attrs[j].second);
      }
      out += '}';
    }
    out += '}';
  }
  out += "\n]}\n";
  return out;
}

}  // namespace dsud::obs
