#include "server/proto.hpp"

#include <algorithm>
#include <cmath>
#include <concepts>
#include <utility>

#include "server/json.hpp"

namespace dsud::server {

namespace {

using ndjson::Field;
using ndjson::Rule;
using ndjson::field;
using ndjson::kOmitDefault;
using ndjson::kRequired;

[[noreturn]] void bad(const std::string& message) {
  throw ProtoError(ErrorCode::kBadRequest, message);
}

std::string quoted(const char* name) { return "'" + std::string(name) + "'"; }

// --- Field lists of the nested payloads ------------------------------------
//
// The messages declare theirs in proto.hpp; these payloads come from core/,
// which stays free of JSON, so their lists live here.

/// A window travels as its two corners; the reader checks their shape and
/// order before it builds the Rect.
struct Corners {
  std::vector<double> lo;
  std::vector<double> hi;
};

/// A named nested object whose fields belong to the enclosing struct.
template <typename... F>
Field<std::tuple<F...>> group(const char* name, F... f) {
  return {name, {f...}, {}};
}

template <typename T, typename U>
concept Is = std::same_as<std::remove_const_t<T>, U>;

/// A message's list is its own `fields`; the payloads' lists follow.
template <typename M>
auto fieldsOf(M& m) {
  return std::remove_const_t<M>::fields(m);
}
auto fieldsOf(Is<Tuple> auto& t) {
  return ndjson::fields(field("id", t.id),
                        field("prob", t.prob, ndjson::kProbability),
                        field("values", t.values, {.flags = kRequired}));
}
auto fieldsOf(Is<Corners> auto& c) {
  return ndjson::fields(field("lo", c.lo, {.flags = kRequired}),
                        field("hi", c.hi, {.flags = kRequired}));
}
auto fieldsOf(Is<QueryStats> auto& s) {
  return ndjson::fields(
      field("tuples_shipped", s.tuplesShipped),
      field("bytes_shipped", s.bytesShipped),
      field("round_trips", s.roundTrips),
      field("candidates_pulled", s.candidatesPulled),
      field("broadcasts", s.broadcasts), field("expunged", s.expunged),
      field("pruned_at_sites", s.prunedAtSites),
      field("seconds", s.seconds, {.lo = 0.0}));
}
auto fieldsOf(Is<SiteProfile> auto& s) {
  return ndjson::fields(
      field("site", s.site), field("rounds", s.rounds),
      field("tuples", s.tuples), field("bytes", s.bytes),
      field("candidates", s.candidates), field("pruned", s.pruned),
      field("retries", s.retries), field("failovers", s.failovers),
      field("dead", s.dead));
}
auto fieldsOf(Is<QueryProfile> auto& p) {
  constexpr Rule kLabel{.maxBytes = 16};
  constexpr Rule kSeconds{.lo = 0.0};
  return ndjson::fields(
      field("algo", p.algo, kLabel), field("cache", p.cache, kLabel),
      field("batch", p.batch, kLabel), field("batch_width", p.batchWidth),
      field("failovers", p.failovers),
      group("phases", field("prepare_s", p.prepareSeconds, kSeconds),
            field("execute_s", p.executeSeconds, kSeconds),
            field("finalize_s", p.finalizeSeconds, kSeconds)),
      field("sites", p.sites));
}
auto fieldsOf(Is<PartitionDesc> auto& p) {
  return ndjson::fields(field("id", p.id),
                        field("hosts", p.hosts, {.flags = kRequired}));
}

template <typename T>
inline constexpr bool kIsVector = false;
template <typename T>
inline constexpr bool kIsVector<std::vector<T>> = true;
template <typename T>
inline constexpr bool kIsOptional = false;
template <typename T>
inline constexpr bool kIsOptional<std::optional<T>> = true;
template <typename T>
inline constexpr bool kIsGroup = false;
template <typename... F>
inline constexpr bool kIsGroup<std::tuple<F...>> = true;

/// The default-constructed T, which a kOmitDefault field is compared with
/// when encoding.
template <typename T>
const T& defaultOf() {
  static const T value{};
  return value;
}

const char* nameOf(std::span<const char* const> names, std::size_t i) {
  return i < names.size() ? names[i] : "?";
}

// --- Writer ----------------------------------------------------------------

template <typename T>
void writeValue(std::string& out, const T& v, const Rule& rule);

/// Appends the fields of `list` that encode, each as `"name":value`, the
/// first after `sep` and the rest after commas, then closes the object.
/// `defaults` is the same list over the default-constructed struct.
template <typename... F>
void writeObject(std::string& out, const std::tuple<F...>& list,
                 const std::tuple<F...>& defaults, char sep = '{') {
  [&]<std::size_t... I>(std::index_sequence<I...>) {
    ([&](const auto& f, const auto& d) {
      using T = std::remove_cvref_t<decltype(f.value)>;
      if (!f.rule.emit) return;
      if constexpr (!kIsGroup<T>) {
        if ((f.rule.flags & kOmitDefault) && f.value == d.value) return;
      }
      out += sep;
      sep = ',';
      out += '"';
      out += f.name;
      out += "\":";
      if constexpr (kIsGroup<T>) {
        writeObject(out, f.value, d.value);
      } else {
        writeValue(out, f.value, f.rule);
      }
    }(std::get<I>(list), std::get<I>(defaults)), ...);
  }(std::index_sequence_for<F...>{});
  out += sep == '{' ? "{}" : "}";
}

template <typename T>
void writeValue(std::string& out, const T& v, const Rule& rule) {
  if constexpr (std::is_same_v<T, bool>) {
    if (rule.names.empty()) {
      out += v ? "true" : "false";
      return;
    }
  }
  if constexpr (std::is_enum_v<T> || std::is_same_v<T, bool>) {
    appendJsonString(out, nameOf(rule.names, static_cast<std::size_t>(v)));
  } else if constexpr (std::is_arithmetic_v<T>) {
    appendJsonNumber(out, static_cast<double>(v));
  } else if constexpr (std::is_same_v<T, std::string>) {
    appendJsonString(out, v);
  } else if constexpr (kIsOptional<T>) {
    if (v) {
      writeValue(out, *v, rule);
    } else {
      out += "null";
    }
  } else if constexpr (kIsVector<T>) {
    out += '[';
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i > 0) out += ',';
      writeValue(out, v[i], rule);
    }
    out += ']';
  } else if constexpr (std::is_same_v<T, Rect>) {
    const Corners corners{{v.loSpan().begin(), v.loSpan().end()},
                          {v.hiSpan().begin(), v.hiSpan().end()}};
    writeValue(out, corners, rule);
  } else {
    writeObject(out, fieldsOf(v), fieldsOf(defaultOf<T>()));
  }
}

/// `m` as `{"<tag>":"<kName>",<fields>}`, without the newline.
template <typename M>
std::string line(const char* tag, const M& m) {
  std::string out = std::string("{\"") + tag + "\":\"" + M::kName + '"';
  writeObject(out, fieldsOf(m), fieldsOf(defaultOf<M>()), ',');
  return out;
}

// --- Reader ----------------------------------------------------------------
//
// Every check names the field, so a client sees `'q' must be a number in
// [0, 1]`, not a JSON stack trace.  Unknown fields are never rejected.

template <typename T>
void readValue(const Json& v, T& out, const Rule& rule, const char* name);

template <typename... F>
void readFields(const Json& obj, const std::tuple<F...>& list,
                const char* name) {
  if (!obj.isObject()) bad(quoted(name) + " must be an object");
  std::apply(
      [&](const auto&... f) {
        ([&] {
          const Json* v = obj.find(f.name);
          if (v == nullptr) {
            if (f.rule.flags & kRequired) {
              bad("missing required field " + quoted(f.name));
            }
          } else if constexpr (kIsGroup<
                                   std::remove_cvref_t<decltype(f.value)>>) {
            readFields(*v, f.value, f.name);
          } else {
            readValue(*v, f.value, f.rule, f.name);
          }
        }(), ...);
      },
      list);
}

std::uint64_t readUint(const Json& v, std::uint64_t max, const char* name) {
  const double d = v.isNumber() ? v.asNumber() : -1.0;
  // Order matters: static_cast<double>(max) may round UINT64_MAX up to 2^64,
  // so everything >= 2^64 is rejected before the cast, which then runs
  // defined, and the final compare runs exactly, in integer space.
  if (d < 0 || d != std::floor(d) || d >= std::ldexp(1.0, 64) ||
      static_cast<std::uint64_t>(d) > max) {
    bad(quoted(name) + " must be an integer in [0, " + std::to_string(max) +
        "]");
  }
  return static_cast<std::uint64_t>(d);
}

std::optional<std::size_t> indexOf(std::span<const char* const> names,
                                   std::string_view name) {
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (name == names[i]) return i;
  }
  return std::nullopt;
}

std::size_t readName(const Json& v, std::span<const char* const> names,
                     const char* name) {
  if (v.isString()) {
    if (const auto i = indexOf(names, v.asString())) return *i;
  }
  std::string expected;
  for (const char* n : names) {
    if (!expected.empty()) expected += '|';
    expected += n;
  }
  bad(quoted(name) + " must be one of " + expected);
}

template <typename T>
void readValue(const Json& v, T& out, const Rule& rule, const char* name) {
  if constexpr (std::is_same_v<T, bool>) {
    if (!rule.names.empty()) {
      out = readName(v, rule.names, name) != 0;
    } else if (v.isBool()) {
      out = v.asBool();
    } else {
      bad(quoted(name) + " must be a boolean");
    }
  } else if constexpr (std::is_enum_v<T>) {
    out = static_cast<T>(readName(v, rule.names, name));
  } else if constexpr (std::is_unsigned_v<T>) {
    out = static_cast<T>(readUint(
        v, std::min<std::uint64_t>(rule.max, std::numeric_limits<T>::max()),
        name));
  } else if constexpr (std::is_same_v<T, double>) {
    if (!v.isNumber() || v.asNumber() < rule.lo || v.asNumber() > rule.hi) {
      std::string message = quoted(name) + " must be a number in [";
      appendJsonNumber(message, rule.lo);
      message += ", ";
      appendJsonNumber(message, rule.hi);
      bad(message + "]");
    }
    out = v.asNumber();
  } else if constexpr (std::is_same_v<T, std::string>) {
    if (!v.isString() || v.asString().size() > rule.maxBytes) {
      bad(quoted(name) + " must be a string of at most " +
          std::to_string(rule.maxBytes) + " bytes");
    }
    if ((rule.flags & ndjson::kNonEmpty) && v.asString().empty()) {
      bad(quoted(name) + " must be non-empty");
    }
    out = v.asString();
  } else if constexpr (kIsOptional<T>) {
    if (v.isNull()) {
      out.reset();
    } else {
      readValue(v, out.emplace(), rule, name);
    }
  } else if constexpr (kIsVector<T>) {
    if (!v.isArray()) bad(quoted(name) + " must be an array");
    out.clear();
    out.reserve(v.asArray().size());
    for (const Json& item : v.asArray()) {
      readValue(item, out.emplace_back(), rule, name);
    }
  } else if constexpr (std::is_same_v<T, Rect>) {
    Corners c;
    readFields(v, fieldsOf(c), name);
    if (c.lo.size() != c.hi.size() || c.lo.empty()) {
      bad(quoted(name) + " lo/hi must be equal-length non-empty arrays");
    }
    try {
      out = Rect(c.lo.size());
    } catch (const std::invalid_argument& e) {
      bad(quoted(name) + ": " + e.what());
    }
    for (std::size_t j = 0; j < c.lo.size(); ++j) {
      if (c.hi[j] < c.lo[j]) {
        bad(quoted(name) + " needs lo <= hi per dimension");
      }
    }
    out.expand(c.lo);
    out.expand(c.hi);
  } else {
    readFields(v, fieldsOf(out), name);
  }
}

// Cross-field rules, applied after the walk.

void settle(auto&, const Json&) {}

void settle(QueryRequest& r, const Json& doc) {
  // Top-k's floor defaults lower than a threshold query's q.
  if (r.k > 0 && doc.find("q") == nullptr && doc.find("floor_q") == nullptr) {
    r.q = 1e-3;
  }
}

void settle(AdminRequest& r, const Json& doc) {
  if (r.action != AdminAction::kRemoveSite) {
    r.site = kNoSite;
  } else if (doc.find("site") == nullptr) {
    bad("remove-site needs a 'site'");
  }
}

/// Parses `line` and decodes it as the alternative of Variant whose kName
/// equals its `tag` field.
template <typename Variant>
Variant decodeMessage(std::string_view line, const char* tag,
                      ErrorCode unknownCode) {
  Json doc;
  try {
    doc = Json::parse(line);
  } catch (const JsonError& e) {
    bad(std::string("malformed JSON: ") + e.what());
  }
  if (!doc.isObject()) bad("message must be a JSON object");
  const Json* kind = doc.find(tag);
  if (kind == nullptr || !kind->isString()) {
    bad("missing required string field " + quoted(tag));
  }
  std::optional<Variant> out;
  [&]<typename... M>(std::variant<M...>*) {
    (void)((kind->asString() == M::kName && [&] {
             M m{};
             readFields(doc, fieldsOf(m), M::kName);
             settle(m, doc);
             out.emplace(std::move(m));
             return true;
           }()) || ...);
  }(static_cast<Variant*>(nullptr));
  if (!out) {
    throw ProtoError(unknownCode, "unknown " + std::string(tag) + " '" +
                                      kind->asString() + "'");
  }
  return *std::move(out);
}

}  // namespace

const char* errorCodeName(ErrorCode code) noexcept {
  return nameOf(ndjson::kErrorCodeNames, static_cast<std::size_t>(code));
}

std::optional<ErrorCode> errorCodeFromName(std::string_view name) noexcept {
  const auto i = indexOf(ndjson::kErrorCodeNames, name);
  if (!i) return std::nullopt;
  return static_cast<ErrorCode>(*i);
}

const char* adminActionName(AdminAction action) noexcept {
  return nameOf(ndjson::kAdminActionNames, static_cast<std::size_t>(action));
}

const char* priorityName(Priority p) noexcept {
  return nameOf(ndjson::kPriorityNames, static_cast<std::size_t>(p));
}

Request decodeRequest(std::string_view line) {
  return decodeMessage<Request>(line, "op", ErrorCode::kUnknownOp);
}

Response decodeResponse(std::string_view line) {
  return decodeMessage<Response>(line, "type", ErrorCode::kBadRequest);
}

std::string encodeRequest(const QueryRequest& r) { return line("op", r); }
std::string encodeRequest(const PingRequest& r) { return line("op", r); }
std::string encodeRequest(const CancelRequest& r) { return line("op", r); }
std::string encodeRequest(const StatsRequest& r) { return line("op", r); }
std::string encodeRequest(const AdminRequest& r) { return line("op", r); }

std::string encodeResponse(const AckResponse& r) { return line("type", r); }
std::string encodeResponse(const AnswerResponse& r) { return line("type", r); }
std::string encodeResponse(const DoneResponse& r) { return line("type", r); }
std::string encodeResponse(const ErrorResponse& r) { return line("type", r); }
std::string encodeResponse(const PongResponse& r) { return line("type", r); }
std::string encodeResponse(const StatsResponse& r) { return line("type", r); }
std::string encodeResponse(const AdminResponse& r) { return line("type", r); }

}  // namespace dsud::server
