// Minimal JSON document model for the client protocol (src/server/proto.hpp).
//
// The daemon speaks line-delimited JSON to arbitrary clients, so unlike the
// binary site protocol (core/protocol.hpp) the decoder here must survive
// hostile input: parse() bounds nesting depth, validates UTF-8 in strings,
// rejects trailing garbage, and reports every failure as a JsonError that
// the connection turns into a clean `error` response — never a crash or a
// desynchronised stream.  No external dependency: the repo builds with the
// toolchain alone.
//
// Numbers are IEEE doubles.  dump() prints integral values in [-2^53, 2^53]
// without an exponent or fraction and everything else with %.17g, so a
// double survives a dump/parse round trip bit for bit — the server tests
// rely on this to compare streamed answers against direct QueryEngine runs.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace dsud::server {

/// Any malformed-document condition: syntax, depth, UTF-8, size.
class JsonError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One JSON value.  Objects preserve insertion order (deterministic output)
/// and are expected to stay small, so lookup is linear.
class Json {
 public:
  using Array = std::vector<Json>;
  using Member = std::pair<std::string, Json>;
  using Object = std::vector<Member>;

  Json() noexcept : value_(nullptr) {}
  Json(std::nullptr_t) noexcept : value_(nullptr) {}
  Json(bool b) noexcept : value_(b) {}
  /// One constructor for every arithmetic type — individual overloads would
  /// leave uint32_t/float callers ambiguous between the wider candidates.
  template <typename T,
            std::enable_if_t<std::is_arithmetic_v<T> &&
                                 !std::is_same_v<T, bool>,
                             int> = 0>
  Json(T number) noexcept : value_(static_cast<double>(number)) {}
  Json(const char* s) : value_(std::string(s)) {}
  Json(std::string s) : value_(std::move(s)) {}
  Json(Array a) : value_(std::move(a)) {}
  Json(Object o) : value_(std::move(o)) {}

  static Json array() { return Json(Array{}); }
  static Json object() { return Json(Object{}); }

  bool isNull() const noexcept { return holds<std::nullptr_t>(); }
  bool isBool() const noexcept { return holds<bool>(); }
  bool isNumber() const noexcept { return holds<double>(); }
  bool isString() const noexcept { return holds<std::string>(); }
  bool isArray() const noexcept { return holds<Array>(); }
  bool isObject() const noexcept { return holds<Object>(); }

  /// Typed accessors throw JsonError on kind mismatch, so codec code can
  /// funnel every schema violation through one catch.
  bool asBool() const { return get<bool>("bool"); }
  double asNumber() const { return get<double>("number"); }
  const std::string& asString() const { return get<std::string>("string"); }
  const Array& asArray() const { return get<Array>("array"); }
  const Object& asObject() const { return get<Object>("object"); }

  /// Object member by key; null when absent (or when not an object).
  const Json* find(std::string_view key) const noexcept;

  /// Appends a member (object) / element (array); throws on kind mismatch.
  Json& set(std::string key, Json value);
  Json& push(Json value);

  /// Serialises the value on one line (no newline, no insignificant
  /// whitespace) — exactly the framing the client protocol ships.
  std::string dump() const;
  void dumpTo(std::string& out) const;

  /// Parses exactly one document covering all of `text` (leading/trailing
  /// ASCII whitespace allowed).  Throws JsonError on anything else.
  static Json parse(std::string_view text);

  friend bool operator==(const Json&, const Json&) = default;

 private:
  template <typename T>
  bool holds() const noexcept {
    return std::holds_alternative<T>(value_);
  }
  template <typename T>
  const T& get(const char* kind) const {
    if (const T* v = std::get_if<T>(&value_)) return *v;
    throw JsonError(std::string("expected ") + kind);
  }

  std::variant<std::nullptr_t, bool, double, std::string, Array, Object>
      value_;
};

/// Appends `text` as a quoted JSON string (escaping quotes, backslashes and
/// control characters).  Assumes valid UTF-8 — the parser guarantees it for
/// anything that came off the wire.
void appendJsonString(std::string& out, std::string_view text);

/// Appends `v` as dump() prints numbers: integral values in [-2^53, 2^53]
/// without an exponent or fraction, everything else with %.17g.
void appendJsonNumber(std::string& out, double v);

/// True when `text` is well-formed UTF-8 (no overlong forms, no surrogates,
/// max U+10FFFF).  The parser applies this to every string literal so the
/// daemon never echoes invalid byte sequences back at other clients.
bool isValidUtf8(std::string_view text);

}  // namespace dsud::server
