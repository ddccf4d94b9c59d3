#include "server/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "obs/export.hpp"

namespace dsud::server {

namespace {

/// Hostile-input bound: a document nested deeper than this is rejected
/// before the recursion can exhaust the stack.
constexpr std::size_t kMaxDepth = 64;

struct Parser {
  std::string_view text;
  std::size_t pos = 0;

  [[noreturn]] void fail(const std::string& what) const {
    throw JsonError(what + " at offset " + std::to_string(pos));
  }

  bool atEnd() const noexcept { return pos >= text.size(); }
  char peek() const noexcept { return text[pos]; }

  void skipWs() {
    while (!atEnd()) {
      const char c = text[pos];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos;
    }
  }

  void expect(char c) {
    if (atEnd() || text[pos] != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos;
  }

  bool consume(char c) {
    if (!atEnd() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }

  bool consumeWord(std::string_view word) {
    if (text.substr(pos, word.size()) != word) return false;
    pos += word.size();
    return true;
  }

  Json parseValue(std::size_t depth) {
    if (depth > kMaxDepth) fail("document too deeply nested");
    skipWs();
    if (atEnd()) fail("unexpected end of input");
    const char c = peek();
    switch (c) {
      case '{':
        return parseObject(depth);
      case '[':
        return parseArray(depth);
      case '"':
        return Json(parseString());
      case 't':
        if (consumeWord("true")) return Json(true);
        fail("invalid literal");
      case 'f':
        if (consumeWord("false")) return Json(false);
        fail("invalid literal");
      case 'n':
        if (consumeWord("null")) return Json(nullptr);
        fail("invalid literal");
      default:
        return parseNumber();
    }
  }

  Json parseObject(std::size_t depth) {
    expect('{');
    Json::Object members;
    skipWs();
    if (consume('}')) return Json(std::move(members));
    while (true) {
      skipWs();
      if (atEnd() || peek() != '"') fail("expected object key");
      std::string key = parseString();
      skipWs();
      expect(':');
      members.emplace_back(std::move(key), parseValue(depth + 1));
      skipWs();
      if (consume(',')) continue;
      expect('}');
      return Json(std::move(members));
    }
  }

  Json parseArray(std::size_t depth) {
    expect('[');
    Json::Array items;
    skipWs();
    if (consume(']')) return Json(std::move(items));
    while (true) {
      items.push_back(parseValue(depth + 1));
      skipWs();
      if (consume(',')) continue;
      expect(']');
      return Json(std::move(items));
    }
  }

  /// JSON number grammar checked by hand (strtod alone would admit "nan",
  /// "inf", hex floats, and leading '+'), then converted with strtod so the
  /// value matches what the writer's %.17g round-trips.
  Json parseNumber() {
    const std::size_t start = pos;
    consume('-');
    if (atEnd() || !isDigit(peek())) fail("invalid number");
    if (!consume('0')) {
      while (!atEnd() && isDigit(peek())) ++pos;
    }
    if (consume('.')) {
      if (atEnd() || !isDigit(peek())) fail("invalid number");
      while (!atEnd() && isDigit(peek())) ++pos;
    }
    if (!atEnd() && (peek() == 'e' || peek() == 'E')) {
      ++pos;
      if (!atEnd() && (peek() == '+' || peek() == '-')) ++pos;
      if (atEnd() || !isDigit(peek())) fail("invalid number");
      while (!atEnd() && isDigit(peek())) ++pos;
    }
    const std::string token(text.substr(start, pos - start));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) fail("invalid number");
    if (!std::isfinite(value)) fail("number out of range");
    return Json(value);
  }

  static bool isDigit(char c) noexcept { return c >= '0' && c <= '9'; }

  std::string parseString() {
    expect('"');
    std::string out;
    while (true) {
      if (atEnd()) fail("unterminated string");
      const unsigned char c = static_cast<unsigned char>(text[pos]);
      if (c == '"') {
        ++pos;
        break;
      }
      if (c == '\\') {
        ++pos;
        if (atEnd()) fail("unterminated escape");
        const char e = text[pos++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': appendEscapedCodepoint(out); break;
          default: fail("invalid escape");
        }
        continue;
      }
      if (c < 0x20) fail("unescaped control character");
      out += static_cast<char>(c);
      ++pos;
    }
    if (!isValidUtf8(out)) fail("invalid UTF-8 in string");
    return out;
  }

  std::uint32_t parseHex4() {
    if (pos + 4 > text.size()) fail("truncated \\u escape");
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text[pos++];
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<std::uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<std::uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<std::uint32_t>(c - 'A' + 10);
      } else {
        fail("invalid \\u escape");
      }
    }
    return v;
  }

  /// \uXXXX after the backslash-u was consumed; handles surrogate pairs.
  void appendEscapedCodepoint(std::string& out) {
    std::uint32_t cp = parseHex4();
    if (cp >= 0xD800 && cp <= 0xDBFF) {
      if (!consumeWord("\\u")) fail("unpaired surrogate");
      const std::uint32_t low = parseHex4();
      if (low < 0xDC00 || low > 0xDFFF) fail("invalid low surrogate");
      cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
    } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
      fail("unpaired surrogate");
    }
    appendUtf8(out, cp);
  }

  static void appendUtf8(std::string& out, std::uint32_t cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }
};

}  // namespace

void appendJsonNumber(std::string& out, double v) {
  // Integral doubles in the exactly-representable range print as integers:
  // tuple ids and counts stay readable, and strtod parses them back to the
  // identical double.
  if (v == std::floor(v) && std::abs(v) <= 9007199254740992.0) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", v);
    out += buf;
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

bool isValidUtf8(std::string_view text) {
  std::size_t i = 0;
  while (i < text.size()) {
    const unsigned char c = static_cast<unsigned char>(text[i]);
    std::size_t extra;
    std::uint32_t cp;
    if (c < 0x80) {
      ++i;
      continue;
    } else if ((c & 0xE0) == 0xC0) {
      extra = 1;
      cp = c & 0x1F;
    } else if ((c & 0xF0) == 0xE0) {
      extra = 2;
      cp = c & 0x0F;
    } else if ((c & 0xF8) == 0xF0) {
      extra = 3;
      cp = c & 0x07;
    } else {
      return false;
    }
    if (i + extra + 1 > text.size()) return false;  // truncated sequence
    for (std::size_t j = 1; j <= extra; ++j) {
      const unsigned char cc = static_cast<unsigned char>(text[i + j]);
      if ((cc & 0xC0) != 0x80) return false;
      cp = (cp << 6) | (cc & 0x3F);
    }
    // Overlong forms, surrogates, and beyond-Unicode are all invalid.
    static constexpr std::uint32_t kMin[4] = {0, 0x80, 0x800, 0x10000};
    if (cp < kMin[extra]) return false;
    if (cp >= 0xD800 && cp <= 0xDFFF) return false;
    if (cp > 0x10FFFF) return false;
    i += extra + 1;
  }
  return true;
}

void appendJsonString(std::string& out, std::string_view text) {
  out += '"';
  obs::appendJsonEscaped(out, text);
  out += '"';
}

const Json* Json::find(std::string_view key) const noexcept {
  const Object* obj = std::get_if<Object>(&value_);
  if (obj == nullptr) return nullptr;
  for (const Member& m : *obj) {
    if (m.first == key) return &m.second;
  }
  return nullptr;
}

Json& Json::set(std::string key, Json value) {
  if (Object* obj = std::get_if<Object>(&value_)) {
    obj->emplace_back(std::move(key), std::move(value));
    return *this;
  }
  throw JsonError("set() on a non-object");
}

Json& Json::push(Json value) {
  if (Array* arr = std::get_if<Array>(&value_)) {
    arr->push_back(std::move(value));
    return *this;
  }
  throw JsonError("push() on a non-array");
}

void Json::dumpTo(std::string& out) const {
  if (isNull()) {
    out += "null";
  } else if (const bool* b = std::get_if<bool>(&value_)) {
    out += *b ? "true" : "false";
  } else if (const double* d = std::get_if<double>(&value_)) {
    appendJsonNumber(out, *d);
  } else if (const std::string* s = std::get_if<std::string>(&value_)) {
    appendJsonString(out, *s);
  } else if (const Array* a = std::get_if<Array>(&value_)) {
    out += '[';
    for (std::size_t i = 0; i < a->size(); ++i) {
      if (i > 0) out += ',';
      (*a)[i].dumpTo(out);
    }
    out += ']';
  } else {
    const Object& o = std::get<Object>(value_);
    out += '{';
    for (std::size_t i = 0; i < o.size(); ++i) {
      if (i > 0) out += ',';
      appendJsonString(out, o[i].first);
      out += ':';
      o[i].second.dumpTo(out);
    }
    out += '}';
  }
}

std::string Json::dump() const {
  std::string out;
  dumpTo(out);
  return out;
}

Json Json::parse(std::string_view text) {
  Parser p{text};
  Json value = p.parseValue(0);
  p.skipWs();
  if (!p.atEnd()) p.fail("trailing content after document");
  return value;
}

}  // namespace dsud::server
