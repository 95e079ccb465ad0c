#include "telemetry/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "support/error.hpp"

namespace mfbc::telemetry {

bool Json::as_bool() const {
  MFBC_CHECK(is_bool(), "json value is not a bool");
  return std::get<bool>(v_);
}

double Json::as_double() const {
  MFBC_CHECK(is_number(), "json value is not a number");
  return std::get<double>(v_);
}

const std::string& Json::as_string() const {
  MFBC_CHECK(is_string(), "json value is not a string");
  return std::get<std::string>(v_);
}

std::size_t Json::size() const {
  if (is_array()) return std::get<Array>(v_).size();
  if (is_object()) return std::get<Object>(v_).size();
  return 0;
}

Json& Json::push(Json v) {
  if (is_null()) v_ = Array{};
  MFBC_CHECK(is_array(), "json push on a non-array");
  std::get<Array>(v_).push_back(std::move(v));
  return *this;
}

const Json& Json::at(std::size_t i) const {
  MFBC_CHECK(is_array(), "json index on a non-array");
  const Array& a = std::get<Array>(v_);
  MFBC_CHECK(i < a.size(), "json array index out of range");
  return a[i];
}

Json& Json::operator[](std::string_view key) {
  if (is_null()) v_ = Object{};
  MFBC_CHECK(is_object(), "json key access on a non-object");
  Object& o = std::get<Object>(v_);
  for (auto& [k, v] : o) {
    if (k == key) return v;
  }
  o.emplace_back(std::string(key), Json());
  return o.back().second;
}

const Json* Json::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : std::get<Object>(v_)) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Json& Json::at(std::string_view key) const {
  const Json* v = find(key);
  MFBC_CHECK(v != nullptr, "json key not found: " + std::string(key));
  return *v;
}

const Json::Object& Json::items() const {
  MFBC_CHECK(is_object(), "json items() on a non-object");
  return std::get<Object>(v_);
}

namespace {

void escape_to(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void number_to(std::string& out, double d) {
  // Non-finite values are not representable in JSON; clamp to null.
  if (!std::isfinite(d)) {
    out += "null";
    return;
  }
  // Integers (the common case: counters, nnz, iteration numbers) print
  // without an exponent or trailing zeros.
  if (d == std::floor(d) && std::fabs(d) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", d);
    out += buf;
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", d);
  out += buf;
}

}  // namespace

void Json::dump_to(std::string& out, int indent, int depth) const {
  const bool pretty = indent >= 0;
  auto newline = [&](int d) {
    if (!pretty) return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent * d), ' ');
  };
  switch (type()) {
    case Type::kNull: out += "null"; break;
    case Type::kBool: out += std::get<bool>(v_) ? "true" : "false"; break;
    case Type::kNumber: number_to(out, std::get<double>(v_)); break;
    case Type::kString: escape_to(out, std::get<std::string>(v_)); break;
    case Type::kArray: {
      const Array& a = std::get<Array>(v_);
      out += '[';
      for (std::size_t i = 0; i < a.size(); ++i) {
        if (i != 0) out += ',';
        newline(depth + 1);
        a[i].dump_to(out, indent, depth + 1);
      }
      if (!a.empty()) newline(depth);
      out += ']';
      break;
    }
    case Type::kObject: {
      const Object& o = std::get<Object>(v_);
      out += '{';
      for (std::size_t i = 0; i < o.size(); ++i) {
        if (i != 0) out += ',';
        newline(depth + 1);
        escape_to(out, o[i].first);
        out += pretty ? ": " : ":";
        o[i].second.dump_to(out, indent, depth + 1);
      }
      if (!o.empty()) newline(depth);
      out += '}';
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

namespace {

/// Deepest array/object nesting parse accepts. The parser recurses once per
/// bracket, so unbounded nesting would overflow the stack; the exporters
/// write a handful of levels.
constexpr int kMaxDepth = 512;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json run() {
    Json v = value();
    skip_ws();
    MFBC_CHECK(pos_ == text_.size(),
               "json parse error: trailing garbage at offset " +
                   std::to_string(pos_));
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) {
    throw Error("json parse error: " + what + " at offset " +
                std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Json value() {
    skip_ws();
    switch (peek()) {
      case '{':
      case '[': return nested();
      case '"': return Json(string());
      case 't': if (consume("true")) return Json(true); fail("bad literal");
      case 'f': if (consume("false")) return Json(false); fail("bad literal");
      case 'n': if (consume("null")) return Json(nullptr); fail("bad literal");
      default: return number();
    }
  }

  Json nested() {
    if (depth_ == kMaxDepth) {
      fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
    }
    ++depth_;
    Json v = peek() == '{' ? object() : array();
    --depth_;
    return v;
  }

  Json object() {
    expect('{');
    Json o = Json::object();
    skip_ws();
    if (peek() == '}') { ++pos_; return o; }
    while (true) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      o[key] = value();
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      expect('}');
      return o;
    }
  }

  Json array() {
    expect('[');
    Json a = Json::array();
    skip_ws();
    if (peek() == ']') { ++pos_; return a; }
    while (true) {
      a.push(value());
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      expect(']');
      return a;
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') { out += c; continue; }
      if (pos_ >= text_.size()) fail("unterminated escape");
      char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code += static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code += static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          // UTF-8 encode the BMP code point (surrogate pairs unsupported —
          // the exporters never emit them).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail("bad escape");
      }
    }
  }

  Json number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    double d = 0;
    const auto res = std::from_chars(text_.data() + start, text_.data() + pos_, d);
    if (res.ec != std::errc() || res.ptr != text_.data() + pos_ ||
        pos_ == start) {
      fail("bad number");
    }
    return Json(d);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Json Json::parse(std::string_view text) { return Parser(text).run(); }

}  // namespace mfbc::telemetry
