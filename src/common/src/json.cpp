#include "hvc/common/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "hvc/common/error.hpp"

namespace hvc {

namespace {

/// Recursive-descent parser over a string_view with line:column tracking.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    skip_ws();
    Json value = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) {
      fail("trailing characters after JSON document");
    }
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    std::size_t line = 1;
    std::size_t col = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    throw ConfigError("JSON error at line " + std::to_string(line) + ":" +
                      std::to_string(col) + ": " + what);
  }

  [[nodiscard]] bool eof() const noexcept { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const noexcept { return text_[pos_]; }
  char get() {
    if (eof()) {
      fail("unexpected end of input");
    }
    return text_[pos_++];
  }

  void skip_ws() noexcept {
    while (!eof()) {
      const char c = peek();
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  void expect(char c) {
    if (eof() || peek() != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool consume_literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  /// `depth` counts the arrays/objects enclosing this value.
  Json parse_value(std::size_t depth) {
    if (eof()) {
      fail("unexpected end of input");
    }
    switch (peek()) {
      case '{':
        return parse_object(depth + 1);
      case '[':
        return parse_array(depth + 1);
      case '"':
        return Json(parse_string());
      case 't':
        if (consume_literal("true")) {
          return Json(true);
        }
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) {
          return Json(false);
        }
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) {
          return Json(nullptr);
        }
        fail("invalid literal");
      default:
        return parse_number();
    }
  }

  /// Arrays and objects call this with their own nesting depth (the
  /// document's top level is depth 1).
  void check_depth(std::size_t depth) const {
    if (depth > kJsonMaxDepth) {
      fail("nesting deeper than " + std::to_string(kJsonMaxDepth) +
           " levels");
    }
  }

  Json parse_object(std::size_t depth) {
    check_depth(depth);
    expect('{');
    Json::Object members;
    skip_ws();
    if (!eof() && peek() == '}') {
      ++pos_;
      return Json(std::move(members));
    }
    for (;;) {
      skip_ws();
      if (eof() || peek() != '"') {
        fail("expected object key string");
      }
      std::string key = parse_string();
      for (const auto& member : members) {
        if (member.first == key) {
          fail("duplicate object key \"" + key + "\"");
        }
      }
      skip_ws();
      expect(':');
      skip_ws();
      members.emplace_back(std::move(key), parse_value(depth));
      skip_ws();
      if (eof()) {
        fail("unterminated object");
      }
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return Json(std::move(members));
    }
  }

  Json parse_array(std::size_t depth) {
    check_depth(depth);
    expect('[');
    Json::Array values;
    skip_ws();
    if (!eof() && peek() == ']') {
      ++pos_;
      return Json(std::move(values));
    }
    for (;;) {
      skip_ws();
      values.push_back(parse_value(depth));
      skip_ws();
      if (eof()) {
        fail("unterminated array");
      }
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return Json(std::move(values));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      const char c = get();
      if (c == '"') {
        return out;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      const char esc = get();
      switch (esc) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'u': {
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = get();
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("invalid \\u escape");
            }
          }
          // UTF-8 encode the BMP code point (surrogate pairs unsupported —
          // spec files are ASCII identifiers and numbers).
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
        default:
          fail("invalid escape character");
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (!eof() && peek() == '-') {
      ++pos_;
    }
    while (!eof() && (std::isdigit(static_cast<unsigned char>(peek())) ||
                      peek() == '.' || peek() == 'e' || peek() == 'E' ||
                      peek() == '+' || peek() == '-')) {
      ++pos_;
    }
    if (pos_ == start) {
      fail("invalid value");
    }
    const std::string token(text_.substr(start, pos_ - start));
    // std::from_chars: locale-independent, unlike strtod which would
    // reject "0.28" under a comma-decimal LC_NUMERIC.
    double value = 0.0;
    const auto [end, ec] =
        std::from_chars(token.data(), token.data() + token.size(), value);
    if (ec != std::errc{} || end != token.data() + token.size()) {
      pos_ = start;
      fail("invalid number \"" + token + "\"");
    }
    return Json(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

void write_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
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

void write_number(std::string& out, double v) {
  if (std::isnan(v) || std::isinf(v)) {
    // JSON has no NaN/Inf; emit null like most lenient writers.
    out += "null";
    return;
  }
  // std::to_chars throughout: locale-independent, and the plain double
  // overload emits the shortest representation that round-trips exactly.
  char buf[40];
  if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
    const auto [ptr, ec] =
        std::to_chars(buf, buf + sizeof buf, static_cast<long long>(v));
    out.append(buf, ptr);
  } else {
    const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
    out.append(buf, ptr);
  }
}

void write_newline_indent(std::string& out, int indent, int depth) {
  if (indent >= 0) {
    out += '\n';
    out.append(static_cast<std::size_t>(indent) *
                   static_cast<std::size_t>(depth),
               ' ');
  }
}

}  // namespace

Json Json::parse(std::string_view text) {
  return Parser(text).parse_document();
}

bool Json::as_bool() const {
  if (type_ != Type::kBool) {
    throw ConfigError("JSON value is not a bool");
  }
  return bool_;
}

double Json::as_number() const {
  if (type_ != Type::kNumber) {
    throw ConfigError("JSON value is not a number");
  }
  return number_;
}

const std::string& Json::as_string() const {
  if (type_ != Type::kString) {
    throw ConfigError("JSON value is not a string");
  }
  return string_;
}

const Json::Array& Json::as_array() const {
  if (type_ != Type::kArray) {
    throw ConfigError("JSON value is not an array");
  }
  return array_;
}

const Json::Object& Json::as_object() const {
  if (type_ != Type::kObject) {
    throw ConfigError("JSON value is not an object");
  }
  return object_;
}

const Json* Json::find(std::string_view key) const noexcept {
  if (type_ != Type::kObject) {
    return nullptr;
  }
  for (const auto& member : object_) {
    if (member.first == key) {
      return &member.second;
    }
  }
  return nullptr;
}

const Json& Json::at(std::string_view key) const {
  const Json* value = find(key);
  if (value == nullptr) {
    throw ConfigError("missing JSON key \"" + std::string(key) + "\"");
  }
  return *value;
}

void Json::set(std::string key, Json value) {
  if (type_ == Type::kNull) {
    type_ = Type::kObject;
  }
  if (type_ != Type::kObject) {
    throw ConfigError("JSON set() on a non-object value");
  }
  for (auto& member : object_) {
    if (member.first == key) {
      member.second = std::move(value);
      return;
    }
  }
  object_.emplace_back(std::move(key), std::move(value));
}

bool Json::operator==(const Json& other) const noexcept {
  if (type_ != other.type_) {
    return false;
  }
  switch (type_) {
    case Type::kNull:
      return true;
    case Type::kBool:
      return bool_ == other.bool_;
    case Type::kNumber:
      return number_ == other.number_;
    case Type::kString:
      return string_ == other.string_;
    case Type::kArray:
      return array_ == other.array_;
    case Type::kObject:
      return object_ == other.object_;
  }
  return false;
}

void Json::write(std::string& out, int indent, int depth) const {
  switch (type_) {
    case Type::kNull:
      out += "null";
      return;
    case Type::kBool:
      out += bool_ ? "true" : "false";
      return;
    case Type::kNumber:
      write_number(out, number_);
      return;
    case Type::kString:
      write_escaped(out, string_);
      return;
    case Type::kArray: {
      if (array_.empty()) {
        out += "[]";
        return;
      }
      out += '[';
      bool first = true;
      for (const auto& value : array_) {
        if (!first) {
          out += ',';
          if (indent < 0) {
            out += ' ';
          }
        }
        first = false;
        write_newline_indent(out, indent, depth + 1);
        value.write(out, indent, depth + 1);
      }
      write_newline_indent(out, indent, depth);
      out += ']';
      return;
    }
    case Type::kObject: {
      if (object_.empty()) {
        out += "{}";
        return;
      }
      out += '{';
      bool first = true;
      for (const auto& member : object_) {
        if (!first) {
          out += ',';
          if (indent < 0) {
            out += ' ';
          }
        }
        first = false;
        write_newline_indent(out, indent, depth + 1);
        write_escaped(out, member.first);
        out += ": ";
        member.second.write(out, indent, depth + 1);
      }
      write_newline_indent(out, indent, depth);
      out += '}';
      return;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  write(out, indent, 0);
  return out;
}

}  // namespace hvc
