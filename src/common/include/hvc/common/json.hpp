// Minimal JSON value, parser and writer — just enough for sweep-spec files
// and machine-readable result output, with zero external dependencies.
//
// Design points:
//  * Objects preserve insertion order (vector of pairs), so dump() output
//    is deterministic and round-trips the author's key order.
//  * Numbers are doubles; dump() prints integral values without a decimal
//    point and everything else with %.17g, so parse(dump(x)) == x.
//  * parse() throws hvc::ConfigError with a line:column location on any
//    syntax error — spec files and daemon requests are user input — and
//    on nesting deeper than kJsonMaxDepth, so hostile input cannot
//    exhaust the recursive parser's stack.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace hvc {

/// Deepest array/object nesting Json::parse accepts. Real specs and
/// requests nest a handful of levels; the cap bounds the parser's (and
/// the parsed value's destructor's) recursion depth.
inline constexpr std::size_t kJsonMaxDepth = 256;

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<Json>;
  using Member = std::pair<std::string, Json>;
  using Object = std::vector<Member>;

  Json() noexcept : type_(Type::kNull) {}
  Json(std::nullptr_t) noexcept : type_(Type::kNull) {}
  Json(bool b) noexcept : type_(Type::kBool), bool_(b) {}
  Json(double n) noexcept : type_(Type::kNumber), number_(n) {}
  Json(int n) noexcept : Json(static_cast<double>(n)) {}
  Json(std::size_t n) noexcept : Json(static_cast<double>(n)) {}
  Json(const char* s) : type_(Type::kString), string_(s) {}
  Json(std::string s) : type_(Type::kString), string_(std::move(s)) {}
  Json(Array a) : type_(Type::kArray), array_(std::move(a)) {}
  Json(Object o) : type_(Type::kObject), object_(std::move(o)) {}

  /// Parses one JSON document (trailing garbage is an error).
  /// Throws ConfigError on malformed input or nesting deeper than
  /// kJsonMaxDepth.
  [[nodiscard]] static Json parse(std::string_view text);

  /// Serializes; indent < 0 gives compact single-line output, otherwise
  /// pretty-printed with `indent` spaces per level.
  [[nodiscard]] std::string dump(int indent = -1) const;

  [[nodiscard]] Type type() const noexcept { return type_; }
  [[nodiscard]] bool is_null() const noexcept { return type_ == Type::kNull; }
  [[nodiscard]] bool is_bool() const noexcept { return type_ == Type::kBool; }
  [[nodiscard]] bool is_number() const noexcept {
    return type_ == Type::kNumber;
  }
  [[nodiscard]] bool is_string() const noexcept {
    return type_ == Type::kString;
  }
  [[nodiscard]] bool is_array() const noexcept { return type_ == Type::kArray; }
  [[nodiscard]] bool is_object() const noexcept {
    return type_ == Type::kObject;
  }

  /// Checked accessors; throw ConfigError when the type does not match.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] const Object& as_object() const;

  /// Object lookup; nullptr when absent (or not an object).
  [[nodiscard]] const Json* find(std::string_view key) const noexcept;
  [[nodiscard]] bool contains(std::string_view key) const noexcept {
    return find(key) != nullptr;
  }
  /// Object lookup that throws ConfigError when the key is missing.
  [[nodiscard]] const Json& at(std::string_view key) const;

  /// Object insertion (creates an object from a null value on first use).
  void set(std::string key, Json value);

  bool operator==(const Json& other) const noexcept;

 private:
  void write(std::string& out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

}  // namespace hvc
