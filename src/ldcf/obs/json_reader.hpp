// A minimal JSON reader for the project's own artifacts.
//
// The codebase emits JSON everywhere (reports, heartbeats, NDJSON server
// frames) but long avoided reading it; series_view grew the first parser
// and the sweep service made it shared infrastructure. It parses the full
// JSON grammar into a small DOM. Numbers keep both a double (convenient
// for telemetry, exact below 2^53) and the raw source token, so the option
// table's JSON front-end (common/options.hpp) reads exact 64-bit integers
// (seeds, slot counts) with the strict common/parse helpers instead of
// round-tripping through a double.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace ldcf::obs {

struct JsonValue;
using JsonPtr = std::unique_ptr<JsonValue>;

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  /// String value for kString; the raw source token for kNumber.
  std::string text;
  std::vector<JsonPtr> items;              ///< kArray elements, in order.
  std::map<std::string, JsonPtr> members;  ///< kObject members.

  [[nodiscard]] bool is_object() const { return kind == Kind::kObject; }
  [[nodiscard]] bool is_number() const { return kind == Kind::kNumber; }
  [[nodiscard]] bool is_string() const { return kind == Kind::kString; }

  /// Member lookup on an object; nullptr when absent (or not an object).
  [[nodiscard]] const JsonValue* find(const std::string& key) const {
    const auto it = members.find(key);
    return it == members.end() ? nullptr : it->second.get();
  }

  /// Numeric member as double, `fallback` when absent or non-numeric.
  [[nodiscard]] double num(const std::string& key,
                           double fallback = 0.0) const {
    const JsonValue* v = find(key);
    return v != nullptr && v->is_number() ? v->number : fallback;
  }

  /// String member, empty when absent or non-string.
  [[nodiscard]] std::string str(const std::string& key) const {
    const JsonValue* v = find(key);
    return v != nullptr && v->is_string() ? v->text : std::string{};
  }
};

/// Deepest array/object nesting parse_json accepts. The deepest document
/// the project writes (a sweep report inside a server result frame) nests
/// 9 levels; the cap bounds the parser's recursion on outside input.
inline constexpr std::size_t kMaxJsonDepth = 64;

/// Parse one complete JSON document; trailing non-whitespace is an error.
/// Throws common::InvalidArgument (with a byte offset) on malformed or
/// too deeply nested input.
[[nodiscard]] JsonPtr parse_json(std::string_view text);

}  // namespace ldcf::obs
