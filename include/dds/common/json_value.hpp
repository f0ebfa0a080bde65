// Minimal JSON parsing — the read-side companion of JsonWriter.
//
// A JsonValue is a small recursive variant: null, bool, number, string,
// array, object. Objects preserve key order (they are pair vectors, not
// maps) so parse -> re-serialize round-trips stay deterministic, and the
// parser is strict: trailing characters, malformed escapes or numbers
// throw IoError with the byte offset of the offence. A number keeps its
// literal beside its double, so integers read back exact past 2^53
// (jsonInteger).
//
// This powers the JSONL trace reader (obs/trace_wire) and the campaign
// job-spec API (exp/job_spec). It is deliberately not a DOM library —
// just enough structure to interpret documents this repo itself writes,
// plus the strict validation a service endpoint needs.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace dds {

struct JsonValue;
using JsonArray = std::vector<JsonValue>;
using JsonObject = std::vector<std::pair<std::string, JsonValue>>;

/// A JSON number: its double value and the literal it was written as.
struct JsonNumber {
  double value = 0.0;
  std::string literal;
};

/// One parsed JSON value. Arrays and objects are shared_ptrs so the
/// variant stays complete (and values stay cheap to copy).
struct JsonValue {
  std::variant<std::nullptr_t, bool, JsonNumber, std::string,
               std::shared_ptr<JsonArray>, std::shared_ptr<JsonObject>>
      v = nullptr;

  [[nodiscard]] bool isNull() const {
    return std::holds_alternative<std::nullptr_t>(v);
  }
  [[nodiscard]] const bool* asBool() const { return std::get_if<bool>(&v); }
  [[nodiscard]] const double* asNumber() const {
    const auto* n = std::get_if<JsonNumber>(&v);
    return n == nullptr ? nullptr : &n->value;
  }
  /// The number's literal text ("7", "1e999"), or nullptr for a
  /// non-number.
  [[nodiscard]] const std::string* numberLiteral() const {
    const auto* n = std::get_if<JsonNumber>(&v);
    return n == nullptr ? nullptr : &n->literal;
  }
  [[nodiscard]] const std::string* asString() const {
    return std::get_if<std::string>(&v);
  }
  [[nodiscard]] const JsonArray* asArray() const {
    const auto* p = std::get_if<std::shared_ptr<JsonArray>>(&v);
    return p == nullptr ? nullptr : p->get();
  }
  [[nodiscard]] const JsonObject* asObject() const {
    const auto* p = std::get_if<std::shared_ptr<JsonObject>>(&v);
    return p == nullptr ? nullptr : p->get();
  }
};

/// First value of `key` in an object, or nullptr when absent.
[[nodiscard]] const JsonValue* jsonFind(const JsonObject& obj,
                                        const std::string& key);

/// `v` as an integer of type T, read exactly from its literal; nullopt
/// when `v` is not a number, is not written as an integer ("2.7",
/// "1e3") or lies outside T. Defined for int64_t, uint64_t and uint32_t.
template <typename T>
[[nodiscard]] std::optional<T> jsonInteger(const JsonValue& v);

/// Parse one complete JSON document; throws IoError on any syntax error
/// or trailing input.
[[nodiscard]] JsonValue parseJson(const std::string& text);

}  // namespace dds
