// Minimal JSON emission for benchmark/campaign result export.
//
// Not a parser and not a DOM — a forward-only writer that produces
// deterministic output (insertion order preserved) so BENCH_*.json
// baselines can live in git. Numbers are written with the shortest
// representation that round-trips doubles, which also makes
// parse -> re-serialize idempotent for trace files.
//
// Two layout styles: Pretty (2-space indent, human-diffable, the
// default) and Compact (no whitespace — one JSONL record per str()).
//
// JSON has no NaN/Inf, so non-finite doubles need an explicit policy:
//   Null           — emit null (legacy default; lossy for readers that
//                    distinguish "absent" from "not a number")
//   StringSentinel — emit "NaN" / "Infinity" / "-Infinity" strings,
//                    which TraceReader maps back to the exact value
//   Throw          — PreconditionError; for documents where a
//                    non-finite value can only mean a bug upstream
//
//   JsonWriter w;
//   w.beginObject();
//   w.key("name").value("campaign");
//   w.key("runs").beginArray();
//   w.value(1.5);
//   w.endArray();
//   w.endObject();
//   std::string text = w.str();
#pragma once

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "dds/common/error.hpp"

namespace dds {

/// Escape a string for embedding in a JSON document (no quotes added).
[[nodiscard]] std::string jsonEscape(const std::string& s);

/// Streaming JSON writer with indentation and container bookkeeping.
class JsonWriter {
 public:
  enum class Style { Pretty, Compact };
  enum class NonFinitePolicy { Null, StringSentinel, Throw };

  struct Options {
    Style style = Style::Pretty;
    NonFinitePolicy non_finite = NonFinitePolicy::Null;
  };

  JsonWriter() = default;
  explicit JsonWriter(Options options) : options_(options) {}

  JsonWriter& beginObject();
  JsonWriter& endObject();
  JsonWriter& beginArray();
  JsonWriter& endArray();

  /// Write an object key; the next value/begin* call is its value.
  JsonWriter& key(const std::string& name);

  JsonWriter& value(const std::string& v);
  JsonWriter& value(const char* v);
  JsonWriter& value(double v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(bool v);
  JsonWriter& null();
  /// A number given as the JSON literal it was parsed from, written
  /// verbatim (an integer past 2^53 stays exact).
  JsonWriter& numberLiteral(const std::string& literal);

  /// The document so far; call after the outermost container is closed.
  /// Pretty documents end with '\n'; Compact ones do not (the caller
  /// owns record separators in JSONL streams).
  [[nodiscard]] std::string str() const;

 private:
  enum class Frame { Object, Array };

  void beforeValue();
  void indent();

  Options options_;
  std::ostringstream out_;
  std::vector<Frame> stack_;
  std::vector<bool> has_items_;
  bool pending_key_ = false;
};

/// Shortest decimal representation of a finite double that scans back
/// to the same value (integral values print without an exponent).
[[nodiscard]] std::string jsonNumber(double v);

}  // namespace dds
