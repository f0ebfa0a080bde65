#include "dds/common/json.hpp"

#include <cmath>
#include <cstdio>

namespace dds {

std::string jsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
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
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string jsonNumber(double v) {
  DDS_REQUIRE(std::isfinite(v), "jsonNumber requires a finite value");
  // Integral values print as plain integers ("7200", not "7.2e+03").
  if (v == std::floor(v) && std::fabs(v) < 1.0e15) {
    return std::to_string(static_cast<long long>(v));
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  // Trim to the shortest representation that round-trips.
  for (const int precision : {1, 3, 6, 9, 12, 15}) {
    char probe[32];
    std::snprintf(probe, sizeof(probe), "%.*g", precision, v);
    double back = 0.0;
    std::sscanf(probe, "%lf", &back);
    if (back == v) return probe;
  }
  return buf;
}

JsonWriter& JsonWriter::beginObject() {
  beforeValue();
  out_ << '{';
  stack_.push_back(Frame::Object);
  has_items_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::endObject() {
  DDS_REQUIRE(!stack_.empty() && stack_.back() == Frame::Object,
              "endObject without matching beginObject");
  DDS_REQUIRE(!pending_key_, "object key without a value");
  const bool had_items = has_items_.back();
  stack_.pop_back();
  has_items_.pop_back();
  if (had_items && options_.style == Style::Pretty) {
    out_ << '\n';
    indent();
  }
  out_ << '}';
  return *this;
}

JsonWriter& JsonWriter::beginArray() {
  beforeValue();
  out_ << '[';
  stack_.push_back(Frame::Array);
  has_items_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::endArray() {
  DDS_REQUIRE(!stack_.empty() && stack_.back() == Frame::Array,
              "endArray without matching beginArray");
  const bool had_items = has_items_.back();
  stack_.pop_back();
  has_items_.pop_back();
  if (had_items && options_.style == Style::Pretty) {
    out_ << '\n';
    indent();
  }
  out_ << ']';
  return *this;
}

JsonWriter& JsonWriter::key(const std::string& name) {
  DDS_REQUIRE(!stack_.empty() && stack_.back() == Frame::Object,
              "key outside an object");
  DDS_REQUIRE(!pending_key_, "two keys in a row");
  if (has_items_.back()) out_ << ',';
  has_items_.back() = true;
  if (options_.style == Style::Pretty) {
    out_ << '\n';
    indent();
    out_ << '"' << jsonEscape(name) << "\": ";
  } else {
    out_ << '"' << jsonEscape(name) << "\":";
  }
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(const std::string& v) {
  beforeValue();
  out_ << '"' << jsonEscape(v) << '"';
  return *this;
}

JsonWriter& JsonWriter::value(const char* v) {
  return value(std::string(v));
}

JsonWriter& JsonWriter::value(double v) {
  if (!std::isfinite(v)) {
    switch (options_.non_finite) {
      case NonFinitePolicy::Null:
        return null();
      case NonFinitePolicy::StringSentinel:
        if (std::isnan(v)) return value("NaN");
        return value(v > 0.0 ? "Infinity" : "-Infinity");
      case NonFinitePolicy::Throw:
        DDS_REQUIRE(false, "non-finite value in JSON document");
    }
  }
  beforeValue();
  out_ << jsonNumber(v);
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  beforeValue();
  out_ << v;
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  beforeValue();
  out_ << v;
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  beforeValue();
  out_ << (v ? "true" : "false");
  return *this;
}

JsonWriter& JsonWriter::null() {
  beforeValue();
  out_ << "null";
  return *this;
}

JsonWriter& JsonWriter::numberLiteral(const std::string& literal) {
  beforeValue();
  out_ << literal;
  return *this;
}

std::string JsonWriter::str() const {
  DDS_REQUIRE(stack_.empty(), "unterminated JSON container");
  if (options_.style == Style::Compact) return out_.str();
  return out_.str() + "\n";
}

void JsonWriter::beforeValue() {
  if (pending_key_) {
    pending_key_ = false;
    return;
  }
  if (!stack_.empty()) {
    DDS_REQUIRE(stack_.back() == Frame::Array,
                "value inside an object needs a key");
    if (has_items_.back()) out_ << ',';
    has_items_.back() = true;
    if (options_.style == Style::Pretty) {
      out_ << '\n';
      indent();
    }
  }
}

void JsonWriter::indent() {
  for (std::size_t i = 0; i < stack_.size(); ++i) out_ << "  ";
}

}  // namespace dds
