#include "dds/common/json_value.hpp"

#include <cctype>
#include <charconv>
#include <cstdlib>

#include "dds/common/error.hpp"

namespace dds {
namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  JsonValue parse() {
    JsonValue value = parseValue();
    skipWs();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw IoError("JSON parse error at offset " + std::to_string(pos_) +
                  ": " + what);
  }

  void skipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
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

  JsonValue parseValue() {
    skipWs();
    const char c = peek();
    switch (c) {
      case '{':
        return parseObject();
      case '[':
        return parseArray();
      case '"':
        return JsonValue{parseString()};
      case 't':
        parseLiteral("true");
        return JsonValue{true};
      case 'f':
        parseLiteral("false");
        return JsonValue{false};
      case 'n':
        parseLiteral("null");
        return JsonValue{nullptr};
      default:
        return JsonValue{parseNumber()};
    }
  }

  void parseLiteral(const std::string& lit) {
    if (text_.compare(pos_, lit.size(), lit) != 0) {
      fail("invalid literal");
    }
    pos_ += lit.size();
  }

  JsonValue parseObject() {
    expect('{');
    auto obj = std::make_shared<JsonObject>();
    skipWs();
    if (peek() == '}') {
      ++pos_;
      return JsonValue{std::move(obj)};
    }
    while (true) {
      skipWs();
      std::string key = parseString();
      skipWs();
      expect(':');
      obj->emplace_back(std::move(key), parseValue());
      skipWs();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return JsonValue{std::move(obj)};
    }
  }

  JsonValue parseArray() {
    expect('[');
    auto arr = std::make_shared<JsonArray>();
    skipWs();
    if (peek() == ']') {
      ++pos_;
      return JsonValue{std::move(arr)};
    }
    while (true) {
      arr->push_back(parseValue());
      skipWs();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return JsonValue{std::move(arr)};
    }
  }

  std::string parseString() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("dangling escape");
      const char esc = text_[pos_++];
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
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("short \\u escape");
          const std::string hex = text_.substr(pos_, 4);
          pos_ += 4;
          const unsigned long code = std::strtoul(hex.c_str(), nullptr, 16);
          // Documents this repo writes are ASCII; control characters
          // round-trip, anything else is preserved as a raw byte.
          out += static_cast<char>(code);
          break;
        }
        default:
          fail("unknown escape");
      }
    }
  }

  JsonNumber parseNumber() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("invalid number");
    std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') fail("invalid number");
    return {v, std::move(token)};
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

const JsonValue* jsonFind(const JsonObject& obj, const std::string& key) {
  for (const auto& [k, v] : obj) {
    if (k == key) return &v;
  }
  return nullptr;
}

template <typename T>
std::optional<T> jsonInteger(const JsonValue& v) {
  const std::string* literal = v.numberLiteral();
  if (literal == nullptr) return std::nullopt;
  const char* end = literal->data() + literal->size();
  T out{};
  const auto [ptr, ec] = std::from_chars(literal->data(), end, out);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return out;
}

template std::optional<std::int64_t> jsonInteger(const JsonValue&);
template std::optional<std::uint64_t> jsonInteger(const JsonValue&);
template std::optional<std::uint32_t> jsonInteger(const JsonValue&);

JsonValue parseJson(const std::string& text) { return Parser(text).parse(); }

}  // namespace dds
