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
        case 'u':
          appendUtf8(out, parseCodePoint());
          break;
        default:
          fail("unknown escape");
      }
    }
  }

  /// Four hex digits after a `\u`, as one UTF-16 code unit.
  unsigned parseHex4() {
    if (pos_ + 4 > text_.size()) fail("short \\u escape");
    const char* first = text_.data() + pos_;
    unsigned unit = 0;
    const auto [ptr, ec] = std::from_chars(first, first + 4, unit, 16);
    if (ec != std::errc{} || ptr != first + 4) {
      fail("\\u escape needs four hex digits");
    }
    pos_ += 4;
    return unit;
  }

  /// The code point of a `\u` escape whose `\u` is already consumed; a
  /// high surrogate must be followed by an escaped low one.
  char32_t parseCodePoint() {
    const unsigned unit = parseHex4();
    if (unit >= 0xDC00 && unit <= 0xDFFF) fail("lone low surrogate");
    if (unit < 0xD800 || unit > 0xDBFF) return unit;
    if (text_.compare(pos_, 2, "\\u") != 0) fail("lone high surrogate");
    pos_ += 2;
    const unsigned low = parseHex4();
    if (low < 0xDC00 || low > 0xDFFF) fail("lone high surrogate");
    return 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
  }

  static void appendUtf8(std::string& out, char32_t cp) {
    const auto byte = [&out](char32_t b) { out += static_cast<char>(b); };
    if (cp < 0x80) {
      byte(cp);
    } else if (cp < 0x800) {
      byte(0xC0 | (cp >> 6));
      byte(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      byte(0xE0 | (cp >> 12));
      byte(0x80 | ((cp >> 6) & 0x3F));
      byte(0x80 | (cp & 0x3F));
    } else {
      byte(0xF0 | (cp >> 18));
      byte(0x80 | ((cp >> 12) & 0x3F));
      byte(0x80 | ((cp >> 6) & 0x3F));
      byte(0x80 | (cp & 0x3F));
    }
  }

  bool atDigit() const {
    return pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0;
  }

  /// Consume `c` if it is next.
  bool consume(char c) {
    if (pos_ >= text_.size() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  /// One or more digits; `what` names the part of the number for errors.
  void digits(const char* what) {
    if (!atDigit()) fail(std::string("number needs digits in its ") + what);
    while (atDigit()) ++pos_;
  }

  /// The JSON number grammar: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
  JsonNumber parseNumber() {
    const std::size_t start = pos_;
    consume('-');
    if (consume('0')) {
      if (atDigit()) fail("leading zero in number");
    } else if (atDigit()) {
      digits("integer part");
    } else {
      fail("invalid number");
    }
    if (consume('.')) digits("fraction");
    if (consume('e') || consume('E')) {
      if (!consume('+')) consume('-');
      digits("exponent");
    }
    std::string token = text_.substr(start, pos_ - start);
    return {std::strtod(token.c_str(), nullptr), std::move(token)};
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
