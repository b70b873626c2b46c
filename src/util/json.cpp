#include "util/json.hpp"

#include <cctype>
#include <charconv>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace dam::util::json {

namespace {

class Parser {
 public:
  /// Bench documents nest a handful of levels; the cap turns hostile
  /// nesting into a parse error instead of a stack overflow.
  static constexpr std::size_t kMaxDepth = 256;

  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    skip_ws();
    Value value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content after JSON value");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("json: " + what + " at byte " +
                             std::to_string(pos_));
  }

  [[nodiscard]] char peek() const {
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  char take() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_++];
  }

  void expect(char c) {
    if (take() != c) {
      --pos_;
      fail(std::string("expected '") + c + "'");
    }
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  Value parse_value() {
    if (peek() == '{' || peek() == '[') {
      if (++depth_ > kMaxDepth) fail("nesting deeper than 256 levels");
      Value value = peek() == '{' ? parse_object() : parse_array();
      --depth_;
      return value;
    }
    switch (peek()) {
      case '"':
        return parse_string();
      case 't':
        return parse_literal("true", [] {
          Value v;
          v.kind = Value::Kind::kBool;
          v.boolean = true;
          return v;
        }());
      case 'f':
        return parse_literal("false", [] {
          Value v;
          v.kind = Value::Kind::kBool;
          return v;
        }());
      case 'n':
        return parse_literal("null", Value{});
      default:
        return parse_number();
    }
  }

  Value parse_literal(std::string_view word, Value value) {
    if (text_.substr(pos_, word.size()) != word) fail("bad literal");
    pos_ += word.size();
    return value;
  }

  Value parse_object() {
    expect('{');
    Value value;
    value.kind = Value::Kind::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return value;
    }
    for (;;) {
      skip_ws();
      Value key = parse_string();
      skip_ws();
      expect(':');
      skip_ws();
      value.object.emplace_back(std::move(key.string), parse_value());
      skip_ws();
      const char c = take();
      if (c == '}') return value;
      if (c != ',') {
        --pos_;
        fail("expected ',' or '}' in object");
      }
    }
  }

  Value parse_array() {
    expect('[');
    Value value;
    value.kind = Value::Kind::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return value;
    }
    for (;;) {
      skip_ws();
      value.array.push_back(parse_value());
      skip_ws();
      const char c = take();
      if (c == ']') return value;
      if (c != ',') {
        --pos_;
        fail("expected ',' or ']' in array");
      }
    }
  }

  Value parse_string() {
    expect('"');
    Value value;
    value.kind = Value::Kind::kString;
    for (;;) {
      const char c = take();
      if (c == '"') return value;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control in string");
      if (c != '\\') {
        value.string += c;
        continue;
      }
      const char esc = take();
      switch (esc) {
        case '"':
        case '\\':
        case '/':
          value.string += esc;
          break;
        case 'b':
          value.string += '\b';
          break;
        case 'f':
          value.string += '\f';
          break;
        case 'n':
          value.string += '\n';
          break;
        case 'r':
          value.string += '\r';
          break;
        case 't':
          value.string += '\t';
          break;
        case 'u': {
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = take();
            if (!std::isxdigit(static_cast<unsigned char>(h))) {
              fail("bad \\u escape");
            }
            code = code * 16 +
                   static_cast<unsigned>(
                       h <= '9' ? h - '0'
                                : (std::tolower(h) - 'a' + 10));
          }
          // Bench documents only escape control characters; anything in
          // the BMP is emitted as UTF-8 here (no surrogate pairing).
          if (code < 0x80) {
            value.string += static_cast<char>(code);
          } else if (code < 0x800) {
            value.string += static_cast<char>(0xC0 | (code >> 6));
            value.string += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            value.string += static_cast<char>(0xE0 | (code >> 12));
            value.string += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            value.string += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          fail("bad escape");
      }
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    if (peek() == '.') {
      ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    Value value;
    value.kind = Value::Kind::kNumber;
    const std::string_view token = text_.substr(start, pos_ - start);
    const auto [end, ec] = std::from_chars(
        token.data(), token.data() + token.size(), value.number);
    if (ec != std::errc{} || end != token.data() + token.size()) {
      pos_ = start;
      fail("bad number");
    }
    return value;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  ///< open arrays/objects around pos_
};

}  // namespace

const Value* Value::find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [name, member] : object) {
    if (name == key) return &member;
  }
  return nullptr;
}

double Value::number_or(std::string_view key, double fallback) const {
  const Value* member = find(key);
  return member != nullptr && member->is_number() ? member->number : fallback;
}

std::string Value::string_or(std::string_view key) const {
  const Value* member = find(key);
  return member != nullptr && member->is_string() ? member->string
                                                  : std::string{};
}

Value parse(std::string_view text) { return Parser(text).parse_document(); }

Value parse_file(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) throw std::runtime_error("json: cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return parse(buffer.str());
}

}  // namespace dam::util::json
