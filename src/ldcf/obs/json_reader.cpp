#include "ldcf/obs/json_reader.hpp"

#include <cstdlib>
#include <sstream>

#include "ldcf/common/error.hpp"

namespace ldcf::obs {

namespace {

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonPtr parse() {
    JsonPtr value = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content after JSON value");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    std::ostringstream msg;
    msg << "JSON parse error at byte " << pos_ << ": " << message;
    throw InvalidArgument(msg.str());
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

  bool consume_literal(std::string_view literal) {
    if (text_.compare(pos_, literal.size(), literal) != 0) return false;
    pos_ += literal.size();
    return true;
  }

  // `depth` counts the arrays/objects enclosing this value.
  JsonPtr parse_value(std::size_t depth) {
    skip_ws();
    auto value = std::make_unique<JsonValue>();
    const char c = peek();
    if ((c == '{' || c == '[') && depth == kMaxJsonDepth) {
      fail("nesting deeper than " + std::to_string(kMaxJsonDepth) +
           " levels");
    }
    if (c == '{') {
      value->kind = JsonValue::Kind::kObject;
      ++pos_;
      skip_ws();
      if (peek() == '}') {
        ++pos_;
        return value;
      }
      while (true) {
        skip_ws();
        std::string key = parse_string();
        skip_ws();
        expect(':');
        value->members[std::move(key)] = parse_value(depth + 1);
        skip_ws();
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect('}');
        return value;
      }
    }
    if (c == '[') {
      value->kind = JsonValue::Kind::kArray;
      ++pos_;
      skip_ws();
      if (peek() == ']') {
        ++pos_;
        return value;
      }
      while (true) {
        value->items.push_back(parse_value(depth + 1));
        skip_ws();
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect(']');
        return value;
      }
    }
    if (c == '"') {
      value->kind = JsonValue::Kind::kString;
      value->text = parse_string();
      return value;
    }
    if (consume_literal("true")) {
      value->kind = JsonValue::Kind::kBool;
      value->boolean = true;
      return value;
    }
    if (consume_literal("false")) {
      value->kind = JsonValue::Kind::kBool;
      return value;
    }
    if (consume_literal("null")) return value;
    // Number: defer to strtod, which accepts exactly JSON's grammar plus a
    // leading '+' that JSON forbids (never emitted by our writer). The raw
    // token is preserved in `text` so integer consumers stay exact.
    const char* start = text_.data() + pos_;
    char* end = nullptr;
    value->number = std::strtod(start, &end);
    if (end == start) fail("unexpected character");
    value->kind = JsonValue::Kind::kNumber;
    value->text.assign(start, static_cast<std::size_t>(end - start));
    pos_ += static_cast<std::size_t>(end - start);
    return value;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad \\u escape");
            }
          }
          // UTF-8 encode the BMP code point (surrogate pairs in our
          // artifacts do not occur; if one does, each half encodes alone).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonPtr parse_json(std::string_view text) {
  return JsonParser(text).parse();
}

}  // namespace ldcf::obs
