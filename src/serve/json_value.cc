#include "serve/json_value.h"

#include <cctype>
#include <cmath>
#include <cstdlib>

#include "util/check.h"

namespace factcheck {
namespace serve {
namespace {

// Nesting bound: protocol requests are at most a few levels deep, and the
// parser recurses per level, so a hard cap keeps hostile input from
// exhausting the stack.
constexpr int kMaxDepth = 64;

}  // namespace

bool JsonValue::boolean() const {
  FC_CHECK(kind_ == Kind::kBool);
  return bool_;
}

double JsonValue::number() const {
  FC_CHECK(kind_ == Kind::kNumber);
  return number_;
}

const std::string& JsonValue::string() const {
  FC_CHECK(kind_ == Kind::kString);
  return string_;
}

const std::vector<JsonValue>& JsonValue::array() const {
  FC_CHECK(kind_ == Kind::kArray);
  return array_;
}

const std::map<std::string, JsonValue>& JsonValue::object() const {
  FC_CHECK(kind_ == Kind::kObject);
  return object_;
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  auto it = object_.find(key);
  return it == object_.end() ? nullptr : &it->second;
}

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  std::optional<JsonValue> Parse(std::string* error) {
    JsonValue value;
    if (!ParseValue(&value, 0)) {
      if (error != nullptr) *error = error_;
      return std::nullopt;
    }
    SkipWhitespace();
    if (pos_ != text_.size()) {
      if (error != nullptr) *error = Message("trailing characters");
      return std::nullopt;
    }
    return value;
  }

 private:
  bool Fail(const std::string& what) {
    if (error_.empty()) error_ = Message(what);
    return false;
  }

  std::string Message(const std::string& what) const {
    return "JSON parse error at offset " + std::to_string(pos_) + ": " + what;
  }

  void SkipWhitespace() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool Consume(char expected) {
    if (pos_ < text_.size() && text_[pos_] == expected) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(const char* literal) {
    size_t len = 0;
    while (literal[len] != '\0') ++len;
    if (text_.compare(pos_, len, literal) != 0) return false;
    pos_ += len;
    return true;
  }

  bool ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return Fail("nesting too deep");
    SkipWhitespace();
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"':
        out->kind_ = JsonValue::Kind::kString;
        return ParseString(&out->string_);
      case 't':
        if (!ConsumeLiteral("true")) return Fail("invalid literal");
        out->kind_ = JsonValue::Kind::kBool;
        out->bool_ = true;
        return true;
      case 'f':
        if (!ConsumeLiteral("false")) return Fail("invalid literal");
        out->kind_ = JsonValue::Kind::kBool;
        out->bool_ = false;
        return true;
      case 'n':
        if (!ConsumeLiteral("null")) return Fail("invalid literal");
        out->kind_ = JsonValue::Kind::kNull;
        return true;
      default:
        return ParseNumber(out);
    }
  }

  bool ParseObject(JsonValue* out, int depth) {
    FC_CHECK(Consume('{'));
    out->kind_ = JsonValue::Kind::kObject;
    SkipWhitespace();
    if (Consume('}')) return true;
    while (true) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Fail("expected object key");
      }
      std::string key;
      if (!ParseString(&key)) return false;
      SkipWhitespace();
      if (!Consume(':')) return Fail("expected ':'");
      JsonValue value;
      if (!ParseValue(&value, depth + 1)) return false;
      out->object_[key] = std::move(value);  // last duplicate wins
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume('}')) return true;
      return Fail("expected ',' or '}'");
    }
  }

  bool ParseArray(JsonValue* out, int depth) {
    FC_CHECK(Consume('['));
    out->kind_ = JsonValue::Kind::kArray;
    SkipWhitespace();
    if (Consume(']')) return true;
    while (true) {
      JsonValue value;
      if (!ParseValue(&value, depth + 1)) return false;
      out->array_.push_back(std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume(']')) return true;
      return Fail("expected ',' or ']'");
    }
  }

  bool ParseHex4(unsigned* out) {
    if (pos_ + 4 > text_.size()) return Fail("truncated \\u escape");
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      char c = text_[pos_ + i];
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        return Fail("invalid \\u escape");
      }
    }
    pos_ += 4;
    *out = value;
    return true;
  }

  void AppendUtf8(std::string* out, unsigned cp) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  bool ParseString(std::string* out) {
    FC_CHECK(Consume('"'));
    out->clear();
    while (true) {
      if (pos_ >= text_.size()) return Fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) {
        return Fail("unescaped control character in string");
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return Fail("unterminated escape");
      char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out->push_back('"');
          break;
        case '\\':
          out->push_back('\\');
          break;
        case '/':
          out->push_back('/');
          break;
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'u': {
          unsigned cp;
          if (!ParseHex4(&cp)) return false;
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: must be followed by \uDC00..\uDFFF.
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              return Fail("unpaired surrogate");
            }
            pos_ += 2;
            unsigned low;
            if (!ParseHex4(&low)) return false;
            if (low < 0xDC00 || low > 0xDFFF) {
              return Fail("unpaired surrogate");
            }
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return Fail("unpaired surrogate");
          }
          AppendUtf8(out, cp);
          break;
        }
        default:
          return Fail("invalid escape");
      }
    }
  }

  bool ParseNumber(JsonValue* out) {
    size_t start = pos_;
    if (Consume('-')) {
    }
    if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(
                                    text_[pos_]))) {
      return Fail("invalid number");
    }
    // JSON forbids leading zeros ("01"), which strtod would accept.
    if (text_[pos_] == '0' && pos_ + 1 < text_.size() &&
        std::isdigit(static_cast<unsigned char>(text_[pos_ + 1]))) {
      return Fail("leading zero in number");
    }
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (Consume('.')) {
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        return Fail("invalid number");
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        return Fail("invalid number");
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    std::string token = text_.substr(start, pos_ - start);
    out->kind_ = JsonValue::Kind::kNumber;
    out->number_ = std::strtod(token.c_str(), nullptr);
    return true;
  }

  const std::string& text_;
  size_t pos_ = 0;
  std::string error_;
};

std::optional<JsonValue> JsonValue::Parse(const std::string& text,
                                          std::string* error) {
  return JsonParser(text).Parse(error);
}

bool IsIntegerIn(double number, double lo, double hi) {
  return number >= lo && number <= hi && number == std::floor(number);
}

}  // namespace serve
}  // namespace factcheck
