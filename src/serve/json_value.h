// A minimal JSON document parser for the serving layer's line-delimited
// request protocol (serve/service.h).  The library's JsonWriter
// (util/json.h) covers the write side; this is the matching read side —
// a strict recursive-descent parser into an immutable JsonValue tree.
//
// Scope: full JSON per RFC 8259 (objects, arrays, strings with escapes
// incl. \uXXXX surrogate pairs, numbers, literals), one document per
// Parse call, depth-capped so a hostile request can't overflow the
// stack.  Duplicate object keys keep the LAST occurrence, matching the
// common browser/jq behaviour.  Numbers are doubles — the protocol never
// carries integers outside the 2^53 exact range.

#ifndef FACTCHECK_SERVE_JSON_VALUE_H_
#define FACTCHECK_SERVE_JSON_VALUE_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace factcheck {
namespace serve {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  // Parses exactly one JSON document (surrounding whitespace allowed;
  // trailing garbage is an error).  On failure returns nullopt and, when
  // `error` is non-null, a position-annotated diagnostic.
  static std::optional<JsonValue> Parse(const std::string& text,
                                        std::string* error = nullptr);

  JsonValue() = default;  // null

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  // Typed accessors; calling the wrong one aborts (programmer error —
  // protocol handlers must check kind() or use the Find helpers).
  bool boolean() const;
  double number() const;
  const std::string& string() const;
  const std::vector<JsonValue>& array() const;
  const std::map<std::string, JsonValue>& object() const;

  // Object member lookup; null when this is not an object or the key is
  // absent.  The returned pointer lives as long as this value.
  const JsonValue* Find(const std::string& key) const;

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;

  friend class JsonParser;
};

// True when `number` is an integer inside [lo, hi] (NaN and infinities
// never are).  Protocol readers check a number with it before narrowing
// it to an integer type: casting a double outside the target type's range
// is undefined behaviour.
bool IsIntegerIn(double number, double lo, double hi);

}  // namespace serve
}  // namespace factcheck

#endif  // FACTCHECK_SERVE_JSON_VALUE_H_
