#ifndef QCONT_SERVER_JSON_H_
#define QCONT_SERVER_JSON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "base/status.h"

namespace qcont {
namespace server {

/// A parsed JSON value. Minimal by design: the server's wire format is one
/// flat object per line, so this covers exactly RFC 8259 minus surrogate
/// pairs in \u escapes (non-BMP escapes are rejected; raw UTF-8 passes
/// through untouched). Numbers are kept as doubles, which is exact for the
/// integral fields the protocol uses (ids, deadlines, capacities).
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() : kind_(Kind::kNull) {}
  static JsonValue Bool(bool b);
  static JsonValue Number(double d);
  static JsonValue String(std::string s);
  static JsonValue Array(std::vector<JsonValue> items);
  static JsonValue Object(std::map<std::string, JsonValue> members);

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool bool_value() const { return bool_; }
  double number_value() const { return number_; }
  const std::string& string_value() const { return string_; }
  const std::vector<JsonValue>& array_items() const { return array_; }
  const std::map<std::string, JsonValue>& object_members() const {
    return object_;
  }

  /// Member lookup on an object; null pointer when absent or not an object.
  const JsonValue* Get(const std::string& key) const;

  /// Serializes back to compact JSON (keys in map order).
  std::string Dump() const;

 private:
  Kind kind_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;
};

/// Parses exactly one JSON value from `text` (surrounding whitespace
/// allowed, trailing garbage is an error).
Result<JsonValue> ParseJson(const std::string& text);

/// Appends `s` to `*out` escaped for embedding in a JSON string literal
/// (quotes not added). Each run of bytes that needs no escape is copied
/// with one append.
void AppendJsonEscaped(std::string_view s, std::string* out);

/// Escapes `s` for embedding in a JSON string literal (quotes not added).
std::string JsonEscape(const std::string& s);

}  // namespace server
}  // namespace qcont

#endif  // QCONT_SERVER_JSON_H_
