// Machine-readable sinks for the observability layer: a small JSON object
// builder, a JSON Lines file writer, and a minimal JSON parser used to
// validate emitted artifacts (tests and the bench self-check round-trip
// every record through it).

#ifndef MCM_OBS_EXPORT_H_
#define MCM_OBS_EXPORT_H_

#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace mcm {

/// Escapes `s` for use inside a JSON string literal (quotes not included).
std::string JsonEscape(const std::string& s);

/// Formats a double as JSON: shortest round-trippable decimal; NaN and
/// infinities (which JSON cannot represent) become null.
std::string JsonNumber(double v);

/// Builds one flat JSON object, preserving insertion order.
class JsonObjectBuilder {
 public:
  void Add(const std::string& key, const std::string& value);
  void Add(const std::string& key, const char* value);
  void Add(const std::string& key, double value);
  void Add(const std::string& key, unsigned long long value);
  void Add(const std::string& key, unsigned long value);
  void Add(const std::string& key, unsigned value);
  void Add(const std::string& key, long value);
  void Add(const std::string& key, int value);
  void Add(const std::string& key, bool value);
  /// Inserts `raw_json` verbatim (nested objects/arrays).
  void AddRaw(const std::string& key, const std::string& raw_json);
  void AddNumberArray(const std::string& key,
                      const std::vector<double>& values);

  bool empty() const { return fields_.empty(); }
  std::string Build() const;  ///< "{...}".

 private:
  std::vector<std::pair<std::string, std::string>> fields_;  // key -> raw.
};

/// Appends JSON records to a file, one per line (JSON Lines).
class JsonlWriter {
 public:
  /// Opens `path` for writing (truncates). ok() reports failure.
  explicit JsonlWriter(const std::string& path);
  ~JsonlWriter();

  JsonlWriter(const JsonlWriter&) = delete;
  JsonlWriter& operator=(const JsonlWriter&) = delete;

  void WriteLine(const std::string& json);
  void Flush();
  bool ok() const { return file_ != nullptr; }
  const std::string& path() const { return path_; }
  size_t lines_written() const { return lines_; }

 private:
  std::string path_;
  std::FILE* file_ = nullptr;
  size_t lines_ = 0;
};

/// Parsed JSON value (null, bool, number, string, array, object). Only what
/// the artifact schema needs — numbers are doubles, objects are maps.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool bool_value = false;
  double number_value = 0.0;
  std::string string_value;
  std::vector<JsonValue> array_value;
  std::map<std::string, JsonValue> object_value;

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const;
};

/// Parses one JSON document (the whole string must be consumed apart from
/// trailing whitespace). Returns nullopt on malformed input.
std::optional<JsonValue> ParseJson(const std::string& text);

}  // namespace mcm

#endif  // MCM_OBS_EXPORT_H_
