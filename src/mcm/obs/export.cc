#include "mcm/obs/export.h"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <cstring>

namespace mcm {

std::string JsonEscape(const std::string& s) {
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
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[32];
  // %.17g round-trips any double; trim to the shortest representation that
  // still parses back exactly.
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) {
      break;
    }
  }
  return buf;
}

void JsonObjectBuilder::Add(const std::string& key, const std::string& value) {
  fields_.emplace_back(key, "\"" + JsonEscape(value) + "\"");
}

void JsonObjectBuilder::Add(const std::string& key, const char* value) {
  Add(key, std::string(value));
}

void JsonObjectBuilder::Add(const std::string& key, double value) {
  fields_.emplace_back(key, JsonNumber(value));
}

void JsonObjectBuilder::Add(const std::string& key,
                            unsigned long long value) {
  fields_.emplace_back(key, std::to_string(value));
}

void JsonObjectBuilder::Add(const std::string& key, unsigned long value) {
  fields_.emplace_back(key, std::to_string(value));
}

void JsonObjectBuilder::Add(const std::string& key, unsigned value) {
  fields_.emplace_back(key, std::to_string(value));
}

void JsonObjectBuilder::Add(const std::string& key, long value) {
  fields_.emplace_back(key, std::to_string(value));
}

void JsonObjectBuilder::Add(const std::string& key, int value) {
  fields_.emplace_back(key, std::to_string(value));
}

void JsonObjectBuilder::Add(const std::string& key, bool value) {
  fields_.emplace_back(key, value ? "true" : "false");
}

void JsonObjectBuilder::AddRaw(const std::string& key,
                               const std::string& raw_json) {
  fields_.emplace_back(key, raw_json);
}

void JsonObjectBuilder::AddNumberArray(const std::string& key,
                                       const std::vector<double>& values) {
  std::string raw = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) raw += ",";
    raw += JsonNumber(values[i]);
  }
  raw += "]";
  fields_.emplace_back(key, raw);
}

std::string JsonObjectBuilder::Build() const {
  std::string out = "{";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"" + JsonEscape(fields_[i].first) + "\":" + fields_[i].second;
  }
  out += "}";
  return out;
}

JsonlWriter::JsonlWriter(const std::string& path)
    : path_(path), file_(std::fopen(path.c_str(), "w")) {}

JsonlWriter::~JsonlWriter() {
  if (file_ != nullptr) {
    std::fclose(file_);
  }
}

void JsonlWriter::WriteLine(const std::string& json) {
  if (file_ == nullptr) {
    return;
  }
  std::fwrite(json.data(), 1, json.size(), file_);
  std::fputc('\n', file_);
  ++lines_;
}

void JsonlWriter::Flush() {
  if (file_ != nullptr) {
    std::fflush(file_);
  }
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (kind != Kind::kObject) {
    return nullptr;
  }
  const auto it = object_value.find(key);
  return it == object_value.end() ? nullptr : &it->second;
}

namespace {

/// Recursive-descent JSON parser over [pos, text.size()).
class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  std::optional<JsonValue> Parse() {
    SkipWhitespace();
    JsonValue v;
    if (!ParseValue(&v)) {
      return std::nullopt;
    }
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return std::nullopt;  // Trailing garbage.
    }
    return v;
  }

 private:
  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(const char* lit) {
    const size_t len = std::strlen(lit);
    if (text_.compare(pos_, len, lit) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  bool ParseValue(JsonValue* out) {
    if (pos_ >= text_.size()) {
      return false;
    }
    switch (text_[pos_]) {
      case '{':
        return ParseObject(out);
      case '[':
        return ParseArray(out);
      case '"':
        out->kind = JsonValue::Kind::kString;
        return ParseString(&out->string_value);
      case 't':
        out->kind = JsonValue::Kind::kBool;
        out->bool_value = true;
        return ConsumeLiteral("true");
      case 'f':
        out->kind = JsonValue::Kind::kBool;
        out->bool_value = false;
        return ConsumeLiteral("false");
      case 'n':
        out->kind = JsonValue::Kind::kNull;
        return ConsumeLiteral("null");
      default:
        return ParseNumber(out);
    }
  }

  bool ParseObject(JsonValue* out) {
    out->kind = JsonValue::Kind::kObject;
    if (!Consume('{')) return false;
    SkipWhitespace();
    if (Consume('}')) return true;
    while (true) {
      SkipWhitespace();
      std::string key;
      if (!ParseString(&key)) return false;
      SkipWhitespace();
      if (!Consume(':')) return false;
      SkipWhitespace();
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->object_value.emplace(std::move(key), std::move(value));
      SkipWhitespace();
      if (Consume('}')) return true;
      if (!Consume(',')) return false;
    }
  }

  bool ParseArray(JsonValue* out) {
    out->kind = JsonValue::Kind::kArray;
    if (!Consume('[')) return false;
    SkipWhitespace();
    if (Consume(']')) return true;
    while (true) {
      SkipWhitespace();
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->array_value.push_back(std::move(value));
      SkipWhitespace();
      if (Consume(']')) return true;
      if (!Consume(',')) return false;
    }
  }

  bool ParseString(std::string* out) {
    if (!Consume('"')) return false;
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') {
        return true;
      }
      if (c != '\\') {
        *out += c;
        continue;
      }
      if (pos_ >= text_.size()) return false;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': *out += '"'; break;
        case '\\': *out += '\\'; break;
        case '/': *out += '/'; break;
        case 'b': *out += '\b'; break;
        case 'f': *out += '\f'; break;
        case 'n': *out += '\n'; break;
        case 'r': *out += '\r'; break;
        case 't': *out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return false;
          const std::string hex = text_.substr(pos_, 4);
          char* end = nullptr;
          const long code = std::strtol(hex.c_str(), &end, 16);
          if (end != hex.c_str() + 4) return false;
          pos_ += 4;
          // Artifact strings are ASCII; anything else degrades to '?'.
          *out += code < 0x80 ? static_cast<char>(code) : '?';
          break;
        }
        default:
          return false;
      }
    }
    return false;  // Unterminated string.
  }

  bool ParseNumber(JsonValue* out) {
    const char* start = text_.c_str() + pos_;
    char* end = nullptr;
    const double v = std::strtod(start, &end);
    if (end == start) {
      return false;
    }
    out->kind = JsonValue::Kind::kNumber;
    out->number_value = v;
    pos_ += static_cast<size_t>(end - start);
    return true;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

std::optional<JsonValue> ParseJson(const std::string& text) {
  return JsonParser(text).Parse();
}

}  // namespace mcm
