// The program's one JSON module: the strict reader every JSON input goes
// through (what-if bodies, daemon snapshots, obs JSONL recordings) and the
// one escaping routine and %.17g double rendering every JSON-emitting layer
// (obs exporters, the serving daemon, bench artifacts) agrees on — so the
// serving subsystem cannot drift from the recorder on number formatting, and
// bit-identical doubles across the batch/served boundary hold.
//
// ParseJson is a small recursive-descent parser producing a JsonValue tree.
// It is strict where it matters for network-facing and replayed input:
// trailing garbage, unterminated literals, invalid numbers (NaN/Inf/hex),
// bad escapes and nesting past a fixed depth cap are all rejected. Integral
// literals keep their exact 64-bit value, so seeds above 2^53 survive.
//
// JsonWriter is a small streaming writer with comma/nesting bookkeeping for
// code that builds whole documents (responses, snapshots); the free
// functions remain for printf-style emitters that only need the primitives.

#ifndef RHYTHM_SRC_COMMON_JSON_H_
#define RHYTHM_SRC_COMMON_JSON_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace rhythm {

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  // Every number, rounded to the nearest double.
  double number = 0.0;
  // A number's literal text as written, from which the integer accessors
  // read integral literals exactly.
  std::string literal;
  std::string string;
  std::vector<JsonValue> array;
  // Insertion-ordered; duplicate keys are rejected at parse time.
  std::vector<std::pair<std::string, JsonValue>> object;

  bool is_null() const { return type == Type::kNull; }
  bool is_bool() const { return type == Type::kBool; }
  bool is_number() const { return type == Type::kNumber; }
  bool is_string() const { return type == Type::kString; }
  bool is_array() const { return type == Type::kArray; }
  bool is_object() const { return type == Type::kObject; }

  // Exact integer value of this number: true only for an integral literal
  // (no fraction or exponent) that fits the target type. "1.5", "1e3" and,
  // for GetUInt64, "-1" are not integers; nothing is rounded or wrapped.
  bool GetInt64(int64_t* out) const;
  bool GetUInt64(uint64_t* out) const;

  // Object member lookup; null when absent or this is not an object.
  const JsonValue* Find(const std::string& key) const;

  // Typed member accessors with defaults. A present member of the wrong
  // type (for IntOr/UIntOr: anything but an in-range integral literal) is
  // NOT coerced — it yields the fallback; callers that must reject it use
  // Find() and the Get* readers.
  double NumberOr(const std::string& key, double fallback) const;
  int64_t IntOr(const std::string& key, int64_t fallback) const;
  uint64_t UIntOr(const std::string& key, uint64_t fallback) const;
  bool BoolOr(const std::string& key, bool fallback) const;
  std::string StringOr(const std::string& key, const std::string& fallback) const;
};

// Deepest container nesting the parser accepts (arrays + objects combined).
inline constexpr int kMaxJsonDepth = 64;

// Parses `text` as one JSON document. Returns true and fills `out` on
// success; false with a "json:"-prefixed, position-stamped message in
// `error` otherwise.
bool ParseJson(const std::string& text, JsonValue* out, std::string* error);

// %.17g keeps every double bit-exact across a write/parse round trip.
std::string JsonNum(double value);

// Body of a JSON string literal for `text` (no surrounding quotes): escapes
// quote, backslash, \n, \t and renders other control bytes as \u00xx.
std::string JsonEscape(const std::string& text);

// Streaming JSON document builder. Usage:
//   JsonWriter w;
//   w.BeginObject().Key("emu").Number(0.81).Key("pods").BeginArray();
//   ...
//   w.EndArray().EndObject();
//   std::string body = std::move(w).str();
// The writer tracks nesting depth and element counts, inserting commas; it
// does not validate key/value alternation beyond what the methods imply.
class JsonWriter {
 public:
  JsonWriter& BeginObject() {
    Separate();
    out_ += '{';
    fresh_.push_back(true);
    return *this;
  }

  JsonWriter& EndObject() {
    out_ += '}';
    fresh_.pop_back();
    return *this;
  }

  JsonWriter& BeginArray() {
    Separate();
    out_ += '[';
    fresh_.push_back(true);
    return *this;
  }

  JsonWriter& EndArray() {
    out_ += ']';
    fresh_.pop_back();
    return *this;
  }

  JsonWriter& Key(const std::string& key) {
    Separate();
    out_ += '"';
    out_ += JsonEscape(key);
    out_ += "\":";
    after_key_ = true;
    return *this;
  }

  JsonWriter& String(const std::string& value) {
    Separate();
    out_ += '"';
    out_ += JsonEscape(value);
    out_ += '"';
    return *this;
  }

  JsonWriter& Number(double value) {
    Separate();
    out_ += JsonNum(value);
    return *this;
  }

  JsonWriter& Int(int64_t value) {
    Separate();
    out_ += std::to_string(value);
    return *this;
  }

  JsonWriter& UInt(uint64_t value) {
    Separate();
    out_ += std::to_string(value);
    return *this;
  }

  JsonWriter& Bool(bool value) {
    Separate();
    out_ += value ? "true" : "false";
    return *this;
  }

  JsonWriter& Null() {
    Separate();
    out_ += "null";
    return *this;
  }

  // Pre-rendered JSON spliced in verbatim (e.g. a nested document built
  // elsewhere). The caller vouches for its validity.
  JsonWriter& Raw(const std::string& json) {
    Separate();
    out_ += json;
    return *this;
  }

  const std::string& str() const& { return out_; }
  std::string str() && { return std::move(out_); }

 private:
  // Emits the separating comma for the second and later elements of the
  // innermost container; a value directly after Key() never separates.
  void Separate() {
    if (after_key_) {
      after_key_ = false;
      return;
    }
    if (fresh_.empty()) {
      return;
    }
    if (!fresh_.back()) {
      out_ += ',';
    }
    fresh_.back() = false;
  }

  std::string out_;
  std::vector<bool> fresh_;  // per open container: no element emitted yet.
  bool after_key_ = false;
};

}  // namespace rhythm

#endif  // RHYTHM_SRC_COMMON_JSON_H_
