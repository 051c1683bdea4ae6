// Minimal canonical JSON: a streaming writer, a pull reader and a
// document model for campaign artifacts, manifests, checkpoints and
// traces.
//
// Deliberately not a general-purpose JSON library: it exists so job
// configs, cached results, manifests and checkpoints serialize
// *canonically* — objects keep insertion order, numbers render via
// std::to_chars (shortest round-trip form), and no whitespace is
// emitted — so the same value always produces the same bytes and
// content hashes are meaningful. JsonWriter is the one formatter and
// JsonReader, its twin, the one reader: JsonValue::dump() walks a tree
// through the writer, and JsonValue::parse() builds one from the
// reader's tokens. The reader accepts standard JSON (whitespace
// included). A loader that needs no tree pulls tokens itself: the
// checkpoint's (serve/checkpoint.hpp) decodes its host columns
// straight into typed arrays.
#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dq::campaign {

class JsonValue {
 public:
  enum class Kind : std::uint8_t {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject,
  };

  JsonValue() = default;  // null
  static JsonValue boolean(bool b);
  static JsonValue number(double v);
  /// Integer-valued number: dumps without a decimal point so counters
  /// round-trip exactly (doubles would lose precision past 2^53).
  static JsonValue integer(std::uint64_t v);
  static JsonValue str(std::string s);
  static JsonValue array();
  static JsonValue object();

  Kind kind() const noexcept { return kind_; }
  bool is_null() const noexcept { return kind_ == Kind::kNull; }

  bool as_bool() const;
  double as_number() const;
  std::uint64_t as_uint() const;
  const std::string& as_string() const;

  /// Array access.
  void push_back(JsonValue v);
  const std::vector<JsonValue>& items() const;
  std::size_t size() const;

  /// Object access. set() appends (or overwrites in place, keeping the
  /// original position); members() preserves insertion order.
  void set(std::string key, JsonValue v);
  const std::vector<std::pair<std::string, JsonValue>>& members() const;
  /// Member lookup; nullptr when absent (or not an object).
  const JsonValue* find(std::string_view key) const;
  /// Member lookup; throws std::out_of_range when absent.
  const JsonValue& at(std::string_view key) const;

  /// Canonical serialization: no whitespace, insertion-ordered keys,
  /// shortest-round-trip numbers.
  std::string dump() const;

  /// Deepest array/object nesting JsonReader, and so parse(), accepts.
  static constexpr std::size_t kMaxParseDepth = 512;

  /// Parses standard JSON. Throws std::invalid_argument on malformed
  /// input, trailing garbage, or nesting deeper than kMaxParseDepth.
  static JsonValue parse(std::string_view text);

 private:
  friend class JsonReader;
  friend class JsonWriter;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  bool integral_ = false;  ///< render number_ from uint_
  std::uint64_t uint_ = 0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Streaming canonical writer: appends to a caller-owned string and
/// places the commas and colons itself, so a document is a flat
/// sequence of calls —
///
///   JsonWriter w(out);
///   w.begin_object().key("n").integer(3).key("xs").begin_array();
///   for (double x : xs) w.number(x);
///   w.end_array().end_object();
///
/// Integers render via to_chars (full 64-bit precision), doubles via
/// format_double, strings with control characters escaped. Callers
/// pair begin/end and give every object member a key(); the writer
/// does not check the nesting.
class JsonWriter {
 public:
  explicit JsonWriter(std::string& out) : out_(out) {}

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();
  /// Object member name; the next call writes its value.
  JsonWriter& key(std::string_view name);

  JsonWriter& null();
  JsonWriter& boolean(bool b);
  JsonWriter& integer(std::uint64_t u);
  /// Throws std::invalid_argument on NaN or infinity.
  JsonWriter& number(double d);
  JsonWriter& str(std::string_view s);
  /// Writes a whole document tree (JsonValue::dump() is exactly this).
  JsonWriter& value(const JsonValue& v);

 private:
  /// Appends `text` as the next item, after a comma when one is due.
  JsonWriter& item(std::string_view text);

  std::string& out_;
  /// An item was just completed at the current level: the next one
  /// needs a comma. Cleared by begin_* and key(), set by values and
  /// end_* — one flag suffices because a closed container is itself a
  /// completed item of its parent.
  bool need_comma_ = false;
};

/// Pull tokenizer over one whole document (which must outlive it), the
/// reading twin of JsonWriter: each next() returns the next token, so
/// a document is a flat sequence of calls —
///
///   JsonReader in(text);
///   if (in.next() != JsonReader::Token::kBeginObject) ...;
///   while (in.next() == JsonReader::Token::kKey) {
///     if (in.as_string() == "n") { in.next(); n = in.as_uint(); }
///     else in.skip(in.next());
///   }
///   in.next();  // kEnd once only whitespace is left
///
/// The reader checks the grammar as it goes: commas and colons, a key
/// before every member value, nesting no deeper than
/// JsonValue::kMaxParseDepth, and nothing after the document. It
/// throws std::invalid_argument naming the byte offset, so a consumer
/// only ever sees the tokens of a well-formed prefix.
class JsonReader {
 public:
  enum class Token : std::uint8_t {
    kNull, kBool, kNumber, kString,
    kBeginArray, kEndArray, kBeginObject, kEndObject,
    kKey,  ///< an object member's name; its value's tokens follow
    kEnd,  ///< the document is complete
  };

  explicit JsonReader(std::string_view text) : text_(text) {}

  Token next();
  /// Reads past the rest of the value whose first token was `first`.
  void skip(Token first);
  /// The tree of the value whose first token was `first`;
  /// JsonValue::parse() is this over a whole document.
  JsonValue tree(Token first);

  /// The current token's value. Like JsonValue's accessors, each throws
  /// std::invalid_argument on a token of another kind, and as_uint()
  /// keeps a plain non-negative integer's full 64-bit precision.
  bool as_bool() const { return scalar_.as_bool(); }
  double as_number() const { return scalar_.as_number(); }
  std::uint64_t as_uint() const { return scalar_.as_uint(); }
  /// The current string or key, unescaped; valid until next().
  std::string_view as_string() const;

  /// `n` capped at how many array entries the unread input can hold
  /// (two bytes each at least): a capacity that a count read from the
  /// input cannot inflate.
  std::size_t room_for(std::uint64_t n) const;

 private:
  [[noreturn]] void fail(const char* what) const;
  void skip_ws();
  void expect(char c);
  Token value();
  void read_string();
  void read_number();

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string open_;         ///< '[' or '{' per open container
  bool value_due_ = true;    ///< at the start, or after a key
  bool need_comma_ = false;  ///< a value just ended at this level
  Token token_ = Token::kEnd;
  JsonValue scalar_;         ///< the current null, bool or number
  std::string_view string_;  ///< into text_, or buf_ when escaped
  std::string buf_;
};

/// Shortest round-trip decimal rendering of a double ("1", "0.25",
/// "1e+30"); what JsonWriter::number writes. Throws
/// std::invalid_argument on NaN or infinity.
std::string format_double(double v);

}  // namespace dq::campaign
