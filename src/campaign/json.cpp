#include "campaign/json.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>

namespace dq::campaign {

namespace {

/// Shortest round-trip text of `v` in `buf`.
std::string_view shortest(char (&buf)[32], double v) {
  if (!std::isfinite(v))
    throw std::invalid_argument("JSON cannot represent non-finite numbers");
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc{})
    throw std::invalid_argument("format_double: to_chars failed");
  return std::string_view(buf, static_cast<std::size_t>(end - buf));
}

}  // namespace

std::string format_double(double v) {
  char buf[32];
  return std::string(shortest(buf, v));
}

JsonValue JsonValue::boolean(bool b) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::number(double d) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_ = d;
  return v;
}

JsonValue JsonValue::integer(std::uint64_t u) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.integral_ = true;
  v.uint_ = u;
  v.number_ = static_cast<double>(u);
  return v;
}

JsonValue JsonValue::str(std::string s) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::array() {
  JsonValue v;
  v.kind_ = Kind::kArray;
  return v;
}

JsonValue JsonValue::object() {
  JsonValue v;
  v.kind_ = Kind::kObject;
  return v;
}

bool JsonValue::as_bool() const {
  if (kind_ != Kind::kBool) throw std::invalid_argument("JSON: not a bool");
  return bool_;
}

double JsonValue::as_number() const {
  if (kind_ != Kind::kNumber)
    throw std::invalid_argument("JSON: not a number");
  return number_;
}

std::uint64_t JsonValue::as_uint() const {
  if (kind_ != Kind::kNumber)
    throw std::invalid_argument("JSON: not a number");
  if (integral_) return uint_;
  // 0x1p64 is 2^64: casting it or anything larger is undefined.
  if (number_ < 0.0 || number_ != std::floor(number_) || number_ >= 0x1p64)
    throw std::invalid_argument("JSON: not an unsigned integer");
  return static_cast<std::uint64_t>(number_);
}

const std::string& JsonValue::as_string() const {
  if (kind_ != Kind::kString)
    throw std::invalid_argument("JSON: not a string");
  return string_;
}

void JsonValue::push_back(JsonValue v) {
  if (kind_ != Kind::kArray) throw std::invalid_argument("JSON: not an array");
  items_.push_back(std::move(v));
}

const std::vector<JsonValue>& JsonValue::items() const {
  if (kind_ != Kind::kArray) throw std::invalid_argument("JSON: not an array");
  return items_;
}

std::size_t JsonValue::size() const {
  if (kind_ == Kind::kArray) return items_.size();
  if (kind_ == Kind::kObject) return members_.size();
  throw std::invalid_argument("JSON: size() needs an array or object");
}

void JsonValue::set(std::string key, JsonValue v) {
  if (kind_ != Kind::kObject)
    throw std::invalid_argument("JSON: not an object");
  for (auto& member : members_) {
    if (member.first == key) {
      member.second = std::move(v);
      return;
    }
  }
  members_.emplace_back(std::move(key), std::move(v));
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::members()
    const {
  if (kind_ != Kind::kObject)
    throw std::invalid_argument("JSON: not an object");
  return members_;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& member : members_)
    if (member.first == key) return &member.second;
  return nullptr;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  const JsonValue* v = find(key);
  if (!v)
    throw std::out_of_range("JSON: missing key '" + std::string(key) + "'");
  return *v;
}

JsonWriter& JsonWriter::item(std::string_view text) {
  if (need_comma_) out_ += ',';
  out_ += text;
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::begin_object() {
  item("{");
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  out_ += '}';
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  item("[");
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  out_ += ']';
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  str(name);
  out_ += ':';
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::null() { return item("null"); }

JsonWriter& JsonWriter::boolean(bool b) { return item(b ? "true" : "false"); }

JsonWriter& JsonWriter::integer(std::uint64_t u) {
  char buf[24];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), u);
  (void)ec;  // 24 bytes hold any uint64
  return item(std::string_view(buf, static_cast<std::size_t>(end - buf)));
}

JsonWriter& JsonWriter::number(double d) {
  char buf[32];
  return item(shortest(buf, d));
}

JsonWriter& JsonWriter::str(std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  item("\"");
  for (const char c : s) {
    switch (c) {
      case '"': out_ += "\\\""; break;
      case '\\': out_ += "\\\\"; break;
      case '\n': out_ += "\\n"; break;
      case '\r': out_ += "\\r"; break;
      case '\t': out_ += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out_ += "\\u00";
          out_ += kHex[c >> 4];
          out_ += kHex[c & 0xf];
        } else {
          out_ += c;
        }
    }
  }
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::value(const JsonValue& v) {
  switch (v.kind_) {
    case JsonValue::Kind::kNull: return null();
    case JsonValue::Kind::kBool: return boolean(v.bool_);
    case JsonValue::Kind::kNumber:
      return v.integral_ ? integer(v.uint_) : number(v.number_);
    case JsonValue::Kind::kString: return str(v.string_);
    case JsonValue::Kind::kArray:
      begin_array();
      for (const JsonValue& element : v.items_) value(element);
      return end_array();
    case JsonValue::Kind::kObject:
      begin_object();
      for (const auto& [name, member] : v.members_) key(name).value(member);
      return end_object();
  }
  return *this;
}

std::string JsonValue::dump() const {
  std::string out;
  JsonWriter(out).value(*this);
  return out;
}

JsonReader::Token JsonReader::next() {
  scalar_.kind_ = JsonValue::Kind::kNull;
  skip_ws();
  if (value_due_) {
    value_due_ = false;
    return token_ = value();
  }
  if (open_.empty()) {
    if (pos_ != text_.size()) fail("trailing characters");
    return token_ = Token::kEnd;
  }
  const bool object = open_.back() == '{';
  if (pos_ < text_.size() && text_[pos_] == (object ? '}' : ']')) {
    ++pos_;
    open_.pop_back();
    need_comma_ = true;
    return token_ = object ? Token::kEndObject : Token::kEndArray;
  }
  if (need_comma_) {
    expect(',');
    skip_ws();
  }
  if (!object) return token_ = value();
  if (pos_ >= text_.size() || text_[pos_] != '"') fail("expected a key");
  read_string();
  skip_ws();
  expect(':');
  value_due_ = true;
  return token_ = Token::kKey;
}

void JsonReader::skip(Token first) {
  if (first != Token::kBeginArray && first != Token::kBeginObject) return;
  for (const std::size_t depth = open_.size(); open_.size() >= depth;) next();
}

JsonValue JsonReader::tree(Token first) {
  switch (first) {
    case Token::kNumber:  // built afresh, which is cheaper than a copy
      return scalar_.integral_ ? JsonValue::integer(scalar_.uint_)
                               : JsonValue::number(scalar_.number_);
    case Token::kString: return JsonValue::str(std::string(string_));
    case Token::kBeginArray: {
      JsonValue out = JsonValue::array();
      for (Token t = next(); t != Token::kEndArray; t = next())
        out.items_.push_back(tree(t));
      return out;
    }
    case Token::kBeginObject: {
      JsonValue out = JsonValue::object();
      while (next() == Token::kKey) {
        std::string key(string_);
        out.set(std::move(key), tree(next()));
      }
      return out;
    }
    default: return scalar_;  // null or bool
  }
}

std::string_view JsonReader::as_string() const {
  if (token_ != Token::kString && token_ != Token::kKey)
    throw std::invalid_argument("JSON: not a string");
  return string_;
}

std::size_t JsonReader::room_for(std::uint64_t n) const {
  return static_cast<std::size_t>(
      std::min<std::uint64_t>(n, (text_.size() - pos_) / 2 + 1));
}

void JsonReader::fail(const char* what) const {
  throw std::invalid_argument(std::string("JSON parse error: ") + what +
                              " at offset " + std::to_string(pos_));
}

void JsonReader::skip_ws() {
  while (pos_ < text_.size() &&
         (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
          text_[pos_] == '\r'))
    ++pos_;
}

void JsonReader::expect(char c) {
  if (pos_ >= text_.size() || text_[pos_] != c) fail("unexpected character");
  ++pos_;
}

JsonReader::Token JsonReader::value() {
  if (pos_ >= text_.size()) fail("unexpected end of input");
  need_comma_ = true;
  const auto word = [&](std::string_view w) {
    if (text_.substr(pos_, w.size()) != w) fail("invalid literal");
    pos_ += w.size();
  };
  switch (const char c = text_[pos_]) {
    case 'n': word("null"); return Token::kNull;
    case 't':
    case 'f':
      word(c == 't' ? "true" : "false");
      scalar_.kind_ = JsonValue::Kind::kBool;
      scalar_.bool_ = c == 't';
      return Token::kBool;
    case '"': read_string(); return Token::kString;
    case '[':
    case '{':
      // The cap turns hostile nesting into an error, not a stack
      // overflow in a recursive consumer such as tree().
      if (open_.size() >= JsonValue::kMaxParseDepth) fail("nesting too deep");
      ++pos_;
      open_ += c;
      need_comma_ = false;
      return c == '{' ? Token::kBeginObject : Token::kBeginArray;
    default: read_number(); return Token::kNumber;
  }
}

void JsonReader::read_string() {
  const std::size_t start = ++pos_;  // past the opening quote
  bool escaped = false;  // string_ is then buf_, not a view of text_
  for (;;) {
    const std::size_t stop = text_.find_first_of("\"\\", pos_);
    if (stop == std::string_view::npos) fail("unterminated string");
    if (escaped)
      buf_.append(text_.substr(pos_, stop - pos_));
    else if (text_[stop] == '\\')
      buf_.assign(text_.substr(start, stop - start));
    pos_ = stop + 1;
    if (text_[stop] == '"') break;
    escaped = true;
    if (pos_ >= text_.size()) fail("unterminated escape");
    switch (text_[pos_++]) {
      case '"': buf_ += '"'; break;
      case '\\': buf_ += '\\'; break;
      case '/': buf_ += '/'; break;
      case 'b': buf_ += '\b'; break;
      case 'f': buf_ += '\f'; break;
      case 'n': buf_ += '\n'; break;
      case 'r': buf_ += '\r'; break;
      case 't': buf_ += '\t'; break;
      case 'u': {
        if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
          const char h = text_[pos_++];
          code <<= 4;
          if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
          else if (h >= 'a' && h <= 'f')
            code |= static_cast<unsigned>(h - 'a' + 10);
          else if (h >= 'A' && h <= 'F')
            code |= static_cast<unsigned>(h - 'A' + 10);
          else
            fail("invalid \\u escape");
        }
        // We only ever emit \u00xx for control characters; decode the
        // BMP code point as UTF-8 for completeness.
        if (code < 0x80) {
          buf_ += static_cast<char>(code);
        } else if (code < 0x800) {
          buf_ += static_cast<char>(0xC0 | (code >> 6));
          buf_ += static_cast<char>(0x80 | (code & 0x3F));
        } else {
          buf_ += static_cast<char>(0xE0 | (code >> 12));
          buf_ += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
          buf_ += static_cast<char>(0x80 | (code & 0x3F));
        }
        break;
      }
      default: fail("unknown escape");
    }
  }
  string_ = escaped ? std::string_view(buf_)
                    : text_.substr(start, pos_ - 1 - start);
}

void JsonReader::read_number() {
  const std::size_t start = pos_;
  // Digits alone are a plain non-negative integer, which keeps full
  // 64-bit precision; everything else parses as double.
  bool plain = true;
  for (; pos_ < text_.size(); ++pos_) {
    const char c = text_[pos_];
    if (c >= '0' && c <= '9') continue;
    if (c != '.' && c != 'e' && c != 'E' && c != '+' && c != '-') break;
    plain = false;
  }
  const char* first = text_.data() + start;
  const char* last = text_.data() + pos_;
  if (first == last) fail("expected a value");
  JsonValue& v = scalar_;
  v.kind_ = JsonValue::Kind::kNumber;
  v.integral_ = false;
  if (plain) {
    const auto [ptr, ec] = std::from_chars(first, last, v.uint_);
    v.integral_ = ec == std::errc{} && ptr == last;
  }
  if (v.integral_) {
    v.number_ = static_cast<double>(v.uint_);
    return;
  }
  const auto [ptr, ec] = std::from_chars(first, last, v.number_);
  if (ec != std::errc{} || ptr != last) fail("malformed number");
}

JsonValue JsonValue::parse(std::string_view text) {
  JsonReader in(text);
  JsonValue v = in.tree(in.next());
  in.next();  // kEnd, or throws on trailing characters
  return v;
}

}  // namespace dq::campaign
