#include "util/json_parse.hpp"

#include <charconv>
#include <stdexcept>
#include <utility>

namespace surro::util {
namespace {

const char* kind_name(JsonValue::Kind kind) {
  switch (kind) {
    case JsonValue::Kind::kNull: return "null";
    case JsonValue::Kind::kBool: return "bool";
    case JsonValue::Kind::kNumber: return "number";
    case JsonValue::Kind::kString: return "string";
    case JsonValue::Kind::kArray: return "array";
    default: return "object";
  }
}

[[noreturn]] void kind_error(const char* want, JsonValue::Kind got) {
  throw std::runtime_error(std::string("json: expected ") + want + ", have " +
                           kind_name(got));
}

}  // namespace

const JsonValue& JsonValue::at(const std::string& key) const {
  if (kind != Kind::kObject) kind_error("object", kind);
  const auto it = object.find(key);
  if (it == object.end()) {
    throw std::runtime_error("json: missing key '" + key + "'");
  }
  return it->second;
}

bool JsonValue::has(const std::string& key) const noexcept {
  return kind == Kind::kObject && object.contains(key);
}

double JsonValue::as_number() const {
  if (kind != Kind::kNumber) kind_error("number", kind);
  return number;
}

const std::string& JsonValue::as_string() const {
  if (kind != Kind::kString) kind_error("string", kind);
  return string;
}

bool JsonValue::as_bool() const {
  if (kind != Kind::kBool) kind_error("bool", kind);
  return boolean;
}

double JsonValue::number_or(const std::string& key, double fallback) const {
  return has(key) ? at(key).as_number() : fallback;
}

std::string JsonValue::string_or(const std::string& key,
                                 const std::string& fallback) const {
  return has(key) ? at(key).as_string() : fallback;
}

JsonReader::JsonReader(std::string_view text, const JsonLimits& limits)
    : s_(text), max_depth_(limits.max_depth) {
  // The byte cap is judged before any parsing work: a hostile megabyte
  // document costs O(1) to refuse, not O(n) to half-parse.
  if (limits.max_bytes != 0 && s_.size() > limits.max_bytes) {
    throw JsonParseError("json: document of " + std::to_string(s_.size()) +
                             " bytes exceeds the " +
                             std::to_string(limits.max_bytes) + "-byte limit",
                         0);
  }
}

void JsonReader::fail(const std::string& what) const {
  throw JsonParseError("json: " + what + " at offset " + std::to_string(pos_),
                       pos_);
}

void JsonReader::skip_ws() {
  while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                              s_[pos_] == '\n' || s_[pos_] == '\r')) {
    ++pos_;
  }
}

char JsonReader::peek_char() {
  skip_ws();
  if (pos_ >= s_.size()) fail("unexpected end of input");
  return s_[pos_];
}

void JsonReader::expect(char c) {
  if (peek_char() != c) fail(std::string("expected '") + c + "'");
  ++pos_;
}

bool JsonReader::literal(std::string_view word) {
  if (s_.substr(pos_, word.size()) != word) return false;
  pos_ += word.size();
  return true;
}

JsonReader::Kind JsonReader::peek() {
  switch (peek_char()) {
    case '{': return Kind::kObject;
    case '[': return Kind::kArray;
    case '"': return Kind::kString;
    case 't':
    case 'f': return Kind::kBool;
    case 'n': return Kind::kNull;
    default: return Kind::kNumber;
  }
}

void JsonReader::enter(char bracket) {
  if (peek_char() != bracket) fail(std::string("expected '") + bracket + "'");
  // Nesting depth is stack depth for read_value(); without the cap a
  // hostile "[[[[..." ten thousand levels down overflows the stack instead
  // of failing the parse.
  if (++depth_ > max_depth_) {
    fail("nesting deeper than " + std::to_string(max_depth_) + " levels");
  }
  ++pos_;
  first_ = true;
}

bool JsonReader::next_in(char close) {
  if (first_) {
    first_ = false;
    skip_ws();
    if (pos_ >= s_.size() || s_[pos_] != close) return true;
  } else {
    const char c = peek_char();
    if (c == ',') {
      ++pos_;
      return true;
    }
    if (c != close) fail(std::string("expected '") + close + "'");
  }
  ++pos_;
  --depth_;
  return false;
}

void JsonReader::begin_array() { enter('['); }

bool JsonReader::next_element() { return next_in(']'); }

void JsonReader::begin_object() { enter('{'); }

bool JsonReader::next_key(std::string& key) {
  if (!next_in('}')) return false;
  if (peek_char() != '"') fail("object key must be a string");
  string(key);
  expect(':');
  return true;
}

/// Four hex digits of a \u escape -> code unit.
unsigned JsonReader::hex4() {
  if (pos_ + 4 > s_.size()) fail("truncated \\u escape");
  unsigned code = 0;
  for (int i = 0; i < 4; ++i) {
    const char h = s_[pos_++];
    code <<= 4;
    if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
    else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
    else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
    else fail("bad hex digit in \\u escape");
  }
  return code;
}

void JsonReader::string(std::string& out) {
  out.clear();
  expect('"');
  for (;;) {
    // Copy the run of bytes that need no decoding in one append.
    std::size_t run = pos_;
    while (run < s_.size()) {
      const unsigned char u = static_cast<unsigned char>(s_[run]);
      if (u == '"' || u == '\\' || u < 0x20 || u >= 0x80) break;
      ++run;
    }
    out.append(s_.data() + pos_, run - pos_);
    pos_ = run;
    if (pos_ >= s_.size()) fail("unexpected end of input");
    const unsigned char u = static_cast<unsigned char>(s_[pos_]);
    if (u == '"') {
      ++pos_;
      return;
    }
    if (u == '\\') {
      ++pos_;
      escape(out);
    } else if (u < 0x20) {
      // RFC 8259 requires control characters to be escaped; the writer
      // escapes them (json_escape), so a raw one is malformed input.
      fail("raw control character in string (escape it as \\u00XX)");
    } else {
      utf8_sequence(out);
    }
  }
}

/// Decode one backslash escape (the backslash already consumed).
void JsonReader::escape(std::string& out) {
  if (pos_ >= s_.size()) fail("unterminated escape");
  const char e = s_[pos_++];
  switch (e) {
    case '"': out += '"'; return;
    case '\\': out += '\\'; return;
    case '/': out += '/'; return;
    case 'b': out += '\b'; return;
    case 'f': out += '\f'; return;
    case 'n': out += '\n'; return;
    case 'r': out += '\r'; return;
    case 't': out += '\t'; return;
    case 'u': break;
    default: fail("unknown escape");
  }
  unsigned code = hex4();
  // The writer only ever emits \u00XX (control characters); decode anything
  // larger to UTF-8 so foreign documents still parse — including UTF-16
  // surrogate pairs for non-BMP characters (a lone surrogate is malformed).
  if (code >= 0xD800 && code <= 0xDBFF) {
    if (pos_ + 2 > s_.size() || s_[pos_] != '\\' || s_[pos_ + 1] != 'u') {
      fail("high surrogate without a \\u low surrogate");
    }
    pos_ += 2;
    const unsigned low = hex4();
    if (low < 0xDC00 || low > 0xDFFF) {
      fail("high surrogate followed by a non-low surrogate");
    }
    code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
  } else if (code >= 0xDC00 && code <= 0xDFFF) {
    fail("lone low surrogate");
  }
  if (code < 0x80) {
    out += static_cast<char>(code);
    return;
  }
  if (code < 0x800) {
    out += static_cast<char>(0xC0 | (code >> 6));
  } else if (code < 0x10000) {
    out += static_cast<char>(0xE0 | (code >> 12));
    out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
  } else {
    out += static_cast<char>(0xF0 | (code >> 18));
    out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
    out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
  }
  out += static_cast<char>(0x80 | (code & 0x3F));
}

/// Validate + copy one multi-byte UTF-8 sequence starting at pos_.
/// Rejects stray continuation bytes, overlong encodings, surrogate code
/// points (0xED 0xA0.. — valid only as \u escape pairs), anything past
/// U+10FFFF, and truncation.
void JsonReader::utf8_sequence(std::string& out) {
  const unsigned char lead = static_cast<unsigned char>(s_[pos_]);
  std::size_t len = 0;
  unsigned char min_second = 0x80;
  unsigned char max_second = 0xBF;
  if (lead >= 0xC2 && lead <= 0xDF) {
    len = 2;
  } else if (lead >= 0xE0 && lead <= 0xEF) {
    len = 3;
    if (lead == 0xE0) min_second = 0xA0;  // overlong
    if (lead == 0xED) max_second = 0x9F;  // UTF-16 surrogate range
  } else if (lead >= 0xF0 && lead <= 0xF4) {
    len = 4;
    if (lead == 0xF0) min_second = 0x90;  // overlong
    if (lead == 0xF4) max_second = 0x8F;  // past U+10FFFF
  } else {
    // 0x80..0xBF (stray continuation) or 0xC0/0xC1/0xF5..0xFF (never
    // valid leads).
    fail("invalid UTF-8 byte in string");
  }
  if (pos_ + len > s_.size()) fail("truncated UTF-8 sequence in string");
  for (std::size_t i = 1; i < len; ++i) {
    const unsigned char b = static_cast<unsigned char>(s_[pos_ + i]);
    const unsigned char lo = i == 1 ? min_second : 0x80;
    const unsigned char hi = i == 1 ? max_second : 0xBF;
    if (b < lo || b > hi) {
      fail("invalid UTF-8 continuation byte in string");
    }
  }
  out.append(s_.substr(pos_, len));
  pos_ += len;
}

bool JsonReader::boolean() {
  static_cast<void>(peek_char());
  if (literal("true")) return true;
  if (!literal("false")) fail("bad literal");
  return false;
}

void JsonReader::null() {
  static_cast<void>(peek_char());
  if (!literal("null")) fail("bad literal");
}

double JsonReader::number() {
  static_cast<void>(peek_char());
  const std::size_t start = pos_;
  if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
  while (pos_ < s_.size() &&
         ((s_[pos_] >= '0' && s_[pos_] <= '9') || s_[pos_] == '+' ||
          s_[pos_] == '-' || s_[pos_] == '.' || s_[pos_] == 'e' ||
          s_[pos_] == 'E')) {
    ++pos_;
  }
  double v = 0.0;
  const auto res = std::from_chars(s_.data() + start, s_.data() + pos_, v);
  if (res.ec != std::errc{} || res.ptr != s_.data() + pos_ || pos_ == start) {
    pos_ = start;
    fail("bad number");
  }
  return v;
}

JsonValue JsonReader::read_value() {
  JsonValue v;
  v.kind = peek();
  switch (v.kind) {
    case Kind::kObject: {
      begin_object();
      std::string key;
      while (next_key(key)) {
        JsonValue member = read_value();
        v.object.insert_or_assign(std::move(key), std::move(member));
      }
      break;
    }
    case Kind::kArray:
      begin_array();
      while (next_element()) v.array.push_back(read_value());
      break;
    case Kind::kString: string(v.string); break;
    case Kind::kBool: v.boolean = boolean(); break;
    case Kind::kNull: null(); break;
    case Kind::kNumber: v.number = number(); break;
  }
  return v;
}

void JsonReader::finish() {
  skip_ws();
  if (pos_ != s_.size()) fail("trailing content after document");
}

JsonValue parse_json(std::string_view text, const JsonLimits& limits) {
  JsonReader reader(text, limits);
  JsonValue v = reader.read_value();
  reader.finish();
  return v;
}

JsonValue parse_json(std::string_view text) {
  return parse_json(text, JsonLimits{});
}

}  // namespace surro::util
