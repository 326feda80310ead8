#pragma once
// JSON reading, the consuming counterpart of util/json.hpp, in two layers
// over one tokenizer:
//
//   * JsonReader — a strict pull reader over one document. The caller walks
//     the document in order: peek() the next value's kind, begin_array() /
//     next_element() and begin_object() / next_key() through containers,
//     and read scalars with number(), string(buf), boolean() and null().
//     Nothing is allocated per value unless the caller asks for it, so a
//     large document (the HTTP job page: thousands of rows of cells) is
//     decoded in one pass straight into the caller's own storage.
//     read_value() hands back any subtree as a DOM for the small parts.
//   * parse_json — the DOM builder: read_value() on the whole document,
//     then finish(). Request scripts, request bodies and test round-trips
//     use it.
//
// Both enforce the same strictness, because they are the same code: a byte
// cap judged before any work, a container depth cap, RFC 8259 strings
// (valid UTF-8, escaped control characters, paired surrogates), one
// number grammar (JsonReader::number), and no trailing content. Every malformed input fails with
// a JsonParseError carrying the byte offset, never a best-effort guess.

#include <cstddef>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace surro::util {

/// One node of a parsed JSON document. Exactly one of the payload fields is
/// meaningful, selected by `kind`; the accessors below throw on kind
/// mismatches so consumers surface schema errors instead of reading zeros.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  [[nodiscard]] bool is_null() const noexcept { return kind == Kind::kNull; }

  /// Object member lookup; throws std::runtime_error when absent or when
  /// this value is not an object.
  [[nodiscard]] const JsonValue& at(const std::string& key) const;
  /// True when this is an object that has `key`.
  [[nodiscard]] bool has(const std::string& key) const noexcept;

  /// Checked scalar reads (throw std::runtime_error on kind mismatch).
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] bool as_bool() const;

  /// Object member with a fallback when the key is absent (the member, when
  /// present, must still have the right kind).
  [[nodiscard]] double number_or(const std::string& key,
                                 double fallback) const;
  [[nodiscard]] std::string string_or(const std::string& key,
                                      const std::string& fallback) const;
};

/// What a parse rejected and where. Subclasses std::runtime_error so every
/// pre-existing catch site keeps working; new consumers (the HTTP front
/// end) can catch the typed form and surface the offset.
class JsonParseError : public std::runtime_error {
 public:
  JsonParseError(const std::string& what, std::size_t offset)
      : std::runtime_error(what), offset_(offset) {}
  /// Byte offset into the document where the parse failed.
  [[nodiscard]] std::size_t offset() const noexcept { return offset_; }

 private:
  std::size_t offset_;
};

/// Hostile-input bounds for documents that arrive over the network (the
/// HTTP front end mirrors its body cap here so the framing layer and the
/// parser agree on "too big").
struct JsonLimits {
  /// Maximum document size in bytes; 0 = unlimited (trusted local input).
  std::size_t max_bytes = 0;
  /// Maximum container nesting. The DOM builder is recursive-descent, so
  /// depth is stack depth; the cap turns a hostile "[[[[..." into a
  /// JsonParseError instead of a stack overflow.
  std::size_t max_depth = 128;
};

/// Strict pull reader over one JSON document (see the file comment). Every
/// call that meets malformed input throws JsonParseError; after a throw the
/// reader is spent. The text must outlive the reader.
///
///   JsonReader r(body);
///   r.begin_array();
///   while (r.next_element()) total += r.number();
///   r.finish();
class JsonReader {
 public:
  using Kind = JsonValue::Kind;

  /// Throws JsonParseError (offset 0) when `text` exceeds
  /// `limits.max_bytes` — before reading a byte of it.
  explicit JsonReader(std::string_view text, const JsonLimits& limits = {});

  /// Kind of the next value (whitespace skipped, nothing consumed). Any
  /// byte that starts no other kind reports kNumber, so number() raises
  /// the error. Throws at end of input.
  [[nodiscard]] Kind peek();

  /// Enter an array. Then call next_element() before each element: it
  /// consumes the separator and returns true while an element follows,
  /// and consumes the closing ']' when it returns false.
  void begin_array();
  [[nodiscard]] bool next_element();
  /// Enter an object. Then call next_key() before each member: it reads
  /// the member's key (and its ':') into `key` and returns true, or
  /// consumes the closing '}' and returns false.
  void begin_object();
  [[nodiscard]] bool next_key(std::string& key);

  /// Scalar reads; each throws when the next value is not of its kind.
  /// A number is an optional '-' and then the longest run of digits,
  /// signs, '.', 'e' and 'E', which std::from_chars must consume whole.
  [[nodiscard]] double number();
  /// Decode a string value into `out` (cleared first).
  void string(std::string& out);
  [[nodiscard]] bool boolean();
  void null();

  /// The next value, whatever its kind, as a DOM subtree.
  [[nodiscard]] JsonValue read_value();

  /// Require that only whitespace remains.
  void finish();

 private:
  /// Throw a JsonParseError for `what` at the current offset.
  [[noreturn]] void fail(const std::string& what) const;
  void skip_ws();
  [[nodiscard]] char peek_char();
  void expect(char c);
  [[nodiscard]] bool literal(std::string_view word);
  [[nodiscard]] unsigned hex4();
  void escape(std::string& out);
  void utf8_sequence(std::string& out);
  void enter(char bracket);
  [[nodiscard]] bool next_in(char close);

  std::string_view s_;
  std::size_t max_depth_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  // open containers (<= max_depth_)
  bool first_ = false;     // just entered a container: no separator yet
};

/// Parse one complete JSON document; trailing non-whitespace is an error.
/// Throws JsonParseError (a std::runtime_error) with a byte offset on
/// malformed input. Strict by design — the checks network input relies on:
///   * containers nest at most `limits.max_depth` levels;
///   * a document longer than `limits.max_bytes` (when nonzero) is refused
///     before any parsing work;
///   * strings must be valid UTF-8 (overlong encodings, surrogate bytes,
///     and truncated sequences are rejected) with control characters
///     < 0x20 escaped, exactly as util::json_escape writes them.
[[nodiscard]] JsonValue parse_json(std::string_view text,
                                   const JsonLimits& limits);
/// Default limits: no byte cap (trusted local input), depth 128.
[[nodiscard]] JsonValue parse_json(std::string_view text);

}  // namespace surro::util
