#pragma once
// Minimal JSON emitter for machine-readable result artifacts (benchmark
// trajectories, scenario-matrix scores, serve_stats) that CI archives and
// diffs, and for the HTTP job pages. The reading counterpart is
// util/json_parse.hpp. The interface is a flat token stream with nesting
// checks in the separator logic; numbers are written with enough digits to
// round-trip exactly, and non-finite doubles (NaN and ±inf — e.g. latency
// percentiles over an empty window) degrade to null (JSON has neither).
// Scalars are escaped and formatted straight into the document buffer,
// with no temporary string per value, and take() moves the document out.

#include <charconv>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace surro::util {

/// Append `s` escaped for inclusion inside a JSON string literal (quotes not
/// added). Runs of bytes that need no escape are copied in one append.
inline void append_json_escaped(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const unsigned char ch = static_cast<unsigned char>(s[i]);
    if (ch >= 0x20 && ch != '"' && ch != '\\') continue;
    out.append(s.data() + run, i - run);
    run = i + 1;
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        out += "\\u00";
        out += kHex[ch >> 4];
        out += kHex[ch & 0xF];
    }
  }
  out.append(s.data() + run, s.size() - run);
}

/// Escape for inclusion inside a JSON string literal (quotes not added).
[[nodiscard]] inline std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  append_json_escaped(out, s);
  return out;
}

/// Append the shortest decimal representation that round-trips the double
/// ("null" for NaN/Inf, which JSON cannot represent).
inline void append_json_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, static_cast<std::size_t>(res.ptr - buf));
}

/// Shortest decimal representation that round-trips the double ("null" for
/// NaN/Inf, which JSON cannot represent).
[[nodiscard]] inline std::string json_number(double v) {
  std::string out;
  append_json_number(out, v);
  return out;
}

/// Streaming writer: begin/end containers, key() before each object value.
///
///   JsonWriter w;
///   w.begin_object();
///   w.key("scores").begin_array();
///   w.value(0.25).value(0.5);
///   w.end_array();
///   w.end_object();
///   write_file(w.str());
class JsonWriter {
 public:
  JsonWriter& begin_object() { return open('{'); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array() { return open('['); }
  JsonWriter& end_array() { return close(']'); }

  JsonWriter& key(std::string_view k) {
    separate();
    out_ += '"';
    append_json_escaped(out_, k);
    out_ += "\":";
    pending_key_ = true;
    return *this;
  }

  JsonWriter& value(std::string_view v) {
    separate();
    out_ += '"';
    append_json_escaped(out_, v);
    out_ += '"';
    return *this;
  }
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(double v) {
    separate();
    append_json_number(out_, v);
    return *this;
  }
  /// Any integer type (kept separate from double so values stay exact).
  template <typename T>
    requires std::is_integral_v<T> && (!std::is_same_v<T, bool>)
  JsonWriter& value(T v) {
    separate();
    char buf[24];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    out_.append(buf, static_cast<std::size_t>(res.ptr - buf));
    return *this;
  }
  JsonWriter& value(bool v) {
    separate();
    out_ += v ? "true" : "false";
    return *this;
  }
  JsonWriter& null() {
    separate();
    out_ += "null";
    return *this;
  }

  /// Splice a pre-serialized JSON value (trusted — not validated) as the
  /// next value; lets emitters nest each other's complete documents.
  JsonWriter& raw(std::string_view json) {
    separate();
    out_ += json;
    return *this;
  }

  /// key + scalar in one call: w.kv("rows", 42).
  template <typename T>
  JsonWriter& kv(std::string_view k, const T& v) {
    key(k);
    return value(v);
  }

  /// Pre-size the output buffer for a document of about `bytes`.
  void reserve(std::size_t bytes) { out_.reserve(bytes); }

  /// The document so far (valid JSON once every container is closed).
  [[nodiscard]] const std::string& str() const noexcept { return out_; }
  /// Move the document out; the writer is spent.
  [[nodiscard]] std::string take() noexcept { return std::move(out_); }

 private:
  JsonWriter& open(char bracket) {
    separate();
    out_ += bracket;
    first_.push_back(true);
    return *this;
  }
  JsonWriter& close(char bracket) {
    if (!first_.empty()) first_.pop_back();
    out_ += bracket;
    return *this;
  }
  /// Emit "," between siblings; keys handle their own ":" separator.
  void separate() {
    if (pending_key_) {
      pending_key_ = false;
      return;
    }
    if (!first_.empty()) {
      if (!first_.back()) out_ += ',';
      first_.back() = false;
    }
  }

  std::string out_;
  std::vector<bool> first_;  // per open container: no sibling emitted yet
  bool pending_key_ = false;
};

}  // namespace surro::util
