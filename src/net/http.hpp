#pragma once
// HTTP/1.1 wire format for the network serving front end: request/response
// value types, an *incremental* request parser, and response serialization.
// Dependency-free by design (the container bakes in no HTTP library), and
// deliberately small: the server speaks exactly the subset the REST API
// needs — GET/POST/DELETE, Content-Length bodies, keep-alive — and answers
// everything else with a precise status code instead of guessing.
//
// The parser is fed raw socket bytes in arbitrary slices (a request line
// may arrive one byte at a time; two pipelined requests may arrive in one
// read) and owns the protocol-error taxonomy: 400 for malformed syntax,
// 413 for a body past the configured cap, 431 for oversized headers, 505
// for versions other than HTTP/1.0 and 1.1. Size caps are enforced *while
// reading*, so a hostile peer cannot make the server buffer an unbounded
// request before it is judged.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

namespace surro::net {

/// Byte caps the parser enforces while a request streams in.
struct HttpLimits {
  /// Request line + headers, including the terminating blank line.
  std::size_t max_header_bytes = 16 * 1024;
  /// Declared Content-Length bound (the REST layer mirrors this into its
  /// JSON parser's document cap, so both layers agree on "too big").
  std::size_t max_body_bytes = 1 << 20;
};

struct HttpRequest {
  std::string method;  ///< as sent (token, case-sensitive per RFC 9110)
  std::string target;  ///< raw request target, e.g. "/v1/jobs/7?cursor=0"
  std::string path;    ///< target up to '?'
  std::map<std::string, std::string> query;    ///< decoded ?k=v pairs
  std::map<std::string, std::string> headers;  ///< field names lowercased
  std::string body;
  int version_minor = 1;   ///< HTTP/1.<minor>
  bool keep_alive = true;  ///< resolved from version + Connection header

  /// Header lookup by lowercase name, with a fallback when absent.
  [[nodiscard]] std::string header(const std::string& name,
                                   const std::string& fallback = "") const {
    const auto it = headers.find(name);
    return it == headers.end() ? fallback : it->second;
  }
  /// Query parameter with a fallback when absent.
  [[nodiscard]] std::string query_or(const std::string& key,
                                     const std::string& fallback = "") const {
    const auto it = query.find(key);
    return it == query.end() ? fallback : it->second;
  }
};

struct HttpResponse {
  int status = 200;
  std::map<std::string, std::string> headers;
  std::string body;

  /// Response with a JSON body (sets Content-Type).
  [[nodiscard]] static HttpResponse json(int status, std::string body);
  /// Response with a text/plain body.
  [[nodiscard]] static HttpResponse text(int status, std::string body);
};

/// Canonical reason phrase for the status codes this server emits
/// ("Unknown" for anything else — never throws).
[[nodiscard]] const char* status_reason(int status) noexcept;

/// Incremental HTTP/1.1 request parser. Feed it socket bytes as they
/// arrive; it transitions kNeedMore -> kComplete (request() is valid) or
/// kNeedMore -> kError (error_status()/error_reason() describe the 4xx/5xx
/// to answer before closing). After a kComplete, reset() re-arms the
/// parser for the next request on the connection, retaining any pipelined
/// bytes that arrived beyond the current request.
class RequestParser {
 public:
  explicit RequestParser(HttpLimits limits = {}) : limits_(limits) {}

  enum class State { kNeedMore, kComplete, kError };

  /// Append bytes and advance the parse as far as they allow. Idempotent
  /// once terminal: further feeds return the same state.
  State feed(std::string_view data);

  [[nodiscard]] State state() const noexcept { return state_; }
  /// Valid while state() == kComplete (cleared by reset()).
  [[nodiscard]] const HttpRequest& request() const noexcept {
    return request_;
  }
  /// The response status to send for a kError parse (400/413/431/501/505).
  [[nodiscard]] int error_status() const noexcept { return error_status_; }
  [[nodiscard]] const std::string& error_reason() const noexcept {
    return error_reason_;
  }

  /// Re-arm for the next request on a keep-alive connection. Bytes already
  /// received past the completed request (pipelining) are retained and
  /// re-parsed immediately — check state() after calling.
  void reset();

 private:
  enum class Phase { kHeaders, kBody };

  void fail(int status, std::string reason);
  /// Parse the buffered request line + headers ending at `header_end`
  /// (offset of the blank line). Returns false after fail().
  bool parse_headers(std::size_t header_end);
  void advance();

  HttpLimits limits_;
  std::string buffer_;  // unconsumed bytes
  Phase phase_ = Phase::kHeaders;
  State state_ = State::kNeedMore;
  HttpRequest request_;
  std::size_t body_expected_ = 0;
  int error_status_ = 0;
  std::string error_reason_;
};

/// Serialize a response's status line and headers through the blank line
/// that ends them, stamping Content-Length and Connection (`keep_alive`
/// reflects what the server decided for this connection). The body follows
/// on the wire as is, sent from its own buffer rather than copied in here.
[[nodiscard]] std::string serialize_head(const HttpResponse& response,
                                         bool keep_alive);

/// Decode %XX escapes and '+' in a query component (malformed escapes are
/// kept literally rather than rejected — query strings are advisory).
[[nodiscard]] std::string url_decode(std::string_view s);

}  // namespace surro::net
