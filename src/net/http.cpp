#include "net/http.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <utility>

namespace surro::net {

namespace {

/// RFC 9110 token characters (method and header field names).
bool is_token_char(char c) {
  if (std::isalnum(static_cast<unsigned char>(c)) != 0) return true;
  switch (c) {
    case '!': case '#': case '$': case '%': case '&': case '\'': case '*':
    case '+': case '-': case '.': case '^': case '_': case '`': case '|':
    case '~':
      return true;
    default:
      return false;
  }
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

/// Strip one trailing '\r' (lines are split on '\n'; both CRLF and bare LF
/// terminators are accepted, like most production servers).
std::string_view chomp_cr(std::string_view line) {
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  return line;
}

int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

HttpResponse HttpResponse::json(int status, std::string body) {
  HttpResponse r;
  r.status = status;
  r.headers["content-type"] = "application/json";
  r.body = std::move(body);
  return r;
}

HttpResponse HttpResponse::text(int status, std::string body) {
  HttpResponse r;
  r.status = status;
  r.headers["content-type"] = "text/plain; charset=utf-8";
  r.body = std::move(body);
  return r;
}

const char* status_reason(int status) noexcept {
  switch (status) {
    case 200: return "OK";
    case 201: return "Created";
    case 202: return "Accepted";
    case 204: return "No Content";
    case 400: return "Bad Request";
    case 401: return "Unauthorized";
    case 403: return "Forbidden";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 409: return "Conflict";
    case 413: return "Payload Too Large";
    case 429: return "Too Many Requests";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    case 505: return "HTTP Version Not Supported";
    default: return "Unknown";
  }
}

std::string url_decode(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (c == '+') {
      out += ' ';
    } else if (c == '%' && i + 2 < s.size() && hex_digit(s[i + 1]) >= 0 &&
               hex_digit(s[i + 2]) >= 0) {
      out += static_cast<char>(hex_digit(s[i + 1]) * 16 + hex_digit(s[i + 2]));
      i += 2;
    } else {
      out += c;
    }
  }
  return out;
}

void RequestParser::fail(int status, std::string reason) {
  state_ = State::kError;
  error_status_ = status;
  error_reason_ = std::move(reason);
}

bool RequestParser::parse_headers(std::size_t header_end) {
  const std::string_view head(buffer_.data(), header_end);

  // ---- request line: METHOD SP target SP HTTP/1.x
  std::size_t line_end = head.find('\n');
  const std::string_view request_line =
      chomp_cr(head.substr(0, line_end == std::string_view::npos
                                  ? head.size()
                                  : line_end));
  const std::size_t sp1 = request_line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string_view::npos ? sp1 : request_line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos ||
      sp2 + 1 >= request_line.size()) {
    fail(400, "malformed request line");
    return false;
  }
  const std::string_view method = request_line.substr(0, sp1);
  const std::string_view target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::string_view version = request_line.substr(sp2 + 1);
  if (method.empty() ||
      !std::all_of(method.begin(), method.end(), is_token_char)) {
    fail(400, "malformed method token");
    return false;
  }
  if (target.empty() || (target[0] != '/' && target != "*")) {
    fail(400, "request target must be origin-form");
    return false;
  }
  if (version == "HTTP/1.1") {
    request_.version_minor = 1;
  } else if (version == "HTTP/1.0") {
    request_.version_minor = 0;
  } else {
    fail(505, "unsupported HTTP version '" + std::string(version) + "'");
    return false;
  }
  request_.method = std::string(method);
  request_.target = std::string(target);
  const std::size_t qmark = target.find('?');
  request_.path = std::string(target.substr(0, qmark));
  if (qmark != std::string_view::npos) {
    for (std::size_t pos = qmark + 1; pos <= target.size();) {
      std::size_t amp = target.find('&', pos);
      if (amp == std::string_view::npos) amp = target.size();
      const std::string_view pair = target.substr(pos, amp - pos);
      if (!pair.empty()) {
        const std::size_t eq = pair.find('=');
        if (eq == std::string_view::npos) {
          request_.query[url_decode(pair)] = "";
        } else {
          request_.query[url_decode(pair.substr(0, eq))] =
              url_decode(pair.substr(eq + 1));
        }
      }
      pos = amp + 1;
    }
  }

  // ---- header fields
  std::size_t pos = line_end == std::string_view::npos ? head.size()
                                                       : line_end + 1;
  while (pos < head.size()) {
    std::size_t end = head.find('\n', pos);
    if (end == std::string_view::npos) end = head.size();
    const std::string_view line = chomp_cr(head.substr(pos, end - pos));
    pos = end + 1;
    if (line.empty()) continue;
    if (line.front() == ' ' || line.front() == '\t') {
      fail(400, "obsolete header line folding");
      return false;
    }
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos || colon == 0) {
      fail(400, "malformed header field");
      return false;
    }
    const std::string_view name = line.substr(0, colon);
    if (!std::all_of(name.begin(), name.end(), is_token_char)) {
      fail(400, "malformed header field name");
      return false;
    }
    std::string_view value = line.substr(colon + 1);
    while (!value.empty() && (value.front() == ' ' || value.front() == '\t')) {
      value.remove_prefix(1);
    }
    while (!value.empty() && (value.back() == ' ' || value.back() == '\t')) {
      value.remove_suffix(1);
    }
    request_.headers[to_lower(name)] = std::string(value);
  }

  // ---- framing
  if (request_.headers.contains("transfer-encoding")) {
    // Content-Length is the only framing this server speaks; answering 501
    // (rather than misreading the body as the next request) keeps the
    // failure honest.
    fail(501, "transfer-encoding not supported");
    return false;
  }
  body_expected_ = 0;
  if (const auto it = request_.headers.find("content-length");
      it != request_.headers.end()) {
    const std::string& raw = it->second;
    std::uint64_t length = 0;
    const auto res =
        std::from_chars(raw.data(), raw.data() + raw.size(), length);
    if (res.ec != std::errc{} || res.ptr != raw.data() + raw.size()) {
      fail(400, "malformed content-length");
      return false;
    }
    if (length > limits_.max_body_bytes) {
      fail(413, "body of " + raw + " bytes exceeds cap of " +
                    std::to_string(limits_.max_body_bytes));
      return false;
    }
    body_expected_ = static_cast<std::size_t>(length);
  }

  const std::string connection = to_lower(request_.header("connection"));
  request_.keep_alive = request_.version_minor >= 1
                            ? connection != "close"
                            : connection == "keep-alive";
  return true;
}

void RequestParser::advance() {
  if (phase_ == Phase::kHeaders) {
    // Find the blank line ending the header block: CRLFCRLF or LFLF.
    std::size_t header_end = std::string::npos;
    std::size_t body_start = 0;
    if (const auto p = buffer_.find("\r\n\r\n"); p != std::string::npos) {
      header_end = p + 2;  // keep the final line terminator in the block
      body_start = p + 4;
    }
    if (const auto p = buffer_.find("\n\n"); p != std::string::npos) {
      if (header_end == std::string::npos || p + 1 < header_end) {
        header_end = p + 1;
        body_start = p + 2;
      }
    }
    if (header_end == std::string::npos) {
      if (buffer_.size() > limits_.max_header_bytes) {
        fail(431, "header block exceeds cap of " +
                      std::to_string(limits_.max_header_bytes) + " bytes");
      }
      return;  // need more bytes
    }
    if (header_end > limits_.max_header_bytes) {
      fail(431, "header block exceeds cap of " +
                    std::to_string(limits_.max_header_bytes) + " bytes");
      return;
    }
    if (!parse_headers(header_end)) return;
    buffer_.erase(0, body_start);
    phase_ = Phase::kBody;
  }
  if (phase_ == Phase::kBody && buffer_.size() >= body_expected_) {
    request_.body = buffer_.substr(0, body_expected_);
    buffer_.erase(0, body_expected_);
    state_ = State::kComplete;
  }
}

RequestParser::State RequestParser::feed(std::string_view data) {
  if (state_ == State::kNeedMore) {
    buffer_.append(data);
    advance();
  }
  return state_;
}

void RequestParser::reset() {
  if (state_ != State::kComplete) return;
  request_ = HttpRequest{};
  phase_ = Phase::kHeaders;
  state_ = State::kNeedMore;
  body_expected_ = 0;
  advance();  // pipelined bytes may already complete the next request
}

std::string serialize_head(const HttpResponse& response, bool keep_alive) {
  std::string out;
  out.reserve(256);
  out += "HTTP/1.1 ";
  out += std::to_string(response.status);
  out += ' ';
  out += status_reason(response.status);
  out += "\r\n";
  for (const auto& [name, value] : response.headers) {
    out += name;
    out += ": ";
    out += value;
    out += "\r\n";
  }
  out += "content-length: " + std::to_string(response.body.size()) + "\r\n";
  out += keep_alive ? "connection: keep-alive\r\n" : "connection: close\r\n";
  out += "\r\n";
  return out;
}

}  // namespace surro::net
