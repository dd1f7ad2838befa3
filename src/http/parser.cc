#include "http/parser.h"

#include <algorithm>

#include "util/check.h"
#include "util/strings.h"

namespace mfhttp {

namespace {
constexpr std::size_t kMaxStartLine = 16 * 1024;

// Extract one CRLF-terminated line from buf (also tolerates bare LF).
// Returns true and sets `line` (without terminator) if a full line exists.
bool take_line(std::string& buf, std::string& line) {
  std::size_t lf = buf.find('\n');
  if (lf == std::string::npos) return false;
  std::size_t end = (lf > 0 && buf[lf - 1] == '\r') ? lf - 1 : lf;
  line = buf.substr(0, end);
  buf.erase(0, lf + 1);
  return true;
}
}  // namespace

void HttpParser::fail(std::string msg) {
  state_ = State::kError;
  error_ = std::move(msg);
}

void HttpParser::fail_limit(std::string msg) {
  limit_violation_ = true;
  fail(std::move(msg));
}

// Cumulative header-section accounting (Limits). `line` is one header or
// trailer field line; returns false (parser failed) on a cap breach.
bool HttpParser::count_header_line(std::string_view line) {
  header_bytes_ += line.size() + 2;  // + CRLF
  if (limits_.max_header_bytes > 0 && header_bytes_ > limits_.max_header_bytes) {
    fail_limit("headers too large");
    return false;
  }
  if (!line.empty() && limits_.max_header_count > 0 &&
      ++header_count_ > limits_.max_header_count) {
    fail_limit("too many headers");
    return false;
  }
  return true;
}

HeaderMap& HttpParser::current_headers() {
  return mode_ == Mode::kRequest ? req_.headers : resp_.headers;
}

std::string& HttpParser::current_body() {
  return mode_ == Mode::kRequest ? req_.body : resp_.body;
}

bool HttpParser::parse_start_line(std::string_view line) {
  if (mode_ == Mode::kRequest) {
    // method SP target SP version
    std::size_t s1 = line.find(' ');
    std::size_t s2 = line.rfind(' ');
    if (s1 == std::string_view::npos || s2 == s1) {
      fail("malformed request line");
      return false;
    }
    req_ = HttpRequest{};
    req_.method = std::string(line.substr(0, s1));
    req_.target = std::string(trim(line.substr(s1 + 1, s2 - s1 - 1)));
    req_.version = std::string(line.substr(s2 + 1));
    if (req_.method.empty() || req_.target.empty() ||
        !starts_with(req_.version, "HTTP/")) {
      fail("malformed request line");
      return false;
    }
  } else {
    // version SP status SP reason
    std::size_t s1 = line.find(' ');
    if (s1 == std::string_view::npos || !starts_with(line, "HTTP/")) {
      fail("malformed status line");
      return false;
    }
    resp_ = HttpResponse{};
    resp_.version = std::string(line.substr(0, s1));
    std::string_view rest = line.substr(s1 + 1);
    std::size_t s2 = rest.find(' ');
    std::string_view code = s2 == std::string_view::npos ? rest : rest.substr(0, s2);
    if (code.size() != 3) {
      fail("malformed status code");
      return false;
    }
    int status = 0;
    for (char c : code) {
      if (c < '0' || c > '9') {
        fail("malformed status code");
        return false;
      }
      status = status * 10 + (c - '0');
    }
    resp_.status = status;
    resp_.reason =
        s2 == std::string_view::npos ? "" : std::string(trim(rest.substr(s2 + 1)));
  }
  return true;
}

bool HttpParser::parse_header_line(std::string_view line) {
  std::size_t colon = line.find(':');
  if (colon == std::string_view::npos || colon == 0) {
    fail("malformed header line");
    return false;
  }
  std::string_view name = trim(line.substr(0, colon));
  std::string_view value = trim(line.substr(colon + 1));
  if (name.empty()) {
    fail("empty header name");
    return false;
  }
  current_headers().add(name, value);
  return true;
}

void HttpParser::on_headers_complete() {
  const HeaderMap& headers = current_headers();
  read_until_close_ = false;
  auto te = headers.get_view(HeaderId::kTransferEncoding);
  bool chunked = te && iequals(trim(*te), "chunked");

  if (mode_ == Mode::kResponse) {
    bool bodiless = resp_.status / 100 == 1 || resp_.status == 204 ||
                    resp_.status == 304 || head_response_;
    if (bodiless) {
      head_response_ = false;
      complete_message();
      return;
    }
  }

  if (chunked) {
    state_ = State::kChunkSize;
    return;
  }
  auto len = headers.content_length();
  if (len) {
    if (*len == 0) {
      complete_message();
      return;
    }
    body_remaining_ = *len;
    state_ = State::kBody;
    return;
  }
  if (mode_ == Mode::kRequest) {
    // Requests without a length have no body.
    complete_message();
  } else {
    // Response body delimited by connection close.
    read_until_close_ = true;
    body_remaining_ = -1;
    state_ = State::kBody;
  }
}

void HttpParser::complete_message() {
  if (mode_ == Mode::kRequest)
    requests_.push_back(std::move(req_));
  else
    responses_.push_back(std::move(resp_));
  req_ = HttpRequest{};
  resp_ = HttpResponse{};
  state_ = State::kStartLine;
}

bool HttpParser::feed(std::string_view data) {
  if (state_ == State::kError) return false;
  buffer_.append(data);

  std::string line;
  while (state_ != State::kError) {
    switch (state_) {
      case State::kStartLine: {
        // Skip blank lines between messages (robustness, RFC 9112 §2.2).
        while (!buffer_.empty() && (buffer_[0] == '\r' || buffer_[0] == '\n')) {
          std::size_t n = (buffer_.size() >= 2 && buffer_[0] == '\r' &&
                           buffer_[1] == '\n') ? 2 : 1;
          buffer_.erase(0, n);
        }
        if (!take_line(buffer_, line)) {
          if (buffer_.size() > kMaxStartLine) fail("start line too long");
          return state_ != State::kError;
        }
        if (!parse_start_line(line)) return false;
        header_bytes_ = 0;
        header_count_ = 0;
        state_ = State::kHeaders;
        break;
      }
      case State::kHeaders: {
        if (!take_line(buffer_, line)) {
          // No line break yet: the flood case. Count what is buffered so an
          // attacker cannot park max_header_bytes per feed() indefinitely.
          if (limits_.max_header_bytes > 0 &&
              header_bytes_ + buffer_.size() > limits_.max_header_bytes)
            fail_limit("headers too large");
          return state_ != State::kError;
        }
        if (!count_header_line(line)) return false;
        if (line.empty()) {
          on_headers_complete();
        } else if (!parse_header_line(line)) {
          return false;
        }
        break;
      }
      case State::kBody: {
        if (read_until_close_) {
          current_body().append(buffer_);
          buffer_.clear();
          return true;  // completes on finish()
        }
        std::size_t want = static_cast<std::size_t>(body_remaining_);
        std::size_t take = std::min(want, buffer_.size());
        current_body().append(buffer_, 0, take);
        buffer_.erase(0, take);
        body_remaining_ -= static_cast<long long>(take);
        if (body_remaining_ > 0) return true;  // need more input
        complete_message();
        break;
      }
      case State::kChunkSize: {
        if (!take_line(buffer_, line)) return true;
        // chunk-size [;extensions]
        std::string_view sz = trim(line);
        std::size_t semi = sz.find(';');
        if (semi != std::string_view::npos) sz = trim(sz.substr(0, semi));
        if (sz.empty()) {
          fail("empty chunk size");
          return false;
        }
        long long size = 0;
        for (char c : sz) {
          int digit;
          if (c >= '0' && c <= '9') digit = c - '0';
          else if (c >= 'a' && c <= 'f') digit = c - 'a' + 10;
          else if (c >= 'A' && c <= 'F') digit = c - 'A' + 10;
          else {
            fail("bad chunk size");
            return false;
          }
          size = size * 16 + digit;
          if (size > (1LL << 40)) {
            fail("chunk too large");
            return false;
          }
        }
        if (size == 0) {
          state_ = State::kTrailers;
        } else {
          body_remaining_ = size;
          state_ = State::kChunkData;
        }
        break;
      }
      case State::kChunkData: {
        std::size_t want = static_cast<std::size_t>(body_remaining_);
        std::size_t take = std::min(want, buffer_.size());
        current_body().append(buffer_, 0, take);
        buffer_.erase(0, take);
        body_remaining_ -= static_cast<long long>(take);
        if (body_remaining_ > 0) return true;
        state_ = State::kChunkDataEnd;
        break;
      }
      case State::kChunkDataEnd: {
        if (!take_line(buffer_, line)) return true;
        if (!line.empty()) {
          fail("missing CRLF after chunk data");
          return false;
        }
        state_ = State::kChunkSize;
        break;
      }
      case State::kTrailers: {
        if (!take_line(buffer_, line)) {
          if (limits_.max_header_bytes > 0 &&
              header_bytes_ + buffer_.size() > limits_.max_header_bytes)
            fail_limit("headers too large");
          return state_ != State::kError;
        }
        // Trailers fold into the main header map, so they share its caps.
        if (!count_header_line(line)) return false;
        if (line.empty()) {
          complete_message();
        } else {
          if (!parse_header_line(line)) return false;
        }
        break;
      }
      case State::kError:
        return false;
    }
    if (buffer_.empty() &&
        (state_ == State::kStartLine || state_ == State::kHeaders ||
         state_ == State::kChunkSize || state_ == State::kChunkDataEnd ||
         state_ == State::kTrailers))
      return true;
  }
  return false;
}

void HttpParser::finish() {
  if (state_ == State::kError) return;
  if (state_ == State::kBody && read_until_close_) {
    complete_message();
    return;
  }
  if (state_ != State::kStartLine || !buffer_.empty())
    fail("stream truncated mid-message");
}

HttpRequest HttpParser::take_request() {
  MFHTTP_CHECK(mode_ == Mode::kRequest && !requests_.empty());
  HttpRequest out = std::move(requests_.front());
  requests_.pop_front();
  return out;
}

HttpResponse HttpParser::take_response() {
  MFHTTP_CHECK(mode_ == Mode::kResponse && !responses_.empty());
  HttpResponse out = std::move(responses_.front());
  responses_.pop_front();
  return out;
}

}  // namespace mfhttp
