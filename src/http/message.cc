#include "http/message.h"

#include <algorithm>
#include <charconv>

#include "util/strings.h"

namespace mfhttp {

namespace {

// Host characters that parse_url keeps verbatim as the whole authority: no
// port, no path, nothing to lower-case.
bool plain_host_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '.' || c == '-';
}

}  // namespace

std::optional<Url> HttpRequest::url() const {
  if (starts_with(target, "http://") || starts_with(target, "https://"))
    return parse_url(target);
  auto host = headers.get_view(HeaderId::kHost);
  if (!host) return std::nullopt;
  std::string absolute;
  absolute.reserve(7 + host->size() + target.size());
  absolute += "http://";
  absolute += *host;
  absolute += target;
  return parse_url(absolute);
}

CanonicalUrl HttpRequest::canonical_url() const {
  CanonicalUrl out;
  canonical_url(out);
  return out;
}

void HttpRequest::canonical_url(CanonicalUrl& out) const {
  if (!target.empty() && target.front() == '/') {
    auto host = headers.get_view(HeaderId::kHost);
    if (host && !host->empty() &&
        std::all_of(host->begin(), host->end(), plain_host_char)) {
      // url() would parse "http://" + Host + target into authority == Host
      // (port 80, omitted again by to_string) and split the target at its
      // first '?'; an empty query loses its '?' on the way back.
      const std::size_t q = target.find('?');
      const std::size_t keep = q + 1 == target.size() ? q : target.size();
      out.text.reserve(7 + host->size() + keep);
      out.text.assign("http://");
      out.text += *host;
      out.text.append(target, 0, keep);
      out.path_begin = 7 + host->size();
      out.path_size = std::min(q, target.size());
      return;
    }
  }
  auto parsed = url();
  if (!parsed) {
    out.text = target;
    out.path_begin = 0;
    out.path_size = target.size();
    return;
  }
  out.text = parsed->to_string();
  // The authority never holds a '/', so the path starts at the first one.
  out.path_begin = out.text.find('/', parsed->scheme.size() + 3);
  out.path_size = parsed->path.size();
}

std::string_view HttpRequest::session() const {
  return headers.get_view(HeaderId::kXMfhttpSession).value_or(std::string_view{});
}

void HttpRequest::set_session(std::string_view session) {
  headers.set(HeaderId::kXMfhttpSession, session);
}

int HttpRequest::priority_hint(int fallback) const {
  auto v = headers.get_view(HeaderId::kXMfhttpPriority);
  if (!v || v->empty()) return fallback;
  int out = 0;
  for (char c : *v) {
    if (c < '0' || c > '9') return fallback;
    out = out * 10 + (c - '0');
    if (out > 1000) return fallback;
  }
  return out;
}

void HttpRequest::set_priority_hint(int priority) {
  char digits[16];
  const auto end = std::to_chars(digits, digits + sizeof(digits), priority).ptr;
  headers.set(HeaderId::kXMfhttpPriority, std::string_view(digits, end - digits));
}

namespace {
std::string serialize_common(std::string start_line, const HeaderMap& headers,
                             const std::string& body) {
  std::string out = std::move(start_line);
  bool has_length = headers.contains(HeaderId::kContentLength) ||
                    headers.contains(HeaderId::kTransferEncoding);
  for (const auto& e : headers) {
    out += e.name();
    out += ": ";
    out += e.value();
    out += "\r\n";
  }
  if (!has_length && !body.empty())
    out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  out += "\r\n";
  out += body;
  return out;
}
}  // namespace

std::string HttpRequest::serialize() const {
  return serialize_common(method + " " + target + " " + version + "\r\n", headers,
                          body);
}

HttpRequest HttpRequest::get(const Url& url) {
  HttpRequest req;
  req.method = "GET";
  req.target = url.path_and_query();
  req.headers.set(HeaderId::kHost, url.port == 80 ? url.host
                                         : url.host + ":" + std::to_string(url.port));
  return req;
}

void HttpRequest::assign_get(const UrlRef& url) {
  method.assign("GET");
  target.assign(url.path);
  if (!url.query.empty()) {
    target += '?';
    target += url.query;
  }
  version.assign("HTTP/1.1");
  headers.clear();
  body.clear();
  if (url.port == 80 && std::none_of(url.host.begin(), url.host.end(),
                                     [](char c) { return c >= 'A' && c <= 'Z'; })) {
    headers.set(HeaderId::kHost, url.host);
  } else {
    const std::string host = to_lower(url.host);
    headers.set(HeaderId::kHost,
                url.port == 80 ? host : host + ":" + std::to_string(url.port));
  }
}

HttpRequest HttpRequest::get(std::string_view absolute_url) {
  auto url = parse_url(absolute_url);
  if (!url) {
    HttpRequest req;
    req.target = std::string(absolute_url);
    return req;
  }
  return get(*url);
}

std::string HttpResponse::serialize() const {
  return serialize_common(
      version + " " + std::to_string(status) + " " + reason + "\r\n", headers, body);
}

HttpResponse HttpResponse::make(int status, std::string_view reason, std::string body,
                                std::string_view content_type) {
  HttpResponse resp;
  resp.status = status;
  resp.reason = reason.empty() ? std::string(default_reason(status))
                               : std::string(reason);
  resp.body = std::move(body);
  resp.headers.set(HeaderId::kContentType, content_type);
  resp.headers.set(HeaderId::kContentLength, std::to_string(resp.body.size()));
  return resp;
}

std::string_view default_reason(int status) {
  switch (status) {
    case 200: return "OK";
    case 204: return "No Content";
    case 206: return "Partial Content";
    case 301: return "Moved Permanently";
    case 302: return "Found";
    case 304: return "Not Modified";
    case 400: return "Bad Request";
    case 403: return "Forbidden";
    case 404: return "Not Found";
    case 408: return "Request Timeout";
    case 429: return "Too Many Requests";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 502: return "Bad Gateway";
    case 503: return "Service Unavailable";
    case 504: return "Gateway Timeout";
    default: return "Unknown";
  }
}

}  // namespace mfhttp
