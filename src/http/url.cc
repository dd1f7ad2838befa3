#include "http/url.h"

#include "util/strings.h"

namespace mfhttp {

std::string Url::to_string() const {
  std::string out = scheme + "://" + host;
  if (!(scheme == "http" && port == 80) && !(scheme == "https" && port == 443))
    out += ":" + std::to_string(port);
  out += path_and_query();
  return out;
}

std::optional<UrlRef> split_url(std::string_view s) {
  UrlRef url;
  std::size_t scheme_end = s.find("://");
  if (scheme_end == std::string_view::npos || scheme_end == 0) return std::nullopt;
  url.scheme = s.substr(0, scheme_end);
  if (iequals(url.scheme, "https"))
    url.port = 443;
  else if (!iequals(url.scheme, "http"))
    return std::nullopt;
  s.remove_prefix(scheme_end + 3);

  std::size_t path_start = s.find('/');
  std::string_view authority =
      path_start == std::string_view::npos ? s : s.substr(0, path_start);
  if (authority.empty()) return std::nullopt;

  std::size_t colon = authority.rfind(':');
  if (colon != std::string_view::npos) {
    std::string_view port_sv = authority.substr(colon + 1);
    if (port_sv.empty()) return std::nullopt;
    int port = 0;
    for (char c : port_sv) {
      if (c < '0' || c > '9') return std::nullopt;
      port = port * 10 + (c - '0');
      if (port > 65535) return std::nullopt;
    }
    url.port = port;
    url.host = authority.substr(0, colon);
  } else {
    url.host = authority;
  }
  if (url.host.empty()) return std::nullopt;

  if (path_start == std::string_view::npos) return url;
  std::string_view rest = s.substr(path_start);
  std::size_t q = rest.find('?');
  if (q == std::string_view::npos) {
    url.path = rest;
  } else {
    url.path = rest.substr(0, q);
    url.query = rest.substr(q + 1);
  }
  return url;
}

std::optional<Url> parse_url(std::string_view s) {
  const std::optional<UrlRef> ref = split_url(s);
  if (!ref) return std::nullopt;
  Url url;
  url.scheme = to_lower(ref->scheme);
  url.host = to_lower(ref->host);
  url.port = ref->port;
  url.path = std::string(ref->path);
  url.query = std::string(ref->query);
  return url;
}

}  // namespace mfhttp
