// Minimal URL parsing: scheme://host[:port]/path[?query].
#pragma once

#include <optional>
#include <string>
#include <string_view>

namespace mfhttp {

struct Url {
  std::string scheme;  // "http"
  std::string host;
  int port = 80;
  std::string path = "/";   // always starts with '/'
  std::string query;        // without '?'

  std::string path_and_query() const {
    return query.empty() ? path : path + "?" + query;
  }
  std::string to_string() const;
};

// An absolute URL's parts as views into its text, before parse_url's copies
// and case folding: `scheme` and `host` keep their spelling, `port` is the
// explicit or the scheme's default one, and `path` is "/" (a static view)
// when the URL has none.
struct UrlRef {
  std::string_view scheme;
  std::string_view host;
  int port = 80;
  std::string_view path = "/";
  std::string_view query;  // without '?'
};

// Splits an absolute URL without allocating; nullopt on malformed input.
// parse_url accepts exactly the URLs split_url does.
std::optional<UrlRef> split_url(std::string_view s);

// Parses an absolute URL; returns nullopt on malformed input.
std::optional<Url> parse_url(std::string_view s);

}  // namespace mfhttp
