// HTTP/1.1 request and response models with wire serialization.
#pragma once

#include <string>
#include <string_view>

#include "http/header_map.h"
#include "http/url.h"

namespace mfhttp {

// A request's URL in canonical text form (Url::to_string() spelling), with
// the span its path occupies inside that text.
struct CanonicalUrl {
  std::string text;
  std::size_t path_begin = 0;
  std::size_t path_size = 0;

  std::string_view path() const {
    return std::string_view(text).substr(path_begin, path_size);
  }
};

struct HttpRequest {
  std::string method = "GET";
  std::string target = "/";  // origin-form or absolute-form (proxy requests)
  std::string version = "HTTP/1.1";
  HeaderMap headers;
  std::string body;

  // Absolute URL of the request: absolute-form target if present, otherwise
  // reconstructed from the Host header (http scheme assumed).
  std::optional<Url> url() const;

  // The one canonical URL of the request, in a single pass: `text` equals
  // `url() ? url()->to_string() : target` and `path()` equals
  // `url() ? url()->path : target`. The common origin-form target behind a
  // plain lower-case Host is assembled directly, without building a Url.
  CanonicalUrl canonical_url() const;
  // The same, written into `out`; a reused `out` keeps its capacity, so the
  // common form costs no allocation once warm.
  void canonical_url(CanonicalUrl& out) const;

  // Multi-session serving identity (overload/admission.h). Carried as an
  // x-mfhttp-session header so it survives serialization and every proxy
  // hop without a side channel. Empty when unset — single-session callers
  // never need to think about it. The view lives as long as the header.
  std::string_view session() const;
  void set_session(std::string_view session);

  // Priority-class hint for admission control and link scheduling, carried
  // as x-mfhttp-priority (see overload::kPriority* constants). Returns
  // `fallback` when absent or unparsable.
  int priority_hint(int fallback) const;
  void set_priority_hint(int priority);

  // Serialize to wire format (adds Content-Length for non-empty bodies if
  // absent).
  std::string serialize() const;

  static HttpRequest get(const Url& url);
  static HttpRequest get(std::string_view absolute_url);
  // Make this request what get() builds for `url`, in place: a reused
  // request keeps its strings' capacity, so a lower-case host on the
  // default port costs no allocation once warm.
  void assign_get(const UrlRef& url);
};

struct HttpResponse {
  std::string version = "HTTP/1.1";
  int status = 200;
  std::string reason = "OK";
  HeaderMap headers;
  std::string body;

  std::string serialize() const;

  static HttpResponse make(int status, std::string_view reason,
                           std::string body = {},
                           std::string_view content_type = "text/plain");
};

// Default reason phrase for a status code ("OK", "Not Found", ...).
std::string_view default_reason(int status);

}  // namespace mfhttp
