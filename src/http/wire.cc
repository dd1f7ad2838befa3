#include "http/wire.h"

#include "util/check.h"
#include "util/logging.h"
#include "util/strings.h"

namespace mfhttp {

std::string synthesize_body(std::string_view path, Bytes size) {
  MFHTTP_CHECK(size >= 0);
  std::string out;
  out.reserve(static_cast<std::size_t>(size));
  std::string stamp = strformat("[%.*s]", static_cast<int>(path.size()), path.data());
  while (static_cast<Bytes>(out.size()) < size) out += stamp;
  out.resize(static_cast<std::size_t>(size));
  return out;
}

std::string object_etag(std::string_view path, Bytes size) {
  // FNV-1a over the identity; weak validator semantics are fine for the
  // simulated store (contents are a function of path and size).
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](unsigned char c) {
    h ^= c;
    h *= 1099511628211ULL;
  };
  for (char c : path) mix(static_cast<unsigned char>(c));
  for (int i = 0; i < 8; ++i)
    mix(static_cast<unsigned char>((static_cast<std::uint64_t>(size) >> (8 * i)) & 0xff));
  return strformat("\"%016llx\"", static_cast<unsigned long long>(h));
}

std::optional<ByteRange> parse_byte_range(std::string_view header_value,
                                          long long body_size) {
  std::string_view s = trim(header_value);
  if (!starts_with(s, "bytes=")) return std::nullopt;
  s.remove_prefix(6);
  if (s.find(',') != std::string_view::npos) return std::nullopt;  // multi-range
  std::size_t dash = s.find('-');
  if (dash == std::string_view::npos) return std::nullopt;
  std::string_view first_sv = trim(s.substr(0, dash));
  std::string_view last_sv = trim(s.substr(dash + 1));

  auto parse_ll = [](std::string_view v) -> std::optional<long long> {
    if (v.empty()) return std::nullopt;
    long long out = 0;
    for (char c : v) {
      if (c < '0' || c > '9') return std::nullopt;
      out = out * 10 + (c - '0');
      if (out > (1LL << 56)) return std::nullopt;
    }
    return out;
  };

  ByteRange range;
  if (first_sv.empty()) {
    // Suffix form: last N bytes.
    auto n = parse_ll(last_sv);
    if (!n || *n == 0) return std::nullopt;
    range.first = std::max<long long>(0, body_size - *n);
    range.last = body_size - 1;
  } else {
    auto first = parse_ll(first_sv);
    if (!first) return std::nullopt;
    range.first = *first;
    if (last_sv.empty()) {
      range.last = body_size - 1;  // open-ended
    } else {
      auto last = parse_ll(last_sv);
      if (!last || *last < *first) return std::nullopt;
      range.last = std::min<long long>(*last, body_size - 1);
    }
  }
  if (body_size == 0 || range.first >= body_size) return std::nullopt;
  return range;
}

// ---------- WireHttpServer ----------

WireHttpServer::WireHttpServer(const ObjectStore* store, BytePipe* rx, BytePipe* tx)
    : store_(store), rx_(rx), tx_(tx) {
  MFHTTP_CHECK(store_ != nullptr && rx_ != nullptr && tx_ != nullptr);
  rx_->set_on_data([this](std::string_view data) { on_bytes(data); });
}

HttpResponse WireHttpServer::handle(const HttpRequest& request) const {
  if (handler_) return handler_(request);
  if (!iequals(request.method, "GET") && !iequals(request.method, "HEAD"))
    return HttpResponse::make(400, "", "method not supported");
  const CanonicalUrl url = request.canonical_url();
  const std::string_view path = url.path();
  const StoredObject* obj = store_->find(path);
  if (obj == nullptr) return HttpResponse::make(404, "", "no such object");

  // Conditional requests: a weak entity tag derived from (path, size). A
  // matching If-None-Match short-circuits to 304 Not Modified.
  const std::string etag = object_etag(path, obj->wire_size());
  if (auto inm = request.headers.get_view(HeaderId::kIfNoneMatch)) {
    if (trim(*inm) == etag || trim(*inm) == "*") {
      HttpResponse resp;
      resp.status = 304;
      resp.reason = std::string(default_reason(304));
      resp.headers.set(HeaderId::kETag, etag);
      return resp;
    }
  }

  std::string body =
      obj->body ? *obj->body : synthesize_body(path, obj->size);

  // RFC 9110 byte serving: a valid single Range gets 206 Partial Content
  // with a Content-Range header; an unsatisfiable one gets 416.
  if (auto range_header = request.headers.get_view(HeaderId::kRange)) {
    auto body_size = static_cast<long long>(body.size());
    auto range = parse_byte_range(*range_header, body_size);
    if (!range) {
      HttpResponse resp = HttpResponse::make(416, "Range Not Satisfiable", "");
      resp.headers.set(HeaderId::kContentRange, strformat("bytes */%lld", body_size));
      return resp;
    }
    std::string slice = body.substr(
        static_cast<std::size_t>(range->first),
        static_cast<std::size_t>(range->last - range->first + 1));
    HttpResponse resp = HttpResponse::make(206, "Partial Content",
                                           std::move(slice), obj->content_type);
    resp.headers.set(HeaderId::kContentRange,
                     strformat("bytes %lld-%lld/%lld", range->first, range->last,
                               body_size));
    if (iequals(request.method, "HEAD")) resp.body.clear();
    return resp;
  }

  HttpResponse resp = HttpResponse::make(200, "OK", std::move(body),
                                         obj->content_type);
  resp.headers.set(HeaderId::kAcceptRanges, "bytes");
  resp.headers.set(HeaderId::kETag, etag);
  if (iequals(request.method, "HEAD")) resp.body.clear();  // length kept
  return resp;
}

void WireHttpServer::on_bytes(std::string_view data) {
  if (!parser_.feed(data)) {
    MFHTTP_WARN << "wire server: parse error: " << parser_.error();
    const int status = parser_.limit_violation() ? 431 : 400;
    const char* body =
        parser_.limit_violation() ? "header limits exceeded" : "malformed request";
    tx_->send(HttpResponse::make(status, "", body).serialize());
    tx_->close();
    return;
  }
  while (parser_.has_message()) {
    HttpRequest request = parser_.take_request();
    ++requests_served_;
    tx_->send(handle(request).serialize());
  }
}

// ---------- WireHttpClient ----------

WireHttpClient::WireHttpClient(BytePipe* tx, BytePipe* rx) : tx_(tx), rx_(rx) {
  MFHTTP_CHECK(tx_ != nullptr && rx_ != nullptr);
  rx_->set_on_data([this](std::string_view data) { on_bytes(data); });
}

void WireHttpClient::send(const HttpRequest& request, ResponseFn on_response) {
  MFHTTP_CHECK(on_response != nullptr);
  if (iequals(request.method, "HEAD")) parser_.expect_head_response();
  pending_.push_back(std::move(on_response));
  tx_->send(request.serialize());
}

void WireHttpClient::on_bytes(std::string_view data) {
  if (!parser_.feed(data)) {
    MFHTTP_WARN << "wire client: parse error: " << parser_.error();
    return;
  }
  while (parser_.has_message()) {
    MFHTTP_CHECK_MSG(!pending_.empty(), "response without a pending request");
    ResponseFn fn = std::move(pending_.front());
    pending_.pop_front();
    fn(parser_.take_response());
  }
}

// ---------- WireMitmProxy ----------

WireMitmProxy::WireMitmProxy(BytePipe* client_rx, BytePipe* client_tx,
                             BytePipe* upstream_tx, BytePipe* upstream_rx)
    : client_rx_(client_rx),
      client_tx_(client_tx),
      upstream_tx_(upstream_tx),
      upstream_rx_(upstream_rx) {
  MFHTTP_CHECK(client_rx_ && client_tx_ && upstream_tx_ && upstream_rx_);
  client_rx_->set_on_data([this](std::string_view d) { on_client_bytes(d); });
  upstream_rx_->set_on_data([this](std::string_view d) { on_upstream_bytes(d); });
}

void WireMitmProxy::on_client_bytes(std::string_view data) {
  if (!client_parser_.feed(data)) {
    MFHTTP_WARN << "wire proxy: client parse error: " << client_parser_.error();
    const int status = client_parser_.limit_violation() ? 431 : 400;
    const char* body = client_parser_.limit_violation() ? "header limits exceeded"
                                                        : "malformed request";
    client_tx_->send(HttpResponse::make(status, "", body).serialize());
    client_tx_->close();
    return;
  }
  while (client_parser_.has_message()) backlog_.push_back(client_parser_.take_request());
  pump();
}

void WireMitmProxy::pump() {
  // Serial connection handling: only act when no response is outstanding and
  // no request is parked.
  while (!awaiting_upstream_ && !deferred_.has_value() && !backlog_.empty()) {
    HttpRequest request = std::move(backlog_.front());
    backlog_.pop_front();

    InterceptDecision decision = interceptor_ ? interceptor_->on_request(request)
                                              : InterceptDecision::allow();
    switch (decision.action) {
      case InterceptDecision::Action::kAllow:
        forward_upstream(request);
        break;
      case InterceptDecision::Action::kRewrite: {
        auto url = parse_url(decision.rewrite_url);
        MFHTTP_CHECK_MSG(url.has_value(), "rewrite target must be absolute");
        forward_upstream(HttpRequest::get(*url));
        break;
      }
      case InterceptDecision::Action::kBlock:
        respond_blocked(request);
        break;
      case InterceptDecision::Action::kDefer: {
        deferred_url_ = request.canonical_url().text;
        deferred_ = std::move(request);
        MFHTTP_TRACE << "wire proxy: deferred " << *deferred_url_;
        return;  // connection stalls until release()
      }
    }
  }
}

void WireMitmProxy::forward_upstream(const HttpRequest& request) {
  awaiting_upstream_ = true;
  ++proxied_;
  upstream_tx_->send(request.serialize());
}

void WireMitmProxy::respond_blocked(const HttpRequest& request) {
  ++blocked_;
  MFHTTP_TRACE << "wire proxy: blocked " << request.canonical_url().text;
  client_tx_->send(
      HttpResponse::make(403, "", "blocked by middleware policy").serialize());
}

bool WireMitmProxy::release(const std::string& url) {
  if (!deferred_.has_value() || deferred_url_ != url) return false;
  HttpRequest request = std::move(*deferred_);
  deferred_.reset();
  deferred_url_.reset();
  forward_upstream(request);
  return true;
}

void WireMitmProxy::on_upstream_bytes(std::string_view data) {
  if (!upstream_parser_.feed(data)) {
    MFHTTP_WARN << "wire proxy: upstream parse error: " << upstream_parser_.error();
    client_tx_->send(HttpResponse::make(502, "", "upstream error").serialize());
    awaiting_upstream_ = false;
    pump();
    return;
  }
  while (upstream_parser_.has_message()) {
    // Store-and-forward relay: the full response is re-serialized downstream.
    HttpResponse response = upstream_parser_.take_response();
    client_tx_->send(response.serialize());
    awaiting_upstream_ = false;
  }
  pump();
}

}  // namespace mfhttp
