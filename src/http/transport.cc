#include "http/transport.h"

#include <memory>
#include <string>
#include <utility>

#include "fault/fault_plan.h"
#include "fault/faulty_socket.h"
#include "net/aio/syscall.h"
#include "obs/metrics.h"
#include "overload/admission.h"
#include "util/check.h"
#include "util/logging.h"

namespace mfhttp {

const char* transport_kind_name(TransportKind kind) {
  switch (kind) {
    case TransportKind::kSim:
      return "sim";
    case TransportKind::kSocket:
      return "socket";
  }
  return "?";
}

std::optional<TransportKind> transport_kind_from_name(std::string_view name) {
  if (name == "sim") return TransportKind::kSim;
  if (name == "socket") return TransportKind::kSocket;
  return std::nullopt;
}

// The client half of the socket backend. One keep-alive loopback connection
// to the aio::HttpServer; each fetch() is a synchronous round trip on the
// event loop followed by a sim-side replay of SimHttpOrigin's event shape —
// see the header comment for the parity contract.
class SocketTransport::SocketOrigin : public HttpFetcher {
 public:
  SocketOrigin(Simulator& sim, aio::EventLoop& loop, std::uint16_t port,
               Link* link, SimHttpOriginParams params,
               const TransportConfig& config)
      : sim_(sim),
        loop_(loop),
        port_(port),
        link_(link),
        params_(params),
        config_(config) {
    MFHTTP_CHECK(link_ != nullptr);
  }

  FetchId fetch(const HttpRequest& request, FetchCallbacks callbacks) override;
  bool cancel(FetchId id) override;

  const ClientStats& stats() const { return stats_; }
  std::size_t inflight() const { return inflight_.size(); }

 private:
  struct WireOutcome {
    bool ok = false;
    HttpResponse response;
    std::string error;
  };
  struct Inflight {
    Simulator::EventId pending_event = Simulator::kInvalidEvent;
    Link::TransferId transfer = Link::kInvalidTransfer;
  };

  // Reuse the kept-alive connection or dial a fresh one. `fresh` reports
  // which happened (a fresh conn's death is a real failure; a reused conn's
  // death may just be the server's idle close racing our next request).
  bool ensure_connected(bool* fresh);
  // Move every byte the conn has received into the active response parser.
  void pump_parser();
  WireOutcome round_trip(const HttpRequest& request);

  Simulator& sim_;
  aio::EventLoop& loop_;
  std::uint16_t port_;
  Link* link_;
  SimHttpOriginParams params_;
  TransportConfig config_;
  ClientStats stats_;

  std::unique_ptr<aio::TcpConn> conn_;
  bool conn_alive_ = false;
  aio::TcpConn::CloseReason close_reason_ = aio::TcpConn::CloseReason::kLocal;
  HttpParser* active_parser_ = nullptr;  // round_trip()-scoped
  std::uint64_t next_conn_ordinal_ = 0;

  FetchId next_id_ = 1;
  std::unordered_map<FetchId, Inflight> inflight_;
};

bool SocketTransport::SocketOrigin::ensure_connected(bool* fresh) {
  if (conn_ && conn_alive_ && conn_->open()) {
    *fresh = false;
    return true;
  }
  conn_.reset();
  int fd = aio::connect_loopback(port_);
  if (fd < 0) return false;
  aio::TcpConnParams cp;
  cp.read_buffer_cap = 256 * 1024;
  cp.write_buffer_cap = 256 * 1024;
  cp.idle_timeout_ms = 0;  // lifetime is governed per-fetch by the deadline
  cp.write_deadline_ms = config_.write_deadline_ms;
  conn_ = std::make_unique<aio::TcpConn>(loop_, fd, cp, next_conn_ordinal_++,
                                         /*faults=*/nullptr,
                                         /*await_connect=*/true);
  conn_alive_ = true;
  conn_->set_on_data([this] { pump_parser(); });
  conn_->set_on_closed([this](aio::TcpConn::CloseReason reason) {
    conn_alive_ = false;
    close_reason_ = reason;
    // An orderly FIN ends a read-until-close response body.
    if (reason == aio::TcpConn::CloseReason::kEof && active_parser_ != nullptr)
      active_parser_->finish();
  });
  ++stats_.connects;
  obs::metrics().counter("transport.client.connect_total").inc();
  *fresh = true;
  return true;
}

void SocketTransport::SocketOrigin::pump_parser() {
  if (active_parser_ == nullptr || conn_ == nullptr) return;
  while (!conn_->in().empty()) {
    std::string_view chunk = conn_->in().peek();
    active_parser_->feed(chunk);
    conn_->in().consume(chunk.size());
  }
  if (conn_alive_) conn_->resume_read();
}

SocketTransport::SocketOrigin::WireOutcome
SocketTransport::SocketOrigin::round_trip(const HttpRequest& request) {
  WireOutcome out;
  const TimeMs deadline = loop_.now_ms() + config_.fetch_deadline_ms;
  // At most two attempts: one on the kept-alive connection, one on a fresh
  // dial when the reused conn turns out to have died under us.
  for (int attempt = 0; attempt < 2; ++attempt) {
    bool fresh = false;
    if (!ensure_connected(&fresh)) {
      out.error = "connect failed";
      return out;
    }
    HttpParser parser(HttpParser::Mode::kResponse);
    if (request.method == "HEAD") parser.expect_head_response();
    active_parser_ = &parser;
    if (!conn_->send(request.serialize())) {
      active_parser_ = nullptr;
      out.error = "send buffer full";
      conn_->abort();
      conn_.reset();
      return out;
    }
    // Any bytes that raced in before the parser was armed.
    pump_parser();
    const bool done = loop_.run_until(
        [&] {
          return parser.has_message() || parser.has_error() || !conn_alive_;
        },
        deadline);
    active_parser_ = nullptr;

    if (parser.has_message()) {
      out.ok = true;
      out.response = parser.take_response();
      ++stats_.responses;
      if (!conn_alive_) conn_.reset();
      return out;
    }
    if (!done) {
      out.error = "fetch deadline";
      if (conn_) conn_->abort();
      conn_.reset();
      return out;
    }
    if (parser.has_error()) {
      out.error = "parse: " + parser.error();
      if (conn_) conn_->close();
      conn_.reset();
      return out;
    }
    // The connection died with no complete response. A reused conn may have
    // been idle-closed by the server between requests — retry once, fresh.
    conn_.reset();
    if (!fresh) continue;
    out.error =
        std::string("connection ") + aio::TcpConn::reason_name(close_reason_);
    return out;
  }
  out.error = "connection retry failed";
  return out;
}

HttpFetcher::FetchId SocketTransport::SocketOrigin::fetch(
    const HttpRequest& request, FetchCallbacks callbacks) {
  MFHTTP_CHECK(callbacks.on_complete != nullptr);
  FetchId id = next_id_++;
  std::string url_str = request.canonical_url().text;
  TimeMs request_ms = sim_.now();

  // Real I/O happens here, synchronously, in zero sim time.
  WireOutcome wire = round_trip(request);

  Inflight& fl = inflight_[id];
  if (!wire.ok) {
    ++stats_.transport_errors;
    obs::metrics().counter("transport.client.error_total").inc();
    MFHTTP_TRACE << "transport fetch " << url_str << " failed: " << wire.error;
    // Status 0 = transport error; ResilientFetcher treats it as retryable.
    fl.pending_event = sim_.schedule_after(
        params_.request_delay_ms,
        [this, id, url_str, request_ms, cbs = std::move(callbacks)] {
          auto it = inflight_.find(id);
          if (it == inflight_.end()) return;  // cancelled
          inflight_.erase(it);
          FetchResult result;
          result.url = url_str;
          result.status = 0;
          result.body_size = 0;
          result.request_ms = request_ms;
          result.complete_ms = sim_.now();
          cbs.on_complete(result);
        });
    return id;
  }

  // Sim-side replay: identical event shape to SimHttpOrigin::fetch.
  SimResponseMeta meta;
  meta.status = wire.response.status;
  meta.body_size = static_cast<Bytes>(wire.response.body.size());
  meta.content_type = std::string(
      wire.response.headers.get_view(HeaderId::kContentType).value_or(
          std::string_view{}));
  meta.etag = std::string(
      wire.response.headers.get_view(HeaderId::kETag).value_or(std::string_view{}));

  fl.pending_event = sim_.schedule_after(
      params_.request_delay_ms,
      // Runs once, so it hands url_str and cbs on to the link callback by move.
      [this, id, url_str, request_ms, meta, cbs = std::move(callbacks)]() mutable {
        auto it = inflight_.find(id);
        if (it == inflight_.end()) return;  // cancelled
        it->second.pending_event = Simulator::kInvalidEvent;
        if (cbs.on_headers) cbs.on_headers(meta);

        // The headers callback may have cancelled this fetch.
        it = inflight_.find(id);
        if (it == inflight_.end()) return;

        if (meta.status == 304) {
          // 304 carries headers only: complete without touching the link.
          inflight_.erase(it);
          FetchResult result;
          result.url = url_str;
          result.status = 304;
          result.body_size = 0;
          result.request_ms = request_ms;
          result.complete_ms = sim_.now();
          cbs.on_complete(result);
          return;
        }

        auto received = std::make_shared<Bytes>(0);
        Bytes total = meta.body_size;
        int status = meta.status;
        it->second.transfer = link_->submit(
            total, [this, id, url_str = std::move(url_str), request_ms, total, status,
                    received, cbs = std::move(cbs)](Bytes chunk, bool complete) {
              *received += chunk;
              if (cbs.on_progress) cbs.on_progress(chunk, *received, total);
              if (complete) {
                inflight_.erase(id);
                FetchResult result;
                result.url = url_str;
                result.status = status;
                result.body_size = *received;
                result.request_ms = request_ms;
                result.complete_ms = sim_.now();
                cbs.on_complete(result);
              }
            });
      });
  return id;
}

bool SocketTransport::SocketOrigin::cancel(FetchId id) {
  auto it = inflight_.find(id);
  if (it == inflight_.end()) return false;
  if (it->second.pending_event != Simulator::kInvalidEvent)
    sim_.cancel(it->second.pending_event);
  if (it->second.transfer != Link::kInvalidTransfer)
    link_->cancel(it->second.transfer);
  inflight_.erase(it);
  return true;
}

SocketTransport::SocketTransport(Simulator& sim, const ObjectStore* store,
                                 Link* origin_link,
                                 SimHttpOriginParams origin_params,
                                 TransportConfig config) {
  MFHTTP_CHECK(store != nullptr);
  MFHTTP_CHECK(origin_link != nullptr);
  MFHTTP_CHECK_MSG(config.kind == TransportKind::kSocket,
                   "SocketTransport built with kind=sim");

  if (config.plan != nullptr && config.plan->socket.any())
    injector_ = std::make_unique<fault::SocketFaultInjector>(*config.plan);

  aio::HttpServerParams sp;
  sp.conn.idle_timeout_ms = config.idle_timeout_ms;
  sp.conn.write_deadline_ms = config.write_deadline_ms;
  sp.limits.max_header_bytes = config.max_header_bytes;
  sp.limits.max_header_count = config.max_header_count;
  sp.request_deadline_ms = config.request_deadline_ms;
  sp.max_connections = config.max_connections;

  // The loopback origin answers with exactly SimHttpOrigin's semantics:
  // unknown path → 404 with a small error body; ETag match → bodyless 304;
  // otherwise wire_size() synthesized (or stored) body bytes.
  const Bytes error_body = origin_params.error_body_size;
  auto handler = [store, error_body](const HttpRequest& req) {
    const CanonicalUrl url = req.canonical_url();
    const StoredObject* obj = store->find(url.path());
    if (obj == nullptr) {
      return HttpResponse::make(
          404, "Not Found",
          std::string(static_cast<std::size_t>(error_body), 'x'), "text/plain");
    }
    const auto inm = req.headers.get_view(HeaderId::kIfNoneMatch);
    if (!obj->etag.empty() && inm && *inm == obj->etag) {
      HttpResponse resp;
      resp.status = 304;
      resp.reason = "Not Modified";
      resp.headers.set(HeaderId::kContentType, obj->content_type);
      resp.headers.set(HeaderId::kETag, obj->etag);
      return resp;
    }
    std::string body =
        obj->body ? *obj->body
                  : std::string(static_cast<std::size_t>(obj->size), 'x');
    HttpResponse resp =
        HttpResponse::make(200, "OK", std::move(body), obj->content_type);
    if (!obj->etag.empty()) resp.headers.set(HeaderId::kETag, obj->etag);
    return resp;
  };

  server_ = std::make_unique<aio::HttpServer>(
      loop_, config.port, std::move(handler), sp, injector_.get());

  if (config.admission != nullptr) {
    overload::AdmissionController* admission = config.admission;
    Simulator* simp = &sim;
    server_->set_shed_hook([admission, simp](const HttpRequest& req) {
      const overload::Decision decision = admission->on_request(
          req.session(), req.priority_hint(overload::kPriorityViewport),
          simp->now());
      return decision.verdict != overload::Verdict::kAdmit;
    });
  }

  origin_ = std::make_unique<SocketOrigin>(sim, loop_, server_->port(),
                                           origin_link, origin_params, config);
  MFHTTP_INFO << "socket transport listening on 127.0.0.1:" << server_->port();
}

SocketTransport::~SocketTransport() = default;

HttpFetcher& SocketTransport::origin() { return *origin_; }

const SocketTransport::ClientStats& SocketTransport::client_stats() const {
  return origin_->stats();
}

void SocketTransport::drain() {
  server_->drain();
  const TimeMs deadline = loop_.now_ms() + 200;
  loop_.run_until([this] { return server_->connection_count() == 0; },
                  deadline);
}

}  // namespace mfhttp
