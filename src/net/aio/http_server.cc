#include "net/aio/http_server.h"

#include <utility>

#include "net/aio/syscall.h"
#include "obs/metrics.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/strings.h"

namespace mfhttp::aio {

namespace {

obs::Counter& shed_counter() {
  static obs::Counter& c = obs::metrics().counter("aio.server.shed_total");
  return c;
}

obs::Counter& violation_counter() {
  static obs::Counter& c =
      obs::metrics().counter("aio.server.header_violation_total");
  return c;
}

bool bodiless_status(int status) {
  return status / 100 == 1 || status == 204 || status == 304;
}

bool wants_close(const HttpRequest& request) {
  auto connection = request.headers.get_view(HeaderId::kConnection);
  return connection && iequals(trim(*connection), "close");
}

}  // namespace

HttpServer::HttpServer(EventLoop& loop, std::uint16_t port, Handler handler,
                       HttpServerParams params, ByteFaults* faults)
    : loop_(loop),
      handler_(std::move(handler)),
      params_(params),
      faults_(faults),
      listener_(loop, port, [this](int fd) { on_accept(fd); }) {
  MFHTTP_CHECK(handler_ != nullptr);
  if (params_.write_high_water == 0)
    params_.write_high_water = params_.conn.write_buffer_cap / 2;
}

HttpServer::~HttpServer() = default;

void HttpServer::drain() {
  draining_ = true;
  listener_.close();
  // Idle connections close now; busy ones when their response drains (the
  // on_data tail handles that).
  for (auto it = conns_.begin(); it != conns_.end();) {
    Conn& conn = (it++)->second;  // close() may erase via on_closed
    if (conn.parser.between_messages() && !conn.parser.has_message())
      conn.tcp->close_when_drained();
  }
}

void HttpServer::on_accept(int fd) {
  ++stats_.accepted;
  if (draining_) {
    close_fd(fd);
    return;
  }
  if (conns_.size() >= params_.max_connections) {
    // Over the connection cap: refuse outright. An RST is honest — there is
    // no conn state to write a 503 from without growing unbounded.
    ++stats_.over_capacity;
    arm_abortive_close(fd);
    close_fd(fd);
    return;
  }
  const std::uint64_t ordinal = next_ordinal_++;
  Conn& conn = conns_.emplace(ordinal, Conn(params_.limits)).first->second;
  conn.tcp = std::make_unique<TcpConn>(loop_, fd, params_.conn, ordinal,
                                       faults_);
  conn.tcp->set_on_data([this, ordinal] { on_data(ordinal); });
  conn.tcp->set_on_closed([this, ordinal](TcpConn::CloseReason reason) {
    on_closed(ordinal, reason);
  });
}

void HttpServer::on_data(std::uint64_t ordinal) {
  auto it = conns_.find(ordinal);
  if (it == conns_.end()) return;
  Conn& conn = it->second;

  std::string_view bytes = conn.tcp->in().peek();
  conn.parser.feed(bytes);
  conn.tcp->in().consume(bytes.size());
  conn.tcp->resume_read();  // the in-pipe bound may have paused EPOLLIN

  // Serve complete requests first — pipelined requests ahead of a malformed
  // one still deserve answers.
  bool completed = false;
  while (conn.parser.has_message()) {
    HttpRequest request = conn.parser.take_request();
    ++stats_.requests;
    completed = true;
    const bool close_after = wants_close(request) || draining_;

    const bool backpressured =
        conn.tcp->out().size() > params_.write_high_water;
    if (backpressured || (shed_ && shed_(request))) {
      ++stats_.shed;
      shed_counter().inc();
      HttpResponse response = HttpResponse::make(503, "", "overloaded");
      response.headers.set(HeaderId::kXMfhttpShed,
                           backpressured ? "backpressure" : "admission");
      if (!respond(conn, response, close_after)) return;
      continue;
    }

    HttpResponse response = handler_(request);
    ++stats_.responses;
    if (!respond(conn, response, close_after)) return;
    if (close_after) return;  // respond() queued the drain-and-close
  }

  if (conn.parser.has_error()) {
    const bool violation = conn.parser.limit_violation();
    if (violation) {
      ++stats_.header_violations;
      violation_counter().inc();
    } else {
      ++stats_.bad_requests;
    }
    MFHTTP_TRACE << "aio server conn " << ordinal << ": "
                 << conn.parser.error();
    HttpResponse response =
        violation ? HttpResponse::make(431, "", "header limits exceeded")
                  : HttpResponse::make(400, "", "malformed request");
    response.headers.set(HeaderId::kConnection, "close");
    respond(conn, response, /*close_after=*/true);
    return;
  }

  if (conn.parser.between_messages()) {
    if (conn.request_deadline_armed) {
      conn.tcp->disarm_read_deadline();
      conn.request_deadline_armed = false;
    }
    if (draining_) conn.tcp->close_when_drained();
  } else if ((completed || !conn.request_deadline_armed) &&
             params_.request_deadline_ms > 0) {
    // First bytes of a request landed: the rest must follow within the
    // deadline — a trickling header (slowloris) dies here. A request that
    // completed in this read ends its own deadline; the bytes after it
    // start the next request's.
    conn.tcp->arm_read_deadline(params_.request_deadline_ms);
    conn.request_deadline_armed = true;
  }
}

bool HttpServer::respond(Conn& conn, const HttpResponse& response,
                         bool close_after) {
  HttpResponse out = response;
  if (out.reason.empty()) out.reason = default_reason(out.status);
  // serialize() adds Content-Length only for non-empty bodies; an empty
  // non-bodiless body needs an explicit zero or keep-alive clients would
  // read until close.
  if (out.body.empty() && !bodiless_status(out.status) &&
      !out.headers.contains(HeaderId::kContentLength))
    out.headers.set(HeaderId::kContentLength, "0");
  if (!conn.tcp->send(out.serialize())) {
    // Out-pipe hard bound: nothing more can queue. Abort — the peer gets a
    // reset, the taxonomy an errored request.
    conn.tcp->abort(TcpConn::CloseReason::kError);
    return false;
  }
  if (close_after) conn.tcp->close_when_drained();
  return true;
}

void HttpServer::on_closed(std::uint64_t ordinal,
                           TcpConn::CloseReason reason) {
  switch (reason) {
    case TcpConn::CloseReason::kIdleTimeout:
    case TcpConn::CloseReason::kReadTimeout:
    case TcpConn::CloseReason::kWriteTimeout:
      ++stats_.timeouts;
      break;
    case TcpConn::CloseReason::kReset:
    case TcpConn::CloseReason::kInjected:
      ++stats_.resets;
      break;
    default:
      break;
  }
  conns_.erase(ordinal);
}

}  // namespace mfhttp::aio
