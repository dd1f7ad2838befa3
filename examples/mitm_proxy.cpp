// MITM proxy plumbing (§4.3): the HTTP substrate on its own.
//
// Part 1 exercises the wire-level HTTP/1.1 codec: a pipelined byte stream is
// parsed incrementally (the way bytes arrive on a socket) and re-serialized.
// Part 2 runs the simulated proxy with a custom Interceptor that blocks an
// ad host, rewrites a hi-res image to its low-res version, and defers a
// below-the-fold image until "the user scrolls".
//
// Build & run:  ./build/examples/mitm_proxy
#include <cstdio>
#include <vector>

#include "http/fetch_pipeline.h"
#include "http/parser.h"
#include "http/proxy.h"
#include "http/sim_http.h"
#include "cli/standard_options.h"
#include "obs/metrics.h"

using namespace mfhttp;

namespace {

// A policy an MF-HTTP user could write: the Interceptor interface is the
// extension point the paper describes ("users of MF-HTTP can design and
// implement their own optimization logics", §4.3).
class DemoInterceptor : public Interceptor {
 public:
  InterceptDecision on_request(const HttpRequest& request) override {
    auto url = request.url();
    if (!url) return InterceptDecision::allow();
    if (url->host == "ads.example") return InterceptDecision::block();
    if (url->path == "/img/hero_4k.jpg")
      return InterceptDecision::rewrite("http://site.example/img/hero_720.jpg");
    if (url->path == "/img/below_fold.jpg") return InterceptDecision::defer();
    return InterceptDecision::allow();
  }
};

}  // namespace

int main(int argc, char** argv) {
  mfhttp::cli::StandardOptions standard_options(argc, argv);
  // --- Part 1: the wire codec -----------------------------------------------
  std::printf("--- HTTP/1.1 codec ---\n");
  HttpRequest req = HttpRequest::get("http://site.example/img/hero_4k.jpg");
  req.headers.add("Accept", "image/*");
  std::string wire = req.serialize() +
                     HttpRequest::get("http://site.example/page.html").serialize();
  std::printf("serialized %zu bytes of pipelined requests\n", wire.size());

  HttpParser parser(HttpParser::Mode::kRequest);
  // Feed in awkward 7-byte slices, as a socket might deliver them.
  for (std::size_t i = 0; i < wire.size(); i += 7)
    parser.feed(std::string_view(wire).substr(i, 7));
  while (parser.has_message()) {
    HttpRequest parsed = parser.take_request();
    const std::string_view host = parsed.headers.get_view("Host").value_or("");
    std::printf("parsed: %s %s (Host: %.*s)\n", parsed.method.c_str(),
                parsed.target.c_str(), static_cast<int>(host.size()), host.data());
  }

  HttpParser resp_parser(HttpParser::Mode::kResponse);
  resp_parser.feed(
      "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
      "b\r\nhello chunk\r\n0\r\n\r\n");
  std::printf("parsed chunked response body: \"%s\"\n\n",
              resp_parser.take_response().body.c_str());

  // --- Part 2: the simulated proxy ------------------------------------------
  std::printf("--- MITM proxy with a custom interceptor ---\n");
  Simulator sim;
  Link::Params client_params;
  client_params.bandwidth = BandwidthTrace::constant(500e3);
  client_params.latency_ms = 8;
  Link server_link(sim, Link::Params{});

  ObjectStore store;
  store.put("/img/hero_4k.jpg", 900'000, "image/jpeg");
  store.put("/img/hero_720.jpg", 120'000, "image/jpeg");
  store.put("/img/below_fold.jpg", 80'000, "image/jpeg");
  store.put("/banner.gif", 40'000, "image/gif");

  // The canonical stack assembly: one builder call replaces the hand-wired
  // decorator chain (and picks up any ambient --scenario plan automatically).
  // --transport socket swaps the simulated origin for the real epoll
  // loopback server (DESIGN.md §15) with identical timestamps on output.
  DemoInterceptor interceptor;
  TransportConfig transport_config;
  transport_config.kind = standard_options.transport();
  auto pipeline = FetchPipelineBuilder(sim)
                      .with_origin(&store, &server_link)
                      .with_transport(transport_config)
                      .client_link(client_params)
                      .with_faults()
                      .interceptor(&interceptor)
                      .build();
  MitmProxy& proxy = pipeline->proxy();

  auto fetch = [&](const char* url) {
    FetchCallbacks cbs;
    std::string u = url;
    cbs.on_complete = [u, &sim](const FetchResult& r) {
      std::printf("[%6lld ms] %-44s -> %d%s, %lld bytes\n",
                  static_cast<long long>(sim.now()), u.c_str(), r.status,
                  r.blocked ? " (blocked)" : "", static_cast<long long>(r.body_size));
    };
    proxy.fetch(HttpRequest::get(u), std::move(cbs));
  };

  fetch("http://site.example/img/hero_4k.jpg");   // rewritten to 720p
  fetch("http://ads.example/banner.gif");         // blocked
  fetch("http://site.example/img/below_fold.jpg");  // deferred...

  // ...until the user "scrolls" at t = 2s.
  sim.schedule_at(2000, [&] {
    std::printf("[%6lld ms] user scrolled; releasing below-fold image\n",
                static_cast<long long>(sim.now()));
    proxy.release("http://site.example/img/below_fold.jpg");
  });

  sim.run();

  const MitmProxy::Stats& stats = proxy.stats();
  std::printf("\nproxy stats: %zu allowed, %zu blocked, %zu deferred,"
              " %zu released, %zu rewritten, %lld bytes to client\n",
              stats.allowed, stats.blocked, stats.deferred, stats.released,
              stats.rewritten, static_cast<long long>(stats.bytes_to_client));
  return 0;
}
