// Real-socket transport suite (ISSUE 8): the aio byte pipe and event loop,
// the loopback HTTP server's robustness contract (431, slowloris deadlines,
// shed hook, drain), sim-vs-socket parity through the one canonical
// FetchPipelineBuilder wiring, and the seeded socket fault injector's
// determinism guarantees.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fault/fault_plan.h"
#include "fault/faulty_socket.h"
#include "http/fetch_pipeline.h"
#include "http/parser.h"
#include "http/transport.h"
#include "net/aio/byte_pipe.h"
#include "net/aio/event_loop.h"
#include "net/aio/http_server.h"
#include "net/aio/syscall.h"
#include "net/aio/tcp.h"
#include "net/bandwidth_trace.h"
#include "sim/simulator.h"

namespace mfhttp {
namespace {

// ---------- BytePipe ----------

TEST(AioBytePipe, PushPullRoundTrip) {
  aio::BytePipe pipe(16);
  aio::BytePipe::WriteWindow w = pipe.push_begin(5);
  ASSERT_GE(w.size, 5u);
  std::memcpy(w.data, "hello", 5);
  pipe.push_finish(5);
  EXPECT_EQ(pipe.peek(), "hello");
  pipe.consume(2);
  EXPECT_EQ(pipe.peek(), "llo");
  pipe.consume(3);
  EXPECT_TRUE(pipe.empty());
}

TEST(AioBytePipe, BoundedPipeSignalsBackpressure) {
  aio::BytePipe pipe(8, /*max_capacity=*/16);
  EXPECT_TRUE(pipe.append(std::string(16, 'a')));
  EXPECT_TRUE(pipe.full());
  EXPECT_FALSE(pipe.append("b"));          // no room: nothing appended
  EXPECT_EQ(pipe.size(), 16u);
  aio::BytePipe::WriteWindow w = pipe.push_begin(1);
  EXPECT_EQ(w.size, 0u);                   // the stop-reading signal
  pipe.push_finish(0);
  pipe.consume(10);
  EXPECT_FALSE(pipe.full());
  EXPECT_TRUE(pipe.append("b"));
}

// ISSUE 8 satellite: a partially-filled reservation must survive the pipe
// growing (or compacting) under a second, larger push_begin.
TEST(AioBytePipe, GrowPreservesInFlightReservation) {
  aio::BytePipe pipe(8);
  ASSERT_TRUE(pipe.append("xy"));  // committed prefix
  aio::BytePipe::WriteWindow w1 = pipe.push_begin(4);
  ASSERT_GE(w1.size, 4u);
  std::memcpy(w1.data, "abcd", 4);  // written but NOT committed

  // Re-reserve far beyond current capacity: forces a reallocation.
  aio::BytePipe::WriteWindow w2 = pipe.push_begin(4096);
  ASSERT_GE(w2.size, 4096u);
  EXPECT_EQ(std::string_view(w2.data, 4), "abcd")
      << "reservation bytes lost across grow";
  std::memcpy(w2.data + 4, "efgh", 4);
  pipe.push_finish(8);
  EXPECT_EQ(pipe.peek(), "xyabcdefgh");
}

TEST(AioBytePipe, CompactionPreservesReservation) {
  aio::BytePipe pipe(32);
  ASSERT_TRUE(pipe.append(std::string(24, 'a')));
  pipe.consume(20);  // begin_ far forward: next reserve compacts in place
  aio::BytePipe::WriteWindow w1 = pipe.push_begin(4);
  std::memcpy(w1.data, "1234", 4);
  aio::BytePipe::WriteWindow w2 = pipe.push_begin(24);  // compaction
  ASSERT_GE(w2.size, 24u);
  EXPECT_EQ(std::string_view(w2.data, 4), "1234");
  pipe.push_finish(4);
  EXPECT_EQ(pipe.peek(), "aaaa1234");
}

// ---------- EventLoop / timer wheel ----------

TEST(AioEventLoop, ImmediateTimerFires) {
  aio::EventLoop loop;
  bool fired = false;
  loop.add_timer_after(0, [&] { fired = true; });
  // A deadline on the current wheel tick must fire on the next poll, not
  // after a full wheel revolution.
  EXPECT_TRUE(loop.run_until([&] { return fired; }, loop.now_ms() + 200));
}

TEST(AioEventLoop, CancelledTimerNeverFires) {
  aio::EventLoop loop;
  bool a = false, b = false;
  loop.add_timer_after(10, [&] { a = true; });
  aio::EventLoop::TimerId tb = loop.add_timer_after(20, [&] { b = true; });
  EXPECT_TRUE(loop.cancel_timer(tb));
  EXPECT_FALSE(loop.cancel_timer(tb));  // already cancelled
  EXPECT_TRUE(loop.run_until([&] { return a; }, loop.now_ms() + 500));
  loop.poll(0);
  EXPECT_FALSE(b);
  EXPECT_EQ(loop.timer_count(), 0u);
}

TEST(AioEventLoop, WheelCollisionDoesNotFireEarly) {
  aio::EventLoop loop;
  bool near = false, far = false;
  loop.add_timer_after(8, [&] { near = true; });
  // Same wheel slot, one revolution later (256 slots x 4 ms).
  loop.add_timer_after(8 + 1024, [&] { far = true; });
  EXPECT_TRUE(loop.run_until([&] { return near; }, loop.now_ms() + 500));
  EXPECT_FALSE(far) << "future-revolution timer fired a revolution early";
  EXPECT_EQ(loop.timer_count(), 1u);
}

TEST(AioEventLoop, RunUntilHonorsDeadline) {
  aio::EventLoop loop;
  EXPECT_FALSE(loop.run_until([] { return false; }, loop.now_ms() + 30));
}

// ---------- HttpServer robustness (raw client) ----------

// Minimal raw loopback client: one TcpConn collecting every received byte.
struct RawClient {
  aio::EventLoop& loop;
  std::unique_ptr<aio::TcpConn> conn;
  std::string received;
  bool closed = false;
  aio::TcpConn::CloseReason reason = aio::TcpConn::CloseReason::kLocal;

  RawClient(aio::EventLoop& l, std::uint16_t port) : loop(l) {
    int fd = aio::connect_loopback(port);
    EXPECT_GE(fd, 0);
    conn = std::make_unique<aio::TcpConn>(loop, fd, aio::TcpConnParams{},
                                          /*ordinal=*/999, nullptr,
                                          /*await_connect=*/true);
    conn->set_on_data([this] {
      std::string_view chunk = conn->in().peek();
      received.append(chunk);
      conn->in().consume(chunk.size());
      conn->resume_read();
    });
    conn->set_on_closed([this](aio::TcpConn::CloseReason r) {
      closed = true;
      reason = r;
    });
  }

  bool wait(const std::function<bool()>& done, TimeMs budget_ms = 2000) {
    return loop.run_until(done, loop.now_ms() + budget_ms);
  }
};

std::vector<HttpResponse> parse_responses(const std::string& wire) {
  HttpParser parser(HttpParser::Mode::kResponse);
  parser.feed(wire);
  std::vector<HttpResponse> out;
  while (parser.has_message()) out.push_back(parser.take_response());
  return out;
}

HttpResponse ok_handler(const HttpRequest& req) {
  return HttpResponse::make(200, "OK", "served:" + req.target, "text/plain");
}

TEST(AioHttpServer, ServesKeepAliveRequests) {
  aio::EventLoop loop;
  aio::HttpServer server(loop, 0, ok_handler);
  RawClient client(loop, server.port());
  ASSERT_TRUE(client.conn->send("GET /a HTTP/1.1\r\nHost: x\r\n\r\n"
                                "GET /b HTTP/1.1\r\nHost: x\r\n\r\n"));
  ASSERT_TRUE(client.wait([&] {
    return parse_responses(client.received).size() >= 2;
  }));
  std::vector<HttpResponse> responses = parse_responses(client.received);
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].status, 200);
  EXPECT_EQ(responses[0].body, "served:/a");
  EXPECT_EQ(responses[1].body, "served:/b");
  EXPECT_FALSE(client.closed);  // keep-alive: conn stays up
  EXPECT_EQ(server.stats().requests, 2u);
  EXPECT_EQ(server.stats().responses, 2u);
}

TEST(AioHttpServer, PipelinedRequestsAnsweredInOrder) {
  // A large answer ahead of a small one: responses leave in request order.
  aio::EventLoop loop;
  aio::HttpServer server(loop, 0, [](const HttpRequest& req) {
    if (req.target == "/img/big.jpg")
      return HttpResponse::make(200, "OK", std::string(50'000, 'x'),
                                "image/jpeg");
    return HttpResponse::make(200, "OK", "hello wire world", "text/plain");
  });
  RawClient client(loop, server.port());
  ASSERT_TRUE(client.conn->send(
      "GET /img/big.jpg HTTP/1.1\r\nHost: h.example\r\n\r\n"
      "GET /hello.txt HTTP/1.1\r\nHost: h.example\r\n\r\n"));
  ASSERT_TRUE(client.wait([&] {
    return parse_responses(client.received).size() >= 2;
  }));
  std::vector<HttpResponse> responses = parse_responses(client.received);
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].status, 200);
  EXPECT_EQ(responses[0].body.size(), 50'000u);
  EXPECT_EQ(responses[1].status, 200);
  EXPECT_EQ(responses[1].body, "hello wire world");
  EXPECT_EQ(server.stats().responses, 2u);
}

TEST(AioHttpServer, TrickledRequestWithinDeadlineIsServed) {
  aio::EventLoop loop;
  aio::HttpServerParams params;
  params.request_deadline_ms = 400;
  aio::HttpServer server(loop, 0, ok_handler, params);
  RawClient client(loop, server.port());
  std::string wire;
  for (int i = 0; i < 4; ++i)
    wire += "GET /x HTTP/1.1\r\nHost: h.example\r\n\r\n";
  // 5 bytes every 20 ms: each 36-byte request takes ~150 ms, well inside its
  // deadline, while the four together take ~580 ms, beyond one deadline.
  // Chunks straddle request boundaries, so the next request's first bytes
  // arrive with the end of the previous one.
  constexpr std::size_t kChunk = 5;
  constexpr TimeMs kGapMs = 20;
  std::size_t sent = 0;
  std::function<void()> send_next = [&] {
    ASSERT_TRUE(client.conn->send(wire.substr(sent, kChunk)));
    sent += kChunk;
    if (sent < wire.size()) loop.add_timer_after(kGapMs, send_next);
  };
  send_next();
  ASSERT_TRUE(client.wait(
      [&] { return client.closed || parse_responses(client.received).size() >= 4; },
      5000));
  std::vector<HttpResponse> responses = parse_responses(client.received);
  ASSERT_EQ(responses.size(), 4u);
  for (const HttpResponse& r : responses) {
    EXPECT_EQ(r.status, 200);
    EXPECT_EQ(r.body, "served:/x");
  }
  EXPECT_FALSE(client.closed);
  EXPECT_EQ(server.stats().timeouts, 0u);
}

TEST(AioHttpServer, OversizedHeadersAnswer431AndClose) {
  aio::EventLoop loop;
  aio::HttpServerParams params;
  params.limits.max_header_bytes = 256;
  aio::HttpServer server(loop, 0, ok_handler, params);
  RawClient client(loop, server.port());
  std::string request = "GET / HTTP/1.1\r\nHost: x\r\nX-Big: " +
                        std::string(1024, 'a') + "\r\n\r\n";
  ASSERT_TRUE(client.conn->send(request));
  ASSERT_TRUE(client.wait([&] { return client.closed; }));
  std::vector<HttpResponse> responses = parse_responses(client.received);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, 431);
  EXPECT_EQ(server.stats().header_violations, 1u);
}

TEST(AioHttpServer, TooManyHeadersAnswer431) {
  aio::EventLoop loop;
  aio::HttpServerParams params;
  params.limits.max_header_count = 8;
  aio::HttpServer server(loop, 0, ok_handler, params);
  RawClient client(loop, server.port());
  std::string request = "GET / HTTP/1.1\r\n";
  for (int i = 0; i < 20; ++i)
    request += "X-H" + std::to_string(i) + ": v\r\n";
  request += "\r\n";
  ASSERT_TRUE(client.conn->send(request));
  ASSERT_TRUE(client.wait([&] { return client.closed; }));
  std::vector<HttpResponse> responses = parse_responses(client.received);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, 431);
}

TEST(AioHttpServer, GarbageAnswers400AndCloses) {
  aio::EventLoop loop;
  aio::HttpServer server(loop, 0, ok_handler);
  RawClient client(loop, server.port());
  ASSERT_TRUE(client.conn->send("\x01\x02 utter garbage\r\n\r\n"));
  ASSERT_TRUE(client.wait([&] { return client.closed; }));
  std::vector<HttpResponse> responses = parse_responses(client.received);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, 400);
  EXPECT_EQ(server.stats().bad_requests, 1u);
}

TEST(AioHttpServer, ShedHookAnswers503) {
  aio::EventLoop loop;
  aio::HttpServer server(loop, 0, ok_handler);
  server.set_shed_hook([](const HttpRequest&) { return true; });
  RawClient client(loop, server.port());
  ASSERT_TRUE(client.conn->send("GET /a HTTP/1.1\r\nHost: x\r\n\r\n"));
  ASSERT_TRUE(client.wait([&] {
    return !parse_responses(client.received).empty();
  }));
  std::vector<HttpResponse> responses = parse_responses(client.received);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, 503);
  EXPECT_EQ(responses[0].headers.get_view("x-mfhttp-shed").value_or(""), "admission");
  EXPECT_EQ(server.stats().shed, 1u);
}

TEST(AioHttpServer, SlowlorisHitsRequestDeadline) {
  aio::EventLoop loop;
  aio::HttpServerParams params;
  params.request_deadline_ms = 40;
  aio::HttpServer server(loop, 0, ok_handler, params);
  RawClient client(loop, server.port());
  // First bytes of a request, then silence: the per-request read deadline
  // must kill the connection.
  ASSERT_TRUE(client.conn->send("GET / HTTP/1.1\r\nHo"));
  ASSERT_TRUE(client.wait([&] { return client.closed; }));
  EXPECT_GE(server.stats().timeouts, 1u);
  EXPECT_EQ(server.connection_count(), 0u);
}

TEST(AioHttpServer, IdleConnectionTimesOut) {
  aio::EventLoop loop;
  aio::HttpServerParams params;
  params.conn.idle_timeout_ms = 40;
  aio::HttpServer server(loop, 0, ok_handler, params);
  RawClient client(loop, server.port());
  ASSERT_TRUE(client.wait([&] { return client.closed; }));
  EXPECT_GE(server.stats().timeouts, 1u);
}

TEST(AioHttpServer, DrainClosesIdleConnsAndStopsAccepting) {
  aio::EventLoop loop;
  aio::HttpServer server(loop, 0, ok_handler);
  RawClient client(loop, server.port());
  ASSERT_TRUE(client.conn->send("GET /a HTTP/1.1\r\nHost: x\r\n\r\n"));
  ASSERT_TRUE(client.wait([&] {
    return !parse_responses(client.received).empty();
  }));
  server.drain();
  EXPECT_TRUE(server.draining());
  ASSERT_TRUE(client.wait([&] { return client.closed; }));
  EXPECT_EQ(server.connection_count(), 0u);
  // A new dial finds nobody listening.
  RawClient late(loop, server.port());
  EXPECT_TRUE(late.wait([&] { return late.closed; }));
}

// ---------- sim vs socket parity through the pipeline ----------

struct World {
  Simulator sim;
  ObjectStore store;
  std::optional<Link> origin_link;
  std::unique_ptr<FetchPipeline> pipeline;

  void build(TransportKind kind, const fault::FaultPlan* plan = nullptr) {
    store.put("/img/a.jpg", 50'000, "image/jpeg");
    store.put("/img/b.jpg", 20'000, "image/jpeg");
    store.put_body("/page.html", "<html>hello scroll</html>", "text/html");

    Link::Params origin_params;
    origin_params.bandwidth = BandwidthTrace::constant(1'000'000);
    origin_params.latency_ms = 2;
    origin_link.emplace(sim, origin_params);

    FetchPipelineBuilder builder(sim);
    builder.with_origin(&store, &*origin_link);
    TransportConfig config;
    config.kind = kind;
    builder.with_transport(config);
    if (plan != nullptr) builder.with_faults(plan);

    Link::Params client_params;
    client_params.bandwidth = BandwidthTrace::constant(400'000);
    client_params.latency_ms = 30;
    builder.client_link(client_params);
    pipeline = builder.build();
  }

  FetchResult fetch(const std::string& url, const std::string& etag = "") {
    std::optional<FetchResult> out;
    FetchCallbacks callbacks;
    callbacks.on_complete = [&](const FetchResult& r) { out = r; };
    HttpRequest request = HttpRequest::get(url);
    if (!etag.empty()) request.headers.set("If-None-Match", etag);
    pipeline->proxy().fetch(request, std::move(callbacks));
    sim.run();
    EXPECT_TRUE(out.has_value());
    return out.value_or(FetchResult{});
  }
};

TEST(TransportParity, CleanWireFetchesMatchSimExactly) {
  const std::vector<std::string> script = {
      "http://origin.example/img/a.jpg", "http://origin.example/page.html",
      "http://origin.example/missing.png", "http://origin.example/img/b.jpg"};

  World sim_world, socket_world;
  sim_world.build(TransportKind::kSim);
  socket_world.build(TransportKind::kSocket);
  ASSERT_EQ(sim_world.pipeline->transport(), nullptr);
  ASSERT_NE(socket_world.pipeline->transport(), nullptr);

  for (const std::string& url : script) {
    FetchResult sim_result = sim_world.fetch(url);
    FetchResult socket_result = socket_world.fetch(url);
    EXPECT_EQ(sim_result.status, socket_result.status) << url;
    EXPECT_EQ(sim_result.body_size, socket_result.body_size) << url;
    // The parity contract: real I/O happens in zero sim time, then replays
    // SimHttpOrigin's exact event shape — identical sim timestamps.
    EXPECT_EQ(sim_result.request_ms, socket_result.request_ms) << url;
    EXPECT_EQ(sim_result.complete_ms, socket_result.complete_ms) << url;
  }

  const SocketTransport::ClientStats& cs =
      socket_world.pipeline->transport()->client_stats();
  EXPECT_EQ(cs.responses, script.size());
  EXPECT_EQ(cs.transport_errors, 0u);
  EXPECT_EQ(socket_world.pipeline->transport()->server_stats().requests,
            script.size());
}

TEST(TransportParity, ConditionalGetAnswers304OnBothBackends) {
  World sim_world, socket_world;
  sim_world.build(TransportKind::kSim);
  socket_world.build(TransportKind::kSocket);
  const std::string etag = sim_world.store.find("/img/a.jpg")->etag;
  ASSERT_FALSE(etag.empty());
  ASSERT_EQ(socket_world.store.find("/img/a.jpg")->etag, etag)
      << "twin worlds must assign identical etags";

  FetchResult sim_result =
      sim_world.fetch("http://origin.example/img/a.jpg", etag);
  FetchResult socket_result =
      socket_world.fetch("http://origin.example/img/a.jpg", etag);
  EXPECT_EQ(sim_result.status, 304);
  EXPECT_EQ(socket_result.status, 304);
  EXPECT_EQ(socket_result.body_size, 0u);
  EXPECT_EQ(sim_result.complete_ms, socket_result.complete_ms);
}

TEST(TransportParity, SocketOriginSurfaces431FromTheWire) {
  World world;
  world.build(TransportKind::kSocket);
  HttpRequest request = HttpRequest::get("http://origin.example/img/a.jpg");
  request.headers.set("X-Abuse", std::string(100 * 1024, 'a'));
  std::optional<FetchResult> out;
  FetchCallbacks callbacks;
  callbacks.on_complete = [&](const FetchResult& r) { out = r; };
  // Straight into the socket origin (the proxy's own header cap is a
  // separate front door, tested in test_proxy).
  world.pipeline->origin().fetch(request, std::move(callbacks));
  world.sim.run();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->status, 431);
  EXPECT_EQ(
      world.pipeline->transport()->server_stats().header_violations, 1u);
}

TEST(TransportParity, KindNamesRoundTrip) {
  EXPECT_STREQ(transport_kind_name(TransportKind::kSim), "sim");
  EXPECT_STREQ(transport_kind_name(TransportKind::kSocket), "socket");
  EXPECT_EQ(transport_kind_from_name("sim"), TransportKind::kSim);
  EXPECT_EQ(transport_kind_from_name("socket"), TransportKind::kSocket);
  EXPECT_FALSE(transport_kind_from_name("carrier-pigeon").has_value());
}

// ---------- FaultySocket determinism ----------

struct DecisionKey {
  std::size_t clamp;
  bool reset;
  TimeMs stall_ms;
  bool operator==(const DecisionKey& o) const {
    return clamp == o.clamp && reset == o.reset && stall_ms == o.stall_ms;
  }
};

std::vector<DecisionKey> decision_stream(fault::SocketFaultInjector& injector,
                                         std::uint64_t conns,
                                         std::uint64_t ops) {
  std::vector<DecisionKey> out;
  for (std::uint64_t c = 0; c < conns; ++c) {
    for (std::uint64_t op = 0; op < ops; ++op) {
      aio::ByteFaults::Op r = injector.on_read(c, op, 4096);
      out.push_back({r.clamp, r.reset, r.stall_ms});
      aio::ByteFaults::Op w = injector.on_write(c, op, 4096);
      out.push_back({w.clamp, w.reset, w.stall_ms});
    }
  }
  return out;
}

TEST(FaultySocket, SameSeedSameDecisionStream) {
  fault::FaultPlan plan = fault::FaultPlan::flaky_socket(42);
  fault::SocketFaultInjector a(plan);
  fault::SocketFaultInjector b(plan);
  EXPECT_EQ(decision_stream(a, 4, 200), decision_stream(b, 4, 200));

  fault::FaultPlan other = fault::FaultPlan::flaky_socket(43);
  fault::SocketFaultInjector c(other);
  EXPECT_NE(decision_stream(a, 4, 200), decision_stream(c, 4, 200));
}

TEST(FaultySocket, DecisionsArePureFunctionsOfCoordinates) {
  fault::FaultPlan plan = fault::FaultPlan::flaky_socket(7);
  fault::SocketFaultInjector injector(plan);
  // Query in reverse order: a stateless injector must not care.
  std::vector<DecisionKey> reversed;
  for (std::uint64_t c = 4; c-- > 0;) {
    for (std::uint64_t op = 200; op-- > 0;) {
      aio::ByteFaults::Op w = injector.on_write(c, op, 4096);
      reversed.push_back({w.clamp, w.reset, w.stall_ms});
      aio::ByteFaults::Op r = injector.on_read(c, op, 4096);
      reversed.push_back({r.clamp, r.reset, r.stall_ms});
    }
  }
  std::vector<DecisionKey> forward = decision_stream(injector, 4, 200);
  ASSERT_EQ(forward.size(), reversed.size());
  for (std::size_t i = 0; i < forward.size(); ++i) {
    // reversed holds (write, read) pairs in reverse coordinate order.
    std::size_t pair = reversed.size() / 2 - 1 - i / 2;
    const DecisionKey& rev = reversed[pair * 2 + (i % 2 == 0 ? 1 : 0)];
    EXPECT_TRUE(forward[i] == rev) << "coordinate " << i;
  }
}

TEST(FaultySocket, ResetBeatsClampAndStall) {
  fault::FaultPlan plan;
  plan.socket.reset_rate = 1.0;
  plan.socket.short_read_rate = 1.0;
  plan.socket.stall_rate = 1.0;
  plan.socket.stall_ms = 50;
  fault::SocketFaultInjector injector(plan);
  aio::ByteFaults::Op op = injector.on_read(0, 0, 4096);
  EXPECT_TRUE(op.reset);
  EXPECT_EQ(op.stall_ms, 0);
  EXPECT_EQ(op.clamp, SIZE_MAX);
}

TEST(FaultySocket, EmptyPlanInjectsNothing) {
  fault::FaultPlan plan;
  EXPECT_FALSE(plan.socket.any());
  fault::SocketFaultInjector injector(plan);
  for (std::uint64_t op = 0; op < 100; ++op) {
    aio::ByteFaults::Op decision = injector.on_read(0, op, 4096);
    EXPECT_FALSE(decision.reset);
    EXPECT_EQ(decision.clamp, SIZE_MAX);
    EXPECT_EQ(decision.stall_ms, 0);
  }
}

TEST(FaultySocket, FaultyWireEndToEndTaxonomyAccounted) {
  fault::FaultPlan plan = fault::FaultPlan::flaky_socket(7);
  // Socket-only chaos must leave the sim-side pipeline undecorated.
  ASSERT_TRUE(plan.pipeline_empty());
  ASSERT_FALSE(plan.empty());

  World world;
  world.build(TransportKind::kSocket, &plan);
  std::size_t completed = 0, errored = 0;
  const int kFetches = 30;
  for (int i = 0; i < kFetches; ++i) {
    FetchResult result = world.fetch(i % 2 == 0
                                         ? "http://origin.example/img/b.jpg"
                                         : "http://origin.example/page.html");
    if (result.status == 200) {
      ++completed;
      EXPECT_GT(result.body_size, 0u);
    } else {
      // Transport failures surface as status 0 (retryable), never hang.
      EXPECT_EQ(result.status, 0) << "unexpected status on faulty wire";
      ++errored;
    }
  }
  EXPECT_EQ(completed + errored, static_cast<std::size_t>(kFetches));
  const SocketTransport::ClientStats& cs =
      world.pipeline->transport()->client_stats();
  EXPECT_EQ(cs.transport_errors, errored);
  EXPECT_GT(completed, 0u) << "flaky wire should still serve most requests";
}

}  // namespace
}  // namespace mfhttp
