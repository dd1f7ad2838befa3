// Tests for the wire-level stack: BytePipe ordered delivery, the byte-level
// HTTP server/client, the byte-level MITM proxy, and the LRU cache.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "http/cache.h"
#include "http/wire.h"
#include "net/byte_pipe.h"
#include "util/rng.h"

namespace mfhttp {
namespace {

Link::Params fifo_link(BytesPerSec rate, TimeMs latency = 2) {
  Link::Params p;
  p.bandwidth = BandwidthTrace::constant(rate);
  p.latency_ms = latency;
  p.sharing = Link::Sharing::kFifo;
  return p;
}

// ---------- BytePipe ----------

TEST(BytePipe, DeliversBytesInOrder) {
  Simulator sim;
  Link link(sim, fifo_link(100'000));
  BytePipe pipe(sim, &link);
  std::string received;
  pipe.set_on_data([&](std::string_view d) { received.append(d); });
  pipe.send("hello ");
  pipe.send("wire ");
  pipe.send("world");
  sim.run();
  EXPECT_EQ(received, "hello wire world");
  EXPECT_EQ(pipe.bytes_sent(), 16);
  EXPECT_EQ(pipe.bytes_delivered(), 16);
}

TEST(BytePipe, RateLimitsDelivery) {
  Simulator sim;
  Link link(sim, fifo_link(10'000, 0));  // 10 KB/s
  BytePipe pipe(sim, &link);
  Bytes received = 0;
  pipe.set_on_data([&](std::string_view d) { received += static_cast<Bytes>(d.size()); });
  pipe.send(std::string(20'000, 'x'));
  sim.run_until(1000);
  EXPECT_NEAR(static_cast<double>(received), 10'000, 200);  // half after 1 s
  sim.run();
  EXPECT_EQ(received, 20'000);
}

TEST(BytePipe, LargeSendArrivesChunked) {
  Simulator sim;
  Link link(sim, fifo_link(50'000));
  BytePipe pipe(sim, &link);
  int chunks = 0;
  pipe.set_on_data([&](std::string_view) { ++chunks; });
  pipe.send(std::string(100'000, 'y'));
  sim.run();
  EXPECT_GT(chunks, 10);  // streamed, not a single lump
}

TEST(BytePipe, ContentPreservedExactly) {
  Simulator sim;
  Link link(sim, fifo_link(80'000));
  BytePipe pipe(sim, &link);
  std::string received;
  pipe.set_on_data([&](std::string_view d) { received.append(d); });
  Rng rng(3);
  std::string sent;
  for (int i = 0; i < 50; ++i) {
    std::string msg;
    auto len = static_cast<std::size_t>(rng.uniform_int(1, 4000));
    msg.reserve(len);
    for (std::size_t k = 0; k < len; ++k)
      msg.push_back(static_cast<char>(rng.uniform_int(0, 255)));
    sent += msg;
    pipe.send(std::move(msg));
  }
  sim.run();
  EXPECT_EQ(received, sent);
}

TEST(BytePipe, CloseAfterDataDelivery) {
  Simulator sim;
  Link link(sim, fifo_link(10'000));
  BytePipe pipe(sim, &link);
  std::string received;
  bool closed = false;
  pipe.set_on_data([&](std::string_view d) { received.append(d); });
  pipe.set_on_close([&] {
    closed = true;
    EXPECT_EQ(received.size(), 5'000u);  // EOF strictly after all data
  });
  pipe.send(std::string(5'000, 'z'));
  pipe.close();
  EXPECT_FALSE(closed);  // asynchronous
  sim.run();
  EXPECT_TRUE(closed);
}

TEST(BytePipe, CloseEmptyPipeFiresAsync) {
  Simulator sim;
  Link link(sim, fifo_link(10'000));
  BytePipe pipe(sim, &link);
  bool closed = false;
  pipe.set_on_close([&] { closed = true; });
  pipe.close();
  sim.run();
  EXPECT_TRUE(closed);
}

TEST(BytePipe, SendAfterCloseIgnored) {
  Simulator sim;
  Link link(sim, fifo_link(10'000));
  BytePipe pipe(sim, &link);
  pipe.close();
  pipe.send("dropped");
  sim.run();
  EXPECT_EQ(pipe.bytes_sent(), 0);
}

// ---------- wire server/client ----------

struct WireFixture : public ::testing::Test {
  WireFixture()
      : c2s_link(sim, fifo_link(1'000'000)),
        s2c_link(sim, fifo_link(200'000)),
        channel(sim, &c2s_link, &s2c_link) {
    store.put_body("/hello.txt", "hello wire world", "text/plain");
    store.put("/img/big.jpg", 50'000, "image/jpeg");
    server.emplace(&store, &channel.a_to_b(), &channel.b_to_a());
    client.emplace(&channel.a_to_b(), &channel.b_to_a());
  }

  Simulator sim;
  Link c2s_link, s2c_link;
  DuplexChannel channel;
  ObjectStore store;
  std::optional<WireHttpServer> server;
  std::optional<WireHttpClient> client;
};

TEST_F(WireFixture, GetRealBody) {
  std::optional<HttpResponse> resp;
  client->send(HttpRequest::get("http://h.example/hello.txt"),
               [&](const HttpResponse& r) { resp = r; });
  sim.run();
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, 200);
  EXPECT_EQ(resp->body, "hello wire world");
  EXPECT_EQ(resp->headers.get_view("Content-Type"), "text/plain");
  EXPECT_EQ(server->requests_served(), 1u);
}

TEST_F(WireFixture, GetSynthesizedBodyHasExactSize) {
  std::optional<HttpResponse> resp;
  client->send(HttpRequest::get("http://h.example/img/big.jpg"),
               [&](const HttpResponse& r) { resp = r; });
  sim.run();
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->body.size(), 50'000u);
  // 50 KB over a 200 KB/s stream: ~250 ms of simulated transfer.
  EXPECT_GT(sim.now(), 200);
}

TEST_F(WireFixture, NotFound404) {
  std::optional<HttpResponse> resp;
  client->send(HttpRequest::get("http://h.example/missing"),
               [&](const HttpResponse& r) { resp = r; });
  sim.run();
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, 404);
}

TEST_F(WireFixture, HeadHasNoBodyButLength) {
  HttpRequest head = HttpRequest::get("http://h.example/img/big.jpg");
  head.method = "HEAD";
  std::optional<HttpResponse> resp;
  client->send(head, [&](const HttpResponse& r) { resp = r; });
  sim.run();
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, 200);
  EXPECT_TRUE(resp->body.empty());
  EXPECT_EQ(resp->headers.content_length(), 50'000);
}

TEST_F(WireFixture, PipelinedRequestsAnsweredInOrder) {
  std::vector<int> order;
  client->send(HttpRequest::get("http://h.example/img/big.jpg"),
               [&](const HttpResponse&) { order.push_back(1); });
  client->send(HttpRequest::get("http://h.example/hello.txt"),
               [&](const HttpResponse& r) {
                 order.push_back(2);
                 EXPECT_EQ(r.body, "hello wire world");
               });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(client->pending(), 0u);
}

TEST_F(WireFixture, CustomHandler) {
  server->set_handler([](const HttpRequest& req) {
    return HttpResponse::make(201, "Created", "echo:" + req.target);
  });
  std::optional<HttpResponse> resp;
  client->send(HttpRequest::get("http://h.example/anything"),
               [&](const HttpResponse& r) { resp = r; });
  sim.run();
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, 201);
  EXPECT_EQ(resp->body, "echo:/anything");
}

TEST(SynthesizeBody, DeterministicAndSized) {
  std::string a = synthesize_body("/img/x.jpg", 1000);
  std::string b = synthesize_body("/img/x.jpg", 1000);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 1000u);
  EXPECT_EQ(synthesize_body("/y", 0).size(), 0u);
  EXPECT_NE(synthesize_body("/y", 100), synthesize_body("/z", 100));
}

// ---------- byte ranges ----------

TEST(ByteRange, ParseForms) {
  auto r = parse_byte_range("bytes=0-499", 1000);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->first, 0);
  EXPECT_EQ(r->last, 499);

  r = parse_byte_range("bytes=500-", 1000);  // open-ended
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->first, 500);
  EXPECT_EQ(r->last, 999);

  r = parse_byte_range("bytes=-200", 1000);  // suffix
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->first, 800);
  EXPECT_EQ(r->last, 999);

  r = parse_byte_range("bytes=900-5000", 1000);  // clamp to body
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->last, 999);
}

TEST(ByteRange, ParseRejects) {
  EXPECT_FALSE(parse_byte_range("bytes=abc-", 1000).has_value());
  EXPECT_FALSE(parse_byte_range("items=0-5", 1000).has_value());
  EXPECT_FALSE(parse_byte_range("bytes=500-100", 1000).has_value());
  EXPECT_FALSE(parse_byte_range("bytes=0-10,20-30", 1000).has_value());  // multi
  EXPECT_FALSE(parse_byte_range("bytes=1000-", 1000).has_value());  // past end
  EXPECT_FALSE(parse_byte_range("bytes=-0", 1000).has_value());
  EXPECT_FALSE(parse_byte_range("bytes=0-", 0).has_value());  // empty body
}

TEST_F(WireFixture, RangeRequestGets206WithSlice) {
  HttpRequest req = HttpRequest::get("http://h.example/hello.txt");
  req.headers.set("Range", "bytes=6-9");
  std::optional<HttpResponse> resp;
  client->send(req, [&](const HttpResponse& r) { resp = r; });
  sim.run();
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, 206);
  EXPECT_EQ(resp->body, "wire");  // "hello wire world"[6..9]
  EXPECT_EQ(resp->headers.get_view("Content-Range"), "bytes 6-9/16");
}

TEST_F(WireFixture, RangeSlicesOfSynthesizedBodyConcatenate) {
  // Fetch a big object in two halves; together they equal the whole.
  std::string whole, first_half, second_half;
  client->send(HttpRequest::get("http://h.example/img/big.jpg"),
               [&](const HttpResponse& r) { whole = r.body; });
  HttpRequest lo = HttpRequest::get("http://h.example/img/big.jpg");
  lo.headers.set("Range", "bytes=0-24999");
  client->send(lo, [&](const HttpResponse& r) { first_half = r.body; });
  HttpRequest hi = HttpRequest::get("http://h.example/img/big.jpg");
  hi.headers.set("Range", "bytes=25000-");
  client->send(hi, [&](const HttpResponse& r) { second_half = r.body; });
  sim.run();
  ASSERT_EQ(whole.size(), 50'000u);
  EXPECT_EQ(first_half + second_half, whole);
}

TEST_F(WireFixture, UnsatisfiableRangeGets416) {
  HttpRequest req = HttpRequest::get("http://h.example/hello.txt");
  req.headers.set("Range", "bytes=99999-");
  std::optional<HttpResponse> resp;
  client->send(req, [&](const HttpResponse& r) { resp = r; });
  sim.run();
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, 416);
  EXPECT_EQ(resp->headers.get_view("Content-Range"), "bytes */16");
}

TEST_F(WireFixture, FullResponseAdvertisesAcceptRanges) {
  std::optional<HttpResponse> resp;
  client->send(HttpRequest::get("http://h.example/hello.txt"),
               [&](const HttpResponse& r) { resp = r; });
  sim.run();
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->headers.get_view("Accept-Ranges"), "bytes");
}

// ---------- conditional requests ----------

TEST(ObjectEtag, StableAndDiscriminating) {
  EXPECT_EQ(object_etag("/a", 100), object_etag("/a", 100));
  EXPECT_NE(object_etag("/a", 100), object_etag("/a", 101));
  EXPECT_NE(object_etag("/a", 100), object_etag("/b", 100));
  EXPECT_EQ(object_etag("/a", 100).front(), '"');
}

TEST_F(WireFixture, ConditionalRevalidationGets304) {
  std::optional<HttpResponse> first;
  client->send(HttpRequest::get("http://h.example/hello.txt"),
               [&](const HttpResponse& r) { first = r; });
  sim.run();
  ASSERT_TRUE(first.has_value());
  auto etag = first->headers.get_view("ETag");
  ASSERT_TRUE(etag.has_value());

  HttpRequest revalidate = HttpRequest::get("http://h.example/hello.txt");
  revalidate.headers.set("If-None-Match", *etag);
  std::optional<HttpResponse> second;
  client->send(revalidate, [&](const HttpResponse& r) { second = r; });
  sim.run();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->status, 304);
  EXPECT_TRUE(second->body.empty());
  EXPECT_EQ(second->headers.get_view("ETag"), *etag);
}

TEST_F(WireFixture, StaleEtagGetsFullResponse) {
  HttpRequest req = HttpRequest::get("http://h.example/hello.txt");
  req.headers.set("If-None-Match", "\"deadbeefdeadbeef\"");
  std::optional<HttpResponse> resp;
  client->send(req, [&](const HttpResponse& r) { resp = r; });
  sim.run();
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, 200);
  EXPECT_EQ(resp->body, "hello wire world");
}

TEST_F(WireFixture, WildcardIfNoneMatchGets304) {
  HttpRequest req = HttpRequest::get("http://h.example/hello.txt");
  req.headers.set("If-None-Match", "*");
  std::optional<HttpResponse> resp;
  client->send(req, [&](const HttpResponse& r) { resp = r; });
  sim.run();
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, 304);
}

// ---------- wire MITM proxy ----------

struct WireProxyFixture : public ::testing::Test {
  WireProxyFixture()
      : c2p(sim, fifo_link(1'000'000)),
        p2c(sim, fifo_link(200'000)),
        p2s(sim, fifo_link(5'000'000)),
        s2p(sim, fifo_link(5'000'000)),
        client_channel(sim, &c2p, &p2c),
        upstream_channel(sim, &p2s, &s2p) {
    store.put_body("/a.txt", "payload-a", "text/plain");
    store.put_body("/b.txt", "payload-b", "text/plain");
    store.put_body("/low.jpg", "lowres", "image/jpeg");
    server.emplace(&store, &upstream_channel.a_to_b(), &upstream_channel.b_to_a());
    proxy.emplace(&client_channel.a_to_b(), &client_channel.b_to_a(),
                  &upstream_channel.a_to_b(), &upstream_channel.b_to_a());
    client.emplace(&client_channel.a_to_b(), &client_channel.b_to_a());
  }

  Simulator sim;
  Link c2p, p2c, p2s, s2p;
  DuplexChannel client_channel, upstream_channel;
  ObjectStore store;
  std::optional<WireHttpServer> server;
  std::optional<WireMitmProxy> proxy;
  std::optional<WireHttpClient> client;
};

TEST_F(WireProxyFixture, PassThrough) {
  std::optional<HttpResponse> resp;
  client->send(HttpRequest::get("http://o.example/a.txt"),
               [&](const HttpResponse& r) { resp = r; });
  sim.run();
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, 200);
  EXPECT_EQ(resp->body, "payload-a");
  EXPECT_EQ(proxy->requests_proxied(), 1u);
}

class OneRuleInterceptor : public Interceptor {
 public:
  explicit OneRuleInterceptor(InterceptDecision d) : decision_(d) {}
  InterceptDecision on_request(const HttpRequest& req) override {
    auto url = req.url();
    if (url && url->path == "/a.txt") return decision_;
    return InterceptDecision::allow();
  }
  InterceptDecision decision_;
};

TEST_F(WireProxyFixture, BlockedGets403) {
  OneRuleInterceptor rule(InterceptDecision::block());
  proxy->set_interceptor(&rule);
  std::optional<HttpResponse> ra, rb;
  client->send(HttpRequest::get("http://o.example/a.txt"),
               [&](const HttpResponse& r) { ra = r; });
  client->send(HttpRequest::get("http://o.example/b.txt"),
               [&](const HttpResponse& r) { rb = r; });
  sim.run();
  ASSERT_TRUE(ra.has_value());
  EXPECT_EQ(ra->status, 403);
  ASSERT_TRUE(rb.has_value());
  EXPECT_EQ(rb->status, 200);  // connection continues after the block
  EXPECT_EQ(proxy->requests_blocked(), 1u);
}

TEST_F(WireProxyFixture, RewriteServesOtherObject) {
  OneRuleInterceptor rule(
      InterceptDecision::rewrite("http://o.example/low.jpg"));
  proxy->set_interceptor(&rule);
  std::optional<HttpResponse> resp;
  client->send(HttpRequest::get("http://o.example/a.txt"),
               [&](const HttpResponse& r) { resp = r; });
  sim.run();
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->body, "lowres");
}

TEST_F(WireProxyFixture, DeferStallsConnectionUntilRelease) {
  OneRuleInterceptor rule(InterceptDecision::defer());
  proxy->set_interceptor(&rule);
  std::optional<HttpResponse> ra, rb;
  client->send(HttpRequest::get("http://o.example/a.txt"),
               [&](const HttpResponse& r) { ra = r; });
  client->send(HttpRequest::get("http://o.example/b.txt"),
               [&](const HttpResponse& r) { rb = r; });
  sim.run_until(3000);
  EXPECT_FALSE(ra.has_value());
  EXPECT_FALSE(rb.has_value());  // head-of-line: serial connection stalls
  ASSERT_TRUE(proxy->deferred_url().has_value());
  EXPECT_EQ(*proxy->deferred_url(), "http://o.example/a.txt");

  EXPECT_TRUE(proxy->release("http://o.example/a.txt"));
  sim.run();
  ASSERT_TRUE(ra.has_value());
  EXPECT_EQ(ra->body, "payload-a");
  ASSERT_TRUE(rb.has_value());
  EXPECT_EQ(rb->body, "payload-b");
}

TEST_F(WireProxyFixture, ReleaseWrongUrlFails) {
  OneRuleInterceptor rule(InterceptDecision::defer());
  proxy->set_interceptor(&rule);
  client->send(HttpRequest::get("http://o.example/a.txt"),
               [](const HttpResponse&) {});
  sim.run_until(100);
  EXPECT_FALSE(proxy->release("http://o.example/other"));
  EXPECT_TRUE(proxy->deferred_url().has_value());
}

// ---------- LruCache ----------

TEST(LruCache, PutGetRoundTrip) {
  LruCache cache(1000);
  EXPECT_TRUE(cache.put("u1", {400, 200, "image/jpeg"}, 0));
  auto hit = cache.lookup("u1", 0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->freshness, HttpCache::Freshness::kFresh);
  EXPECT_EQ(hit->object.size, 400);
  EXPECT_EQ(hit->object.content_type, "image/jpeg");
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_FALSE(cache.lookup("u2", 0).has_value());
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(LruCache, EvictsLeastRecentlyUsed) {
  LruCache cache(1000);
  cache.put("a", {400, 200, ""}, 0);
  cache.put("b", {400, 200, ""}, 0);
  cache.lookup("a", 0);            // a is now most recent
  cache.put("c", {400, 200, ""}, 0);  // must evict b
  EXPECT_TRUE(cache.contains("a"));
  EXPECT_FALSE(cache.contains("b"));
  EXPECT_TRUE(cache.contains("c"));
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_LE(cache.bytes_used(), 1000);
}

TEST(LruCache, RejectsOversizedObject) {
  LruCache cache(100);
  EXPECT_FALSE(cache.put("huge", {101, 200, ""}, 0));
  EXPECT_EQ(cache.entry_count(), 0u);
  EXPECT_TRUE(cache.put("fits", {100, 200, ""}, 0));
}

TEST(LruCache, OverwriteReplacesSize) {
  LruCache cache(1000);
  cache.put("a", {600, 200, ""}, 0);
  cache.put("a", {200, 200, ""}, 0);
  EXPECT_EQ(cache.bytes_used(), 200);
  EXPECT_EQ(cache.entry_count(), 1u);
}

TEST(LruCache, EraseAndClear) {
  LruCache cache(1000);
  cache.put("a", {100, 200, ""}, 0);
  cache.put("b", {100, 200, ""}, 0);
  EXPECT_TRUE(cache.erase("a"));
  EXPECT_FALSE(cache.erase("a"));
  EXPECT_EQ(cache.bytes_used(), 100);
  cache.clear();
  EXPECT_EQ(cache.entry_count(), 0u);
  EXPECT_EQ(cache.bytes_used(), 0);
}

TEST(LruCache, ManyInsertsRespectCapacity) {
  LruCache cache(10'000);
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    cache.put("u" + std::to_string(i), {rng.uniform_int(100, 3000), 200, ""}, 0);
    EXPECT_LE(cache.bytes_used(), 10'000);
  }
}

// ---------- cache wired into the event-level proxy ----------

TEST(ProxyCache, SecondFetchSkipsUpstream) {
  Simulator sim;
  Link::Params cp;
  cp.bandwidth = BandwidthTrace::constant(200'000);
  Link client_link(sim, cp);
  Link::Params sp;
  sp.bandwidth = BandwidthTrace::constant(50'000);  // slow origin hop
  sp.latency_ms = 100;
  Link server_link(sim, sp);
  ObjectStore store;
  store.put("/x.jpg", 30'000, "image/jpeg");
  SimHttpOrigin origin(sim, &store, &server_link);
  MitmProxy proxy(sim, &origin, &client_link);
  LruCache cache(1'000'000);
  proxy.set_cache(&cache);

  TimeMs first = -1, second = -1;
  FetchCallbacks c1;
  c1.on_complete = [&](const FetchResult& r) { first = r.latency_ms(); };
  proxy.fetch(HttpRequest::get("http://o.example/x.jpg"), std::move(c1));
  sim.run();
  ASSERT_GT(first, 0);
  EXPECT_TRUE(cache.contains("http://o.example/x.jpg"));

  Bytes upstream_after_first = server_link.bytes_delivered_total();
  TimeMs t0 = sim.now();
  FetchCallbacks c2;
  c2.on_complete = [&](const FetchResult& r) { second = r.complete_ms - t0; };
  proxy.fetch(HttpRequest::get("http://o.example/x.jpg"), std::move(c2));
  sim.run();
  ASSERT_GT(second, 0);
  // The cut-through proxy hides origin latency from the client either way;
  // the cache's win is that the second fetch moves ZERO upstream bytes.
  EXPECT_EQ(server_link.bytes_delivered_total(), upstream_after_first);
  EXPECT_EQ(proxy.stats().cache_hits, 1u);
  EXPECT_EQ(proxy.stats().bytes_from_upstream_saved, 30'000);
  // And it is at least as fast for the client.
  EXPECT_LE(second, first + 10);
}

TEST(ProxyCache, BlockedAndErrorResponsesNotCached) {
  Simulator sim;
  Link client_link(sim, Link::Params{});
  Link server_link(sim, Link::Params{});
  ObjectStore store;  // empty: everything 404s
  SimHttpOrigin origin(sim, &store, &server_link);
  MitmProxy proxy(sim, &origin, &client_link);
  LruCache cache(1'000'000);
  proxy.set_cache(&cache);

  FetchCallbacks cbs;
  cbs.on_complete = [](const FetchResult&) {};
  proxy.fetch(HttpRequest::get("http://o.example/missing"), std::move(cbs));
  sim.run();
  EXPECT_FALSE(cache.contains("http://o.example/missing"));
}

}  // namespace
}  // namespace mfhttp
