// Tests for the simulated HTTP origin and the MITM proxy: timing, streaming,
// interception (allow/block/defer/rewrite), release, and stats.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "fault/fault_plan.h"
#include "fault/faulty_fetcher.h"
#include "http/proxy.h"
#include "http/sim_http.h"

namespace mfhttp {
namespace {

struct ProxyFixture : public ::testing::Test {
  void SetUp() override {
    Link::Params server_params;
    server_params.bandwidth = BandwidthTrace::constant(1'000'000);
    server_params.latency_ms = 2;
    server_link.emplace(sim, server_params);

    Link::Params client_params;
    client_params.bandwidth = BandwidthTrace::constant(100'000);  // bottleneck
    client_params.latency_ms = 5;
    client_params.sharing = Link::Sharing::kFairShare;
    client_link.emplace(sim, client_params);

    store.put("/img/a.jpg", 50'000, "image/jpeg");
    store.put("/img/b.jpg", 20'000, "image/jpeg");
    store.put("/img/a_low.jpg", 5'000, "image/jpeg");
    origin.emplace(sim, &store, &*server_link);
    proxy.emplace(sim, &*origin, &*client_link);
  }

  FetchResult fetch_and_wait(const std::string& url) {
    std::optional<FetchResult> out;
    FetchCallbacks cbs;
    cbs.on_complete = [&](const FetchResult& r) { out = r; };
    proxy->fetch(HttpRequest::get(url), std::move(cbs));
    sim.run();
    EXPECT_TRUE(out.has_value());
    return *out;
  }

  Simulator sim;
  ObjectStore store;
  std::optional<Link> server_link;
  std::optional<Link> client_link;
  std::optional<SimHttpOrigin> origin;
  std::optional<MitmProxy> proxy;
};

// ---------- SimHttpOrigin ----------

TEST_F(ProxyFixture, OriginServesKnownObject) {
  std::optional<FetchResult> out;
  std::optional<SimResponseMeta> meta;
  FetchCallbacks cbs;
  cbs.on_headers = [&](const SimResponseMeta& m) { meta = m; };
  cbs.on_complete = [&](const FetchResult& r) { out = r; };
  origin->fetch(HttpRequest::get("http://site.example/img/a.jpg"), std::move(cbs));
  sim.run();
  ASSERT_TRUE(meta.has_value());
  EXPECT_EQ(meta->status, 200);
  EXPECT_EQ(meta->body_size, 50'000);
  EXPECT_EQ(meta->content_type, "image/jpeg");
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->status, 200);
  EXPECT_EQ(out->body_size, 50'000);
  // 50 KB at 1 MB/s over the server link: ~50 ms + delays.
  EXPECT_GT(out->complete_ms, 50);
  EXPECT_LT(out->complete_ms, 120);
}

TEST_F(ProxyFixture, OriginReturns404ForUnknown) {
  std::optional<FetchResult> out;
  FetchCallbacks cbs;
  cbs.on_complete = [&](const FetchResult& r) { out = r; };
  origin->fetch(HttpRequest::get("http://site.example/nope"), std::move(cbs));
  sim.run();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->status, 404);
  EXPECT_GT(out->body_size, 0);  // small error body
}

TEST_F(ProxyFixture, OriginCancelStopsCallbacks) {
  int calls = 0;
  FetchCallbacks cbs;
  cbs.on_progress = [&](Bytes, Bytes, Bytes) { ++calls; };
  cbs.on_complete = [&](const FetchResult&) { ++calls; };
  auto id = origin->fetch(HttpRequest::get("http://s.example/img/a.jpg"),
                          std::move(cbs));
  sim.schedule_at(1, [&] { EXPECT_TRUE(origin->cancel(id)); });
  sim.run();
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(origin->inflight(), 0u);
}

// ---------- MitmProxy: pass-through ----------

TEST_F(ProxyFixture, NoInterceptorPassesThrough) {
  FetchResult r = fetch_and_wait("http://site.example/img/b.jpg");
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.body_size, 20'000);
  EXPECT_FALSE(r.blocked);
  // Client link is the bottleneck: 20 KB at 100 KB/s ≈ 200 ms.
  EXPECT_GT(r.latency_ms(), 180);
  EXPECT_LT(r.latency_ms(), 280);
  EXPECT_EQ(proxy->stats().allowed, 1u);
}

TEST_F(ProxyFixture, ProgressStreamsIncrementally) {
  int progress_calls = 0;
  Bytes received = 0;
  FetchCallbacks cbs;
  cbs.on_progress = [&](Bytes chunk, Bytes cum, Bytes total) {
    ++progress_calls;
    received += chunk;
    EXPECT_EQ(cum, received);
    EXPECT_EQ(total, 20'000);
  };
  bool done = false;
  cbs.on_complete = [&](const FetchResult&) { done = true; };
  proxy->fetch(HttpRequest::get("http://s.example/img/b.jpg"), std::move(cbs));
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(received, 20'000);
  EXPECT_GT(progress_calls, 5);  // many quanta, not one lump
}

// ---------- MitmProxy: interception ----------

class ScriptedInterceptor : public Interceptor {
 public:
  explicit ScriptedInterceptor(InterceptDecision decision) : decision_(decision) {}
  InterceptDecision on_request(const HttpRequest&) override { return decision_; }
  void on_fetch_complete(const FetchResult& result) override {
    completed.push_back(result);
  }
  InterceptDecision decision_;
  std::vector<FetchResult> completed;
};

TEST_F(ProxyFixture, BlockedRequestFailsFast) {
  ScriptedInterceptor blocker(InterceptDecision::block());
  proxy->set_interceptor(&blocker);
  FetchResult r = fetch_and_wait("http://s.example/img/a.jpg");
  EXPECT_TRUE(r.blocked);
  EXPECT_EQ(r.status, 403);
  EXPECT_EQ(r.body_size, 0);
  EXPECT_LT(r.latency_ms(), 20);
  EXPECT_EQ(proxy->stats().blocked, 1u);
  EXPECT_EQ(client_link->bytes_delivered_total(), 0);
  ASSERT_EQ(blocker.completed.size(), 1u);
  EXPECT_TRUE(blocker.completed[0].blocked);
}

TEST_F(ProxyFixture, DeferredRequestParksUntilRelease) {
  ScriptedInterceptor deferrer(InterceptDecision::defer());
  proxy->set_interceptor(&deferrer);
  std::optional<FetchResult> out;
  FetchCallbacks cbs;
  cbs.on_complete = [&](const FetchResult& r) { out = r; };
  proxy->fetch(HttpRequest::get("http://s.example/img/b.jpg"), std::move(cbs));
  sim.run_until(5000);
  EXPECT_FALSE(out.has_value());  // parked
  EXPECT_EQ(proxy->deferred_depth(), 1u);
  EXPECT_EQ(proxy->release("http://s.example/img/a.jpg"), 0u);  // not parked

  EXPECT_EQ(proxy->release("http://s.example/img/b.jpg"), 1u);
  sim.run();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->status, 200);
  EXPECT_EQ(out->body_size, 20'000);
  EXPECT_GE(out->complete_ms, 5000);  // served only after release
  EXPECT_EQ(proxy->stats().deferred, 1u);
  EXPECT_EQ(proxy->stats().released, 1u);
}

TEST_F(ProxyFixture, ReleaseUnknownUrlIsNoop) {
  EXPECT_EQ(proxy->release("http://s.example/none"), 0u);
}

TEST_F(ProxyFixture, RewriteFetchesDifferentObject) {
  ScriptedInterceptor rewriter(
      InterceptDecision::rewrite("http://s.example/img/a_low.jpg"));
  proxy->set_interceptor(&rewriter);
  FetchResult r = fetch_and_wait("http://s.example/img/a.jpg");
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.body_size, 5'000);  // the low version's size
  EXPECT_EQ(proxy->stats().rewritten, 1u);
}

TEST_F(ProxyFixture, CancelInflightFetch) {
  bool any = false;
  FetchCallbacks cbs;
  cbs.on_complete = [&](const FetchResult&) { any = true; };
  auto id = proxy->fetch(HttpRequest::get("http://s.example/img/a.jpg"),
                         std::move(cbs));
  sim.schedule_at(50, [&] { EXPECT_TRUE(proxy->cancel(id)); });
  sim.run();
  EXPECT_FALSE(any);
}

TEST_F(ProxyFixture, MultipleDeferredSameUrlAllReleased) {
  ScriptedInterceptor deferrer(InterceptDecision::defer());
  proxy->set_interceptor(&deferrer);
  int completions = 0;
  for (int i = 0; i < 3; ++i) {
    FetchCallbacks cbs;
    cbs.on_complete = [&](const FetchResult&) { ++completions; };
    proxy->fetch(HttpRequest::get("http://s.example/img/b.jpg"), std::move(cbs));
  }
  sim.run_until(10);
  EXPECT_EQ(proxy->release("http://s.example/img/b.jpg"), 3u);
  sim.run();
  EXPECT_EQ(completions, 3);
}

TEST_F(ProxyFixture, ReleaseStartsDeferredFetchesInArrivalOrder) {
  // On a FIFO client link the fetches complete in the order release started
  // them: each URL's deferred fetches in arrival order, other URLs untouched.
  Link::Params fifo;
  fifo.bandwidth = BandwidthTrace::constant(100'000);
  fifo.sharing = Link::Sharing::kFifo;
  Link fifo_link(sim, fifo);
  MitmProxy fifo_proxy(sim, &*origin, &fifo_link);
  ScriptedInterceptor deferrer(InterceptDecision::defer());
  fifo_proxy.set_interceptor(&deferrer);

  // Park and release three fetches first, so the records below reuse freed
  // slots out of arrival order.
  const std::string low = "http://s.example/img/a_low.jpg";
  for (int i = 0; i < 3; ++i) {
    FetchCallbacks cbs;
    cbs.on_complete = [](const FetchResult&) {};
    fifo_proxy.fetch(HttpRequest::get(low), std::move(cbs));
  }
  EXPECT_EQ(fifo_proxy.release(low), 3u);
  sim.run();

  const std::string a = "http://s.example/img/a.jpg";
  const std::string b = "http://s.example/img/b.jpg";
  const std::vector<std::string> arrivals = {b, b, a, a, b};
  std::vector<int> completed;
  for (int i = 0; i < static_cast<int>(arrivals.size()); ++i) {
    FetchCallbacks cbs;
    cbs.on_complete = [&completed, i](const FetchResult&) { completed.push_back(i); };
    fifo_proxy.fetch(HttpRequest::get(arrivals[i]), std::move(cbs));
  }
  sim.run_until(sim.now() + 50);
  EXPECT_EQ(fifo_proxy.deferred_depth(), 5u);

  EXPECT_EQ(fifo_proxy.release(b), 3u);
  EXPECT_EQ(fifo_proxy.deferred_depth(), 2u);
  sim.run();
  EXPECT_EQ(completed, (std::vector<int>{0, 1, 4}));

  EXPECT_EQ(fifo_proxy.release(b), 0u);
  EXPECT_EQ(fifo_proxy.release(a), 2u);
  sim.run();
  EXPECT_EQ(completed, (std::vector<int>{0, 1, 4, 2, 3}));
  EXPECT_EQ(fifo_proxy.deferred_depth(), 0u);
}

TEST_F(ProxyFixture, ReleasePriorityReordersFifoLink) {
  // On a FIFO client link, a later high-priority release overtakes an
  // earlier low-priority one.
  Link::Params fifo;
  fifo.bandwidth = BandwidthTrace::constant(100'000);
  fifo.sharing = Link::Sharing::kFifo;
  Link fifo_link(sim, fifo);
  MitmProxy fifo_proxy(sim, &*origin, &fifo_link);
  class DeferAll : public Interceptor {
   public:
    InterceptDecision on_request(const HttpRequest&) override {
      return InterceptDecision::defer();
    }
  } defer_all;
  fifo_proxy.set_interceptor(&defer_all);

  TimeMs done_low = -1, done_high = -1;
  FetchCallbacks low;
  low.on_complete = [&](const FetchResult& r) { done_low = r.complete_ms; };
  fifo_proxy.fetch(HttpRequest::get("http://s.example/img/a.jpg"), std::move(low));
  FetchCallbacks high;
  high.on_complete = [&](const FetchResult& r) { done_high = r.complete_ms; };
  fifo_proxy.fetch(HttpRequest::get("http://s.example/img/b.jpg"), std::move(high));
  sim.run_until(50);
  // Release the earlier (bigger) one at low priority, the later one high.
  fifo_proxy.release("http://s.example/img/a.jpg", /*priority=*/1);
  fifo_proxy.release("http://s.example/img/b.jpg", /*priority=*/5);
  sim.run();
  ASSERT_GT(done_low, 0);
  ASSERT_GT(done_high, 0);
  EXPECT_LT(done_high, done_low);  // 20 KB jumps the 50 KB queue
}

TEST_F(ProxyFixture, StatsCountBytesToClient) {
  fetch_and_wait("http://s.example/img/b.jpg");
  EXPECT_EQ(proxy->stats().bytes_to_client, 20'000);
}

TEST_F(ProxyFixture, DeferredThenUpstreamDiesMidBodyCompletesOnceNon200) {
  // A request is deferred, released, and the origin connection then dies
  // mid-body: the client must see on_complete exactly once with a non-200
  // status, and nothing may leak in the proxy or upstream.
  fault::FaultPlan plan;
  plan.origin.abrupt_close_rate = 1.0;
  fault::FaultyFetcher flaky(sim, &*origin, plan);
  MitmProxy flaky_proxy(sim, &flaky, &*client_link);
  ScriptedInterceptor deferrer(InterceptDecision::defer());
  flaky_proxy.set_interceptor(&deferrer);

  int completes = 0;
  std::optional<FetchResult> out;
  FetchCallbacks cbs;
  cbs.on_complete = [&](const FetchResult& r) {
    ++completes;
    out = r;
  };
  flaky_proxy.fetch(HttpRequest::get("http://s.example/img/a.jpg"), std::move(cbs));
  sim.run_until(500);
  EXPECT_EQ(completes, 0);  // parked
  EXPECT_EQ(flaky_proxy.release("http://s.example/img/a.jpg"), 1u);
  sim.run();
  EXPECT_EQ(completes, 1);
  ASSERT_TRUE(out.has_value());
  EXPECT_NE(out->status, 200);
  EXPECT_FALSE(out->blocked);
  EXPECT_LT(out->body_size, 50'000);
  EXPECT_EQ(flaky_proxy.deferred_depth(), 0u);
  EXPECT_EQ(flaky.inflight(), 0u);
  EXPECT_EQ(origin->inflight(), 0u);
  // The interceptor still learned the outcome (policy bookkeeping).
  ASSERT_EQ(deferrer.completed.size(), 1u);
  EXPECT_NE(deferrer.completed[0].status, 200);
}

TEST_F(ProxyFixture, ConcurrentFetchesShareClientLink) {
  TimeMs done_a = -1, done_b = -1;
  FetchCallbacks ca;
  ca.on_complete = [&](const FetchResult& r) { done_a = r.complete_ms; };
  FetchCallbacks cb;
  cb.on_complete = [&](const FetchResult& r) { done_b = r.complete_ms; };
  proxy->fetch(HttpRequest::get("http://s.example/img/b.jpg"), std::move(ca));
  proxy->fetch(HttpRequest::get("http://s.example/img/b.jpg"), std::move(cb));
  sim.run();
  // Two 20 KB objects over a shared 100 KB/s fair-share link: both ≈ 400 ms,
  // far beyond the 200 ms a lone transfer would take.
  EXPECT_GT(done_a, 330);
  EXPECT_GT(done_b, 330);
}

// ---------- re-entrancy: callbacks that tear down their own fetch ----------
// The per-fetch state lives in the hop's record, and a callback is moved out
// of it for the call, so a callback that cancels its own fetch must neither
// see another callback nor outlive its own captures (sanitize job).

TEST_F(ProxyFixture, OriginHeadersCallbackMayCancelItsOwnFetch) {
  int headers = 0, progress = 0, completes = 0;
  HttpFetcher::FetchId id = HttpFetcher::kInvalidFetch;
  FetchCallbacks cbs;
  cbs.on_headers = [&](const SimResponseMeta&) {
    EXPECT_TRUE(origin->cancel(id));
    ++headers;  // captures are still alive after the cancel
  };
  cbs.on_progress = [&](Bytes, Bytes, Bytes) { ++progress; };
  cbs.on_complete = [&](const FetchResult&) { ++completes; };
  id = origin->fetch(HttpRequest::get("http://site.example/img/a.jpg"), std::move(cbs));
  sim.run();
  EXPECT_EQ(headers, 1);
  EXPECT_EQ(progress, 0);
  EXPECT_EQ(completes, 0);
  EXPECT_EQ(origin->inflight(), 0u);
  EXPECT_EQ(server_link->active_transfers(), 0u);
}

TEST_F(ProxyFixture, OriginFinalProgressCallbackMayCancelItsOwnFetch) {
  store.put("/img/tiny.jpg", 100, "image/jpeg");  // one chunk, marked final
  int progress = 0, completes = 0;
  HttpFetcher::FetchId id = HttpFetcher::kInvalidFetch;
  FetchCallbacks cbs;
  cbs.on_progress = [&](Bytes, Bytes, Bytes) {
    origin->cancel(id);
    ++progress;
  };
  cbs.on_complete = [&](const FetchResult&) { ++completes; };
  id = origin->fetch(HttpRequest::get("http://site.example/img/tiny.jpg"),
                     std::move(cbs));
  sim.run();
  EXPECT_EQ(progress, 1);
  EXPECT_EQ(completes, 0);  // cancelled: no further callbacks
  EXPECT_EQ(origin->inflight(), 0u);
}

TEST_F(ProxyFixture, ProxyProgressCallbackMayCancelItsOwnFetch) {
  int progress = 0, completes = 0;
  HttpFetcher::FetchId id = HttpFetcher::kInvalidFetch;
  FetchCallbacks cbs;
  cbs.on_progress = [&](Bytes, Bytes, Bytes) {
    EXPECT_TRUE(proxy->cancel(id));
    ++progress;  // captures are still alive after the cancel
  };
  cbs.on_complete = [&](const FetchResult&) { ++completes; };
  id = proxy->fetch(HttpRequest::get("http://s.example/img/a.jpg"), std::move(cbs));
  sim.run();
  EXPECT_EQ(progress, 1);
  EXPECT_EQ(completes, 0);
  EXPECT_EQ(origin->inflight(), 0u);
  EXPECT_EQ(client_link->active_transfers(), 0u);
  EXPECT_EQ(server_link->active_transfers(), 0u);
}

TEST_F(ProxyFixture, ProxyFinalProgressCallbackMayCancelItsOwnFetch) {
  store.put("/img/tiny.jpg", 100, "image/jpeg");
  int progress = 0, completes = 0;
  HttpFetcher::FetchId id = HttpFetcher::kInvalidFetch;
  FetchCallbacks cbs;
  cbs.on_progress = [&](Bytes, Bytes, Bytes) {
    EXPECT_TRUE(proxy->cancel(id));
    ++progress;
  };
  cbs.on_complete = [&](const FetchResult&) { ++completes; };
  id = proxy->fetch(HttpRequest::get("http://s.example/img/tiny.jpg"), std::move(cbs));
  sim.run();
  EXPECT_EQ(progress, 1);
  EXPECT_EQ(completes, 0);
  EXPECT_EQ(origin->inflight(), 0u);
}

TEST_F(ProxyFixture, CompletionCallbackMayIssueANewFetchOnTheSameProxy) {
  LruCache cache(1'000'000);
  proxy->set_cache(&cache);
  std::vector<FetchResult> results;
  FetchCallbacks first;
  first.on_complete = [&](const FetchResult& r) {
    results.push_back(r);
    // Same URL again: the response was admitted before this callback ran,
    // so the follow-up is a cache hit.
    FetchCallbacks again;
    again.on_complete = [&](const FetchResult& r2) { results.push_back(r2); };
    proxy->fetch(HttpRequest::get("http://s.example/img/b.jpg"), std::move(again));
  };
  proxy->fetch(HttpRequest::get("http://s.example/img/b.jpg"), std::move(first));
  sim.run();
  ASSERT_EQ(results.size(), 2u);
  for (const FetchResult& r : results) {
    EXPECT_EQ(r.url, "http://s.example/img/b.jpg");
    EXPECT_EQ(r.status, 200);
    EXPECT_EQ(r.body_size, 20'000);
  }
  EXPECT_EQ(results[1].request_ms, results[0].complete_ms);
  EXPECT_EQ(proxy->stats().cache_hits, 1u);
  EXPECT_EQ(origin->inflight(), 0u);
  EXPECT_EQ(client_link->active_transfers(), 0u);
}

}  // namespace
}  // namespace mfhttp
