// Tests for the validating HTTP cache (http/cache.h) and its proxy
// integration: TTL-vs-ETag precedence, the stale-while-revalidate window,
// cost-aware admission under eviction pressure, prefetch usefulness/waste
// accounting, the 304 revalidation paths through MitmProxy, and the
// "cache hits are free" invariants — a hit moves zero bytes on the server
// link, consumes no admission tokens, and never takes an upstream slot.
// Also the plain LRU cache (LruCache) on its own and behind the event-level
// proxy.
#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "http/cache.h"
#include "http/fetch_pipeline.h"
#include "http/proxy.h"
#include "http/sim_http.h"
#include "obs/metrics.h"
#include "overload/admission.h"
#include "util/rng.h"

namespace mfhttp {
namespace {

// The cache key of `url` in the key space of `owner` (a cache or ghost list).
template <class Owner>
UrlId key(Owner& owner, std::string_view url) {
  return owner.urls().intern(url);
}

CachedObject cached(Bytes size, std::string etag = "", TimeMs ttl_ms = 0) {
  return CachedObject{size, 200, "image/jpeg", std::move(etag), ttl_ms};
}

// ---------- HttpCache: TTL freshness and ETag precedence ----------

TEST(HttpCacheTest, TtlTakesPrecedenceOverEtag) {
  HttpCache cache(CacheParams{1'000'000});
  cache.put(key(cache, "u"), cached(1'000, "\"v1\"", 100), 0);

  // Within the TTL the entry is fresh: no revalidation wanted, etag or not.
  auto hit = cache.lookup(key(cache, "u"), 50);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->freshness, HttpCache::Freshness::kFresh);
  EXPECT_FALSE(hit->revalidatable);

  // Freshness boundary is exclusive: fresh at 99, stale at exactly 100.
  EXPECT_EQ(cache.lookup(key(cache, "u"), 99)->freshness, HttpCache::Freshness::kFresh);
  auto stale = cache.lookup(key(cache, "u"), 100);
  ASSERT_TRUE(stale.has_value());
  EXPECT_EQ(stale->freshness, HttpCache::Freshness::kStale);
  // Past the TTL the etag makes the entry revalidatable instead of dead.
  EXPECT_TRUE(stale->revalidatable);
}

TEST(HttpCacheTest, StaleWithoutEtagIsNotRevalidatable) {
  HttpCache cache(CacheParams{1'000'000});
  cache.put(key(cache, "u"), cached(1'000, "", 100), 0);
  auto stale = cache.lookup(key(cache, "u"), 200);
  ASSERT_TRUE(stale.has_value());
  EXPECT_EQ(stale->freshness, HttpCache::Freshness::kStale);
  EXPECT_FALSE(stale->revalidatable);
}

TEST(HttpCacheTest, ZeroTtlIsImmortalAndDefaultTtlApplies) {
  CacheParams params;
  params.capacity_bytes = 1'000'000;
  params.default_ttl_ms = 50;
  HttpCache cache(params);
  // Explicit TTL wins over the default; ttl 0 inherits the default.
  cache.put(key(cache, "explicit"), cached(100, "", 1'000), 0);
  cache.put(key(cache, "defaulted"), cached(100), 0);
  EXPECT_TRUE(cache.has_fresh(key(cache, "explicit"), 500));
  EXPECT_FALSE(cache.has_fresh(key(cache, "defaulted"), 500));

  // With no default either, entries never go stale.
  HttpCache immortal(CacheParams{1'000'000});
  immortal.put(key(immortal, "u"), cached(100), 0);
  EXPECT_TRUE(immortal.has_fresh(key(immortal, "u"), 1'000'000'000));
}

// ---------- HttpCache: stale-while-revalidate window ----------

TEST(HttpCacheTest, SwrWindowBoundaries) {
  CacheParams params;
  params.capacity_bytes = 1'000'000;
  params.stale_while_revalidate_ms = 50;
  HttpCache cache(params);
  cache.put(key(cache, "u"), cached(1'000, "\"v1\"", 100), 0);

  // Expired at 100; servable-while-revalidating until (exclusive) 150.
  auto inside = cache.lookup(key(cache, "u"), 100);
  ASSERT_TRUE(inside.has_value());
  EXPECT_EQ(inside->freshness, HttpCache::Freshness::kStale);
  EXPECT_TRUE(inside->within_swr);

  auto edge = cache.lookup(key(cache, "u"), 149);
  ASSERT_TRUE(edge.has_value());
  EXPECT_TRUE(edge->within_swr);

  auto beyond = cache.lookup(key(cache, "u"), 150);
  ASSERT_TRUE(beyond.has_value());
  EXPECT_FALSE(beyond->within_swr);
  EXPECT_TRUE(beyond->revalidatable);  // blocking conditional GET territory

  // Stats: stale-inside-SWR lookups count as hits (client got bytes now);
  // the beyond-SWR lookup counted expired but not hit.
  const HttpCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.stale_served, 2u);
  EXPECT_EQ(stats.expired, 3u);
}

TEST(HttpCacheTest, SwrDisabledMeansNoStaleServing) {
  HttpCache cache(CacheParams{1'000'000});  // swr 0
  cache.put(key(cache, "u"), cached(1'000, "\"v1\"", 100), 0);
  auto stale = cache.lookup(key(cache, "u"), 101);
  ASSERT_TRUE(stale.has_value());
  EXPECT_FALSE(stale->within_swr);
}

// ---------- HttpCache: revalidated() ----------

TEST(HttpCacheTest, RevalidatedRestartsTtlClock) {
  HttpCache cache(CacheParams{1'000'000});
  cache.put(key(cache, "u"), cached(1'000, "\"v1\"", 100), 0);
  EXPECT_FALSE(cache.has_fresh(key(cache, "u"), 150));
  EXPECT_TRUE(cache.revalidated(key(cache, "u"), 150));
  EXPECT_TRUE(cache.has_fresh(key(cache, "u"), 200));   // fresh until 250 now
  EXPECT_FALSE(cache.has_fresh(key(cache, "u"), 250));
  EXPECT_EQ(cache.stats().revalidations, 1u);
  EXPECT_FALSE(cache.revalidated(key(cache, "gone"), 0));
}

// ---------- HttpCache: eviction and cost-aware admission ----------

TEST(HttpCacheTest, PlainLruEvictsLeastRecentlyUsed) {
  HttpCache cache(CacheParams{100});
  cache.put(key(cache, "x"), cached(60), 0);
  cache.put(key(cache, "y"), cached(40), 0);
  ASSERT_TRUE(cache.lookup(key(cache, "x"), 0).has_value());  // x is now most recent
  EXPECT_TRUE(cache.put(key(cache, "z"), cached(40), 0));
  EXPECT_TRUE(cache.contains(key(cache, "x")));
  EXPECT_FALSE(cache.contains(key(cache, "y")));
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(HttpCacheTest, CostAwareAdmissionProtectsHotEntries) {
  CacheParams params;
  params.capacity_bytes = 100'000;
  params.cost_aware_admission = true;
  HttpCache cache(params);
  cache.put(key(cache, "hot_a"), cached(50'000), 0);
  cache.put(key(cache, "hot_b"), cached(50'000), 0);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(cache.lookup(key(cache, "hot_a"), 0).has_value());
    ASSERT_TRUE(cache.lookup(key(cache, "hot_b"), 0).has_value());
  }

  // One cold giant whose hit-per-byte density loses to either victim: the
  // put is refused and the hot set survives.
  EXPECT_FALSE(cache.put(key(cache, "cold_giant"), cached(60'000), 0));
  EXPECT_EQ(cache.stats().admission_rejected, 1u);
  EXPECT_TRUE(cache.contains(key(cache, "hot_a")));
  EXPECT_TRUE(cache.contains(key(cache, "hot_b")));

  // Misses build ghost frequency; a genuinely demanded object earns its way
  // in even though it must evict the hot entries.
  for (int i = 0; i < 5; ++i)
    EXPECT_FALSE(cache.lookup(key(cache, "cold_giant"), 0).has_value());
  EXPECT_TRUE(cache.put(key(cache, "cold_giant"), cached(60'000), 0));
  EXPECT_TRUE(cache.contains(key(cache, "cold_giant")));
  EXPECT_GE(cache.stats().evictions, 1u);
}

TEST(HttpCacheTest, WithoutCostAwarenessColdGiantFlushesHotSet) {
  // Control arm for the test above: plain LRU admits the same cold giant
  // immediately.
  HttpCache cache(CacheParams{100'000});
  cache.put(key(cache, "hot_a"), cached(50'000), 0);
  cache.put(key(cache, "hot_b"), cached(50'000), 0);
  for (int i = 0; i < 3; ++i)
    ASSERT_TRUE(cache.lookup(key(cache, "hot_a"), 0).has_value());
  EXPECT_TRUE(cache.put(key(cache, "cold_giant"), cached(60'000), 0));
  EXPECT_FALSE(cache.contains(key(cache, "hot_b")));
}

TEST(HttpCacheTest, MaxObjectFractionRejectsOversized) {
  CacheParams params;
  params.capacity_bytes = 100'000;
  params.max_object_fraction = 0.25;
  HttpCache cache(params);
  EXPECT_FALSE(cache.put(key(cache, "big"), cached(25'001), 0));
  EXPECT_TRUE(cache.put(key(cache, "ok"), cached(25'000), 0));
}

// ---------- HttpCache: prefetch usefulness / waste accounting ----------

TEST(HttpCacheTest, PrefetchedEntryHitCountsUseful) {
  HttpCache cache(CacheParams{20'000});
  cache.put(key(cache, "warm"), cached(10'000), 0, /*prefetched=*/true);
  EXPECT_EQ(cache.stats().prefetch_insertions, 1u);
  EXPECT_EQ(cache.prefetched_unused_bytes(), 10'000);

  ASSERT_TRUE(cache.lookup(key(cache, "warm"), 0).has_value());
  EXPECT_EQ(cache.stats().prefetch_useful, 1u);
  EXPECT_EQ(cache.prefetched_unused_bytes(), 0);

  // Once useful, later eviction does not count it as waste: demand traffic
  // pushes it out.
  cache.put(key(cache, "demand_a"), cached(10'000), 0);
  cache.put(key(cache, "demand_b"), cached(10'000), 0);
  EXPECT_FALSE(cache.contains(key(cache, "warm")));
  EXPECT_EQ(cache.stats().prefetch_wasted_bytes, 0);
}

TEST(HttpCacheTest, UnhitPrefetchCountsWastedOnEviction) {
  HttpCache cache(CacheParams{20'000});
  cache.put(key(cache, "wrong_guess"), cached(10'000), 0, /*prefetched=*/true);
  // Demand traffic pushes the unhit speculation out.
  cache.put(key(cache, "demand_a"), cached(10'000), 0);
  cache.put(key(cache, "demand_b"), cached(10'000), 0);
  EXPECT_FALSE(cache.contains(key(cache, "wrong_guess")));
  EXPECT_EQ(cache.stats().prefetch_wasted_bytes, 10'000);
  EXPECT_EQ(cache.stats().prefetch_useful, 0u);
}

// ---------- MitmProxy integration ----------

struct CacheProxyFixture : public ::testing::Test {
  void SetUp() override { obs::metrics().reset(); }

  // Assembles origin -> proxy with `cache_params` and an optional admission
  // controller, via the one canonical wiring path (FetchPipelineBuilder).
  void build(CacheParams cache_params,
             std::optional<overload::AdmissionParams> admission = std::nullopt) {
    Link::Params server_params;
    server_params.bandwidth = BandwidthTrace::constant(1'000'000);
    server_params.latency_ms = 2;
    server_link.emplace(sim, server_params);

    store.put("/img/a.jpg", 50'000, "image/jpeg");
    store.put("/img/b.jpg", 20'000, "image/jpeg");
    store.put("/img/c.jpg", 20'000, "image/jpeg");
    origin.emplace(sim, &store, &*server_link);

    Link::Params client_params;
    client_params.bandwidth = BandwidthTrace::constant(1'000'000);
    client_params.latency_ms = 5;

    FetchPipelineBuilder builder(sim, &*origin);
    builder.client_link(client_params).with_cache(cache_params);
    if (admission.has_value()) builder.with_admission(*admission);
    pipeline = builder.build();
  }

  FetchResult fetch_and_wait(const std::string& url) {
    std::optional<FetchResult> out;
    FetchCallbacks cbs;
    cbs.on_complete = [&](const FetchResult& r) { out = r; };
    pipeline->proxy().fetch(HttpRequest::get(url), std::move(cbs));
    sim.run();
    EXPECT_TRUE(out.has_value());
    return out.value_or(FetchResult{});
  }

  Simulator sim;
  ObjectStore store;
  std::optional<Link> server_link;
  std::optional<SimHttpOrigin> origin;
  std::unique_ptr<FetchPipeline> pipeline;
};

// The "cache hits are free" invariants: a fresh hit moves zero bytes on the
// server link, consumes no admission tokens, and holds no upstream slot.
TEST_F(CacheProxyFixture, CacheHitMovesNoServerBytesTokensOrSlots) {
  overload::AdmissionParams admission_params;
  admission_params.global_rate_per_s = 0.0001;  // effectively no refill
  admission_params.global_burst = 2;            // two misses' worth of tokens
  admission_params.max_inflight_upstream = 1;
  build(CacheParams{1'000'000}, admission_params);
  MitmProxy& proxy = pipeline->proxy();
  overload::AdmissionController& admission = *pipeline->admission();

  // Miss: spends one token and holds the (only) upstream slot while active.
  FetchCallbacks miss_cbs;
  miss_cbs.on_complete = [](const FetchResult&) {};
  proxy.fetch(HttpRequest::get("http://site.example/img/a.jpg"),
              std::move(miss_cbs));
  EXPECT_EQ(admission.inflight_upstream(), 1);
  sim.run();
  EXPECT_EQ(admission.inflight_upstream(), 0);
  const Bytes server_bytes_after_miss = server_link->bytes_delivered_total();
  EXPECT_GT(server_bytes_after_miss, 0);

  // Two hits: zero new server-link bytes, no upstream slot ever taken.
  for (int i = 0; i < 2; ++i) {
    std::optional<FetchResult> out;
    FetchCallbacks cbs;
    cbs.on_complete = [&](const FetchResult& r) { out = r; };
    proxy.fetch(HttpRequest::get("http://site.example/img/a.jpg"),
                std::move(cbs));
    // serve_from_cache starts synchronously; the slot was never acquired.
    EXPECT_EQ(admission.inflight_upstream(), 0);
    sim.run();
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->status, 200);
    EXPECT_EQ(out->body_size, 50'000);
  }
  EXPECT_EQ(server_link->bytes_delivered_total(), server_bytes_after_miss);
  EXPECT_EQ(proxy.stats().cache_hits, 2u);
  EXPECT_EQ(proxy.stats().bytes_from_upstream_saved, 100'000);

  // The hits took no tokens: the second (and last) token still buys a miss…
  EXPECT_EQ(fetch_and_wait("http://site.example/img/b.jpg").status, 200);
  EXPECT_EQ(proxy.stats().rejected, 0u);
  // …and only then is the bucket empty (proves the token supply was finite,
  // i.e. the hit fetches above would have drained it had they charged it).
  FetchResult starved = fetch_and_wait("http://site.example/img/c.jpg");
  EXPECT_EQ(starved.status, 429);
  EXPECT_TRUE(starved.rejected);
  EXPECT_EQ(proxy.stats().rejected, 1u);
}

TEST_F(CacheProxyFixture, ExpiredEntryRevalidatesWith304AndNoBodyBytes) {
  CacheParams params;
  params.capacity_bytes = 1'000'000;
  params.default_ttl_ms = 1'000;  // swr 0: stale means blocking conditional GET
  build(params);
  MitmProxy& proxy = pipeline->proxy();

  EXPECT_EQ(fetch_and_wait("http://site.example/img/a.jpg").status, 200);
  const Bytes server_bytes = server_link->bytes_delivered_total();

  // Let the entry expire, then fetch again: If-None-Match -> 304 -> the
  // cached bytes stream to the client, the server link moves nothing.
  std::optional<FetchResult> out;
  sim.schedule_at(sim.now() + 1'500, [&] {
    FetchCallbacks cbs;
    cbs.on_complete = [&](const FetchResult& r) { out = r; };
    proxy.fetch(HttpRequest::get("http://site.example/img/a.jpg"),
                std::move(cbs));
  });
  sim.run();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->status, 200);
  EXPECT_EQ(out->body_size, 50'000);
  EXPECT_EQ(proxy.stats().revalidations, 1u);
  EXPECT_EQ(server_link->bytes_delivered_total(), server_bytes);

  // The 304 restarted the TTL: an immediate third fetch is a plain hit.
  EXPECT_EQ(fetch_and_wait("http://site.example/img/a.jpg").status, 200);
  EXPECT_EQ(proxy.stats().cache_hits, 2u);  // 304 serve + fresh hit
}

TEST_F(CacheProxyFixture, ChangedContentRevalidatesWithFullBody) {
  CacheParams params;
  params.capacity_bytes = 1'000'000;
  params.default_ttl_ms = 1'000;
  build(params);
  MitmProxy& proxy = pipeline->proxy();

  EXPECT_EQ(fetch_and_wait("http://site.example/img/a.jpg").status, 200);
  const std::string old_etag =
      pipeline->cache()
          ->peek(key(*pipeline->cache(), "http://site.example/img/a.jpg"))
          ->etag;
  const Bytes server_bytes = server_link->bytes_delivered_total();

  // Content changes upstream: the conditional GET misses and a 200 body
  // replaces the cached entry.
  ASSERT_TRUE(store.bump("/img/a.jpg"));
  std::optional<FetchResult> out;
  sim.schedule_at(sim.now() + 1'500, [&] {
    FetchCallbacks cbs;
    cbs.on_complete = [&](const FetchResult& r) { out = r; };
    proxy.fetch(HttpRequest::get("http://site.example/img/a.jpg"),
                std::move(cbs));
  });
  sim.run();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->status, 200);
  EXPECT_EQ(out->body_size, 50'000);
  EXPECT_EQ(proxy.stats().revalidations, 0u);  // body refresh, not a 304
  EXPECT_EQ(server_link->bytes_delivered_total(), server_bytes + 50'000);
  const auto refreshed =
      pipeline->cache()->peek(key(*pipeline->cache(), "http://site.example/img/a.jpg"));
  ASSERT_TRUE(refreshed.has_value());
  EXPECT_NE(refreshed->etag, old_etag);
}

TEST_F(CacheProxyFixture, SwrServesStaleImmediatelyAndRefreshesInBackground) {
  CacheParams params;
  params.capacity_bytes = 1'000'000;
  params.default_ttl_ms = 500;
  params.stale_while_revalidate_ms = 10'000;
  build(params);
  MitmProxy& proxy = pipeline->proxy();

  EXPECT_EQ(fetch_and_wait("http://site.example/img/a.jpg").status, 200);
  const Bytes server_bytes = server_link->bytes_delivered_total();
  const TimeMs first_done = sim.now();

  // Inside the SWR window: served from cache at hit latency while a
  // background conditional GET refreshes the entry (304: headers only).
  std::optional<FetchResult> out;
  sim.schedule_at(first_done + 600, [&] {
    FetchCallbacks cbs;
    cbs.on_complete = [&](const FetchResult& r) { out = r; };
    proxy.fetch(HttpRequest::get("http://site.example/img/a.jpg"),
                std::move(cbs));
  });
  sim.run();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->status, 200);
  EXPECT_EQ(out->body_size, 50'000);
  EXPECT_EQ(proxy.stats().stale_served, 1u);
  EXPECT_EQ(proxy.stats().revalidations, 1u);
  EXPECT_EQ(server_link->bytes_delivered_total(), server_bytes);

  // The background 304 restarted the TTL: a fetch shortly after is fresh.
  std::optional<FetchResult> again;
  sim.schedule_at(sim.now() + 100, [&] {
    FetchCallbacks cbs;
    cbs.on_complete = [&](const FetchResult& r) { again = r; };
    proxy.fetch(HttpRequest::get("http://site.example/img/a.jpg"),
                std::move(cbs));
  });
  sim.run();
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->status, 200);
  EXPECT_EQ(proxy.stats().cache_hits, 2u);  // stale-served + this fresh hit
  EXPECT_EQ(server_link->bytes_delivered_total(), server_bytes);
}

// ---------- LruCache ----------

TEST(LruCache, PutGetRoundTrip) {
  LruCache cache(1000);
  EXPECT_TRUE(cache.put(key(cache, "u1"), {400, 200, "image/jpeg"}, 0));
  auto hit = cache.lookup(key(cache, "u1"), 0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->freshness, HttpCache::Freshness::kFresh);
  EXPECT_EQ(hit->object.size, 400);
  EXPECT_EQ(hit->object.content_type, "image/jpeg");
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_FALSE(cache.lookup(key(cache, "u2"), 0).has_value());
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(LruCache, EvictsLeastRecentlyUsed) {
  LruCache cache(1000);
  cache.put(key(cache, "a"), {400, 200, ""}, 0);
  cache.put(key(cache, "b"), {400, 200, ""}, 0);
  cache.lookup(key(cache, "a"), 0);            // a is now most recent
  cache.put(key(cache, "c"), {400, 200, ""}, 0);  // must evict b
  EXPECT_TRUE(cache.contains(key(cache, "a")));
  EXPECT_FALSE(cache.contains(key(cache, "b")));
  EXPECT_TRUE(cache.contains(key(cache, "c")));
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_LE(cache.bytes_used(), 1000);
}

TEST(LruCache, RejectsOversizedObject) {
  LruCache cache(100);
  EXPECT_FALSE(cache.put(key(cache, "huge"), {101, 200, ""}, 0));
  EXPECT_EQ(cache.entry_count(), 0u);
  EXPECT_TRUE(cache.put(key(cache, "fits"), {100, 200, ""}, 0));
}

TEST(LruCache, OverwriteReplacesSize) {
  LruCache cache(1000);
  cache.put(key(cache, "a"), {600, 200, ""}, 0);
  cache.put(key(cache, "a"), {200, 200, ""}, 0);
  EXPECT_EQ(cache.bytes_used(), 200);
  EXPECT_EQ(cache.entry_count(), 1u);
}

TEST(LruCache, ManyInsertsRespectCapacity) {
  LruCache cache(10'000);
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    cache.put(key(cache, "u" + std::to_string(i)), {rng.uniform_int(100, 3000), 200, ""},
              0);
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
  EXPECT_TRUE(cache.contains(key(cache, "http://o.example/x.jpg")));

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
  EXPECT_FALSE(cache.contains(key(cache, "http://o.example/missing")));
}

}  // namespace
}  // namespace mfhttp
