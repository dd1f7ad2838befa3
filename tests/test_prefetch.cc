// Tests for the prediction-driven prefetch subsystem: the planner's
// value-density budgeting, the Prefetcher's launch/cancel lifecycle against
// MitmProxy (a new fling invalidates the old predicted path), admission
// gating of speculative warm-ups, the tile scheduler's prefetch list, the
// JSON cache/prefetch configuration, and the counters cache_matrix's
// experiment exports.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "http/fetch_pipeline.h"
#include "http/proxy.h"
#include "http/sim_http.h"
#include "obs/metrics.h"
#include "overload/admission.h"
#include "prefetch/cache_config.h"
#include "prefetch/cache_experiment.h"
#include "prefetch/planner.h"
#include "prefetch/prefetcher.h"
#include "video/dash.h"
#include "video/scheduler.h"

namespace mfhttp {
namespace {

// The cache key of `url` in the key space of `owner` (a cache or ghost list).
template <class Owner>
UrlId key(Owner& owner, std::string_view url) {
  return owner.urls().intern(url);
}

using prefetch::CacheConfig;
using prefetch::PrefetchBudget;
using prefetch::Prefetcher;
using prefetch::PrefetchItem;
using prefetch::PrefetchPlan;
using prefetch::PrefetchPlanner;

PrefetchCandidate candidate(std::string url, Bytes bytes, double value,
                            double entry_time_ms, std::size_t index = 0) {
  PrefetchCandidate c;
  c.object_index = index;
  c.url = std::move(url);
  c.bytes = bytes;
  c.entry_time_ms = entry_time_ms;
  c.value = value;
  return c;
}

// ---------- PrefetchPlanner ----------

TEST(PrefetchPlannerTest, BudgetsByValueDensityAndCapsBytes) {
  PrefetchBudget budget;
  budget.max_bytes_per_plan = 60'000;
  budget.lead_time_ms = 300;
  PrefetchPlanner planner(budget);

  // Densities: a = 10/10k = 1e-3, b = 20/50k = 4e-4, c = 1/5k = 2e-4.
  // a and b fill the 60 KB budget; c (lowest density) is squeezed out even
  // though it is the smallest candidate.
  const PrefetchPlan plan = planner.plan(
      {candidate("a", 10'000, 10, 1'000, 0), candidate("b", 50'000, 20, 500, 1),
       candidate("c", 5'000, 1, 2'000, 2)},
      /*now_ms=*/1'000);

  ASSERT_EQ(plan.items.size(), 2u);
  EXPECT_EQ(plan.total_bytes, 60'000);
  EXPECT_EQ(plan.dropped, 1u);
  // Items come back ordered by launch time: b enters at +500 (launch
  // 1'000 + 500 - 300 = 1'200), a at +1'000 (launch 1'700).
  EXPECT_EQ(plan.items[0].url, "b");
  EXPECT_EQ(plan.items[0].launch_at_ms, 1'200);
  EXPECT_EQ(plan.items[1].url, "a");
  EXPECT_EQ(plan.items[1].launch_at_ms, 1'700);
}

TEST(PrefetchPlannerTest, MinValueFiltersWeakCandidates) {
  PrefetchBudget budget;
  budget.min_value = 5.0;
  PrefetchPlanner planner(budget);
  const PrefetchPlan plan = planner.plan(
      {candidate("keep", 10'000, 10, 100), candidate("drop", 100, 1, 100)}, 0);
  ASSERT_EQ(plan.items.size(), 1u);
  EXPECT_EQ(plan.items[0].url, "keep");
  EXPECT_EQ(plan.dropped, 1u);
}

TEST(PrefetchPlannerTest, LaunchTimeNeverPrecedesNow) {
  PrefetchBudget budget;
  budget.lead_time_ms = 300;
  PrefetchPlanner planner(budget);
  // Entry in 100 ms but lead time is 300 ms: launch clamps to now.
  const PrefetchPlan plan = planner.plan({candidate("u", 1'000, 1, 100)}, 5'000);
  ASSERT_EQ(plan.items.size(), 1u);
  EXPECT_EQ(plan.items[0].launch_at_ms, 5'000);
}

TEST(PrefetchPlannerTest, EmptyCandidatesMakeEmptyPlan) {
  const PrefetchPlan plan = PrefetchPlanner().plan({}, 0);
  EXPECT_TRUE(plan.items.empty());
  EXPECT_EQ(plan.total_bytes, 0);
  EXPECT_EQ(plan.dropped, 0u);
}

// ---------- Prefetcher against a real proxy ----------

struct PrefetcherFixture : public ::testing::Test {
  void SetUp() override {
    obs::metrics().reset();
    Link::Params server_params;
    server_params.bandwidth = BandwidthTrace::constant(1'000'000);
    server_params.latency_ms = 2;
    server_link.emplace(sim, server_params);

    store.put("/img/a.jpg", 20'000, "image/jpeg");
    store.put("/img/b.jpg", 20'000, "image/jpeg");
    store.put("/img/c.jpg", 20'000, "image/jpeg");
    store.put("/img/big.jpg", 500'000, "image/jpeg");
    origin.emplace(sim, &store, &*server_link);

    Link::Params client_params;
    client_params.bandwidth = BandwidthTrace::constant(1'000'000);
    client_params.latency_ms = 5;
    FetchPipelineBuilder builder(sim, &*origin);
    builder.client_link(client_params).with_cache(CacheParams{1'000'000});
    pipeline = builder.build();
    prefetcher.emplace(sim, &pipeline->proxy());
  }

  static PrefetchPlan plan_of(std::vector<PrefetchItem> items) {
    PrefetchPlan plan;
    for (PrefetchItem& item : items) {
      plan.total_bytes += item.bytes;
      plan.items.push_back(std::move(item));
    }
    return plan;
  }

  static PrefetchItem item(std::string url, TimeMs launch_at, Bytes bytes = 20'000) {
    PrefetchItem i;
    i.url = std::move(url);
    i.launch_at_ms = launch_at;
    i.bytes = bytes;
    return i;
  }

  Simulator sim;
  ObjectStore store;
  std::optional<Link> server_link;
  std::optional<SimHttpOrigin> origin;
  std::unique_ptr<FetchPipeline> pipeline;
  std::optional<Prefetcher> prefetcher;
};

TEST_F(PrefetcherFixture, PlanWarmsCacheAndHitCountsUseful) {
  prefetcher->submit(plan_of({item("http://site.example/img/a.jpg", 10),
                              item("http://site.example/img/b.jpg", 20)}));
  EXPECT_EQ(prefetcher->pending(), 2u);
  sim.run();

  EXPECT_EQ(prefetcher->stats().scheduled, 2u);
  EXPECT_EQ(prefetcher->stats().launched, 2u);
  EXPECT_EQ(prefetcher->stats().denied, 0u);
  HttpCache& cache = *pipeline->cache();
  EXPECT_TRUE(cache.contains(key(cache, "http://site.example/img/a.jpg")));
  EXPECT_TRUE(cache.contains(key(cache, "http://site.example/img/b.jpg")));
  EXPECT_EQ(cache.stats().prefetch_insertions, 2u);
  EXPECT_EQ(pipeline->proxy().stats().prefetches, 2u);

  // The predicted request arrives: served from the warm cache, counted as a
  // useful prefetch, and the origin sends nothing new.
  const Bytes server_bytes = server_link->bytes_delivered_total();
  std::optional<FetchResult> out;
  FetchCallbacks cbs;
  cbs.on_complete = [&](const FetchResult& r) { out = r; };
  pipeline->proxy().fetch(HttpRequest::get("http://site.example/img/a.jpg"),
                          std::move(cbs));
  sim.run();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->status, 200);
  EXPECT_EQ(cache.stats().prefetch_useful, 1u);
  EXPECT_EQ(server_link->bytes_delivered_total(), server_bytes);
}

// The satellite requirement: a new fling makes the old predicted path wrong,
// so submitting the new plan cancels both pending launches and warm-ups
// already in flight at the proxy.
TEST_F(PrefetcherFixture, NewPlanCancelsPendingAndInflightItems) {
  prefetcher->submit(plan_of({item("http://site.example/img/big.jpg", 5, 500'000),
                              item("http://site.example/img/b.jpg", 800)}));
  // At t=50 the big warm-up is in flight (500 KB at 1 MB/s takes ~500 ms)
  // and b has not launched yet.
  sim.run_until(50);
  EXPECT_EQ(pipeline->proxy().prefetch_inflight(), 1u);
  EXPECT_EQ(prefetcher->pending(), 1u);

  // Fling: the predictor now expects c instead.
  prefetcher->submit(plan_of({item("http://site.example/img/c.jpg", 100)}));
  EXPECT_EQ(prefetcher->stats().cancelled, 2u);  // pending b + in-flight big
  EXPECT_EQ(pipeline->proxy().prefetch_inflight(), 0u);
  EXPECT_EQ(pipeline->proxy().stats().prefetch_cancelled, 1u);

  sim.run();
  HttpCache& cache = *pipeline->cache();
  EXPECT_TRUE(cache.contains(key(cache, "http://site.example/img/c.jpg")));
  EXPECT_FALSE(cache.contains(key(cache, "http://site.example/img/big.jpg")));
  EXPECT_FALSE(cache.contains(key(cache, "http://site.example/img/b.jpg")));
}

TEST_F(PrefetcherFixture, ResubmittedUrlKeepsItsSchedule) {
  prefetcher->submit(plan_of({item("http://site.example/img/a.jpg", 300)}));
  // Same URL in the next plan with a different time: the original schedule
  // stands, nothing is cancelled or double-scheduled.
  prefetcher->submit(plan_of({item("http://site.example/img/a.jpg", 900)}));
  EXPECT_EQ(prefetcher->stats().scheduled, 1u);
  EXPECT_EQ(prefetcher->stats().cancelled, 0u);
  sim.run_until(400);
  EXPECT_EQ(prefetcher->stats().launched, 1u);
}

TEST_F(PrefetcherFixture, CancelAllTearsEverythingDown) {
  prefetcher->submit(plan_of({item("http://site.example/img/big.jpg", 5, 500'000),
                              item("http://site.example/img/b.jpg", 900)}));
  sim.run_until(50);
  prefetcher->cancel_all();
  EXPECT_EQ(prefetcher->pending(), 0u);
  EXPECT_EQ(pipeline->proxy().prefetch_inflight(), 0u);
  sim.run();
  EXPECT_EQ(pipeline->cache()->entry_count(), 0u);
}

// ---------- Admission gating of warm-ups ----------

TEST_F(PrefetcherFixture, ProxyDeniesPrefetchWithoutHeadroomOrUnderBrownout) {
  overload::AdmissionParams params;
  params.max_inflight_upstream = 4;  // headroom gate at 0.75 * 4 = 3 in flight
  overload::AdmissionController admission(params);
  pipeline->proxy().set_admission(&admission);

  // Fill the headroom: with 3 of 4 slots busy, speculation is denied.
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(admission.try_acquire_upstream());
  EXPECT_FALSE(pipeline->proxy().prefetch("http://site.example/img/a.jpg"));
  EXPECT_EQ(pipeline->proxy().stats().prefetch_denied, 1u);

  // Slack again: the same warm-up goes through.
  admission.release_upstream();
  EXPECT_TRUE(pipeline->proxy().prefetch("http://site.example/img/a.jpg"));

  // Any brownout level implies "no speculation".
  admission.set_brownout_level(overload::BrownoutLevel::kNoSpeculation);
  EXPECT_FALSE(pipeline->proxy().prefetch("http://site.example/img/b.jpg"));
  EXPECT_EQ(pipeline->proxy().stats().prefetch_denied, 2u);
}

TEST_F(PrefetcherFixture, DeniedLaunchCountsAtThePrefetcher) {
  overload::AdmissionParams params;
  params.max_inflight_upstream = 1;
  overload::AdmissionController admission(params);
  pipeline->proxy().set_admission(&admission);
  ASSERT_TRUE(admission.try_acquire_upstream());  // no headroom at all

  prefetcher->submit(plan_of({item("http://site.example/img/a.jpg", 10)}));
  sim.run();
  EXPECT_EQ(prefetcher->stats().launched, 0u);
  EXPECT_EQ(prefetcher->stats().denied, 1u);
  EXPECT_FALSE(pipeline->cache()->contains(
      key(*pipeline->cache(), "http://site.example/img/a.jpg")));
}

TEST_F(PrefetcherFixture, PrefetchSkipsFreshAndInflightUrls) {
  MitmProxy& proxy = pipeline->proxy();
  EXPECT_TRUE(proxy.prefetch("http://site.example/img/a.jpg"));
  // Already warming: a second request for the same URL is a no-op.
  EXPECT_FALSE(proxy.prefetch("http://site.example/img/a.jpg"));
  sim.run();
  // Already fresh: nothing to warm.
  EXPECT_FALSE(proxy.prefetch("http://site.example/img/a.jpg"));
  EXPECT_EQ(proxy.stats().prefetches, 1u);
}

// ---------- Tile scheduler speculative list ----------

TEST(TileSchedulerPrefetchTest, PlansLowestTierForPredictedTilesUnlessForbidden) {
  VideoAsset::Params params;
  params.duration_s = 4;
  params.tile_cols = 2;
  params.tile_rows = 2;
  VideoAsset video(params);
  MfHttpTileScheduler scheduler;

  std::vector<bool> predicted{true, false, true, false};
  SchedulerContext context = SchedulerContext::from_budget(1'000'000);

  const std::vector<std::string> urls = scheduler.plan_prefetch(
      video, /*segment=*/2, predicted, context, "http://cdn.example");
  ASSERT_EQ(urls.size(), 2u);
  EXPECT_EQ(urls[0], video.segment_url("http://cdn.example", 0, 2, 0));
  EXPECT_EQ(urls[1], video.segment_url("http://cdn.example", 2, 2, 0));

  // Degraded playback, any brownout level, or an out-of-range segment all
  // suppress speculation entirely.
  SchedulerContext degraded = context;
  degraded.degraded = true;
  EXPECT_TRUE(scheduler.plan_prefetch(video, 2, predicted, degraded,
                                      "http://cdn.example").empty());
  SchedulerContext brownout = context;
  brownout.brownout = 1;
  EXPECT_TRUE(scheduler.plan_prefetch(video, 2, predicted, brownout,
                                      "http://cdn.example").empty());
  EXPECT_TRUE(scheduler.plan_prefetch(video, 99, predicted, context,
                                      "http://cdn.example").empty());
}

// ---------- CacheConfig JSON ----------

TEST(CacheConfigTest, ParsesFullDocument) {
  const char* json = R"({
    "cache": {
      "capacity_bytes": 2000000, "default_ttl_ms": 6000,
      "stale_while_revalidate_ms": 2000, "max_object_fraction": 0.25,
      "cost_aware_admission": true
    },
    "prefetch": {
      "enabled": false, "min_value": 1.5,
      "max_bytes_per_plan": 500000, "lead_time_ms": 250
    }
  })";
  std::string error;
  auto config = CacheConfig::from_json(json, &error);
  ASSERT_TRUE(config.has_value()) << error;
  EXPECT_EQ(config->cache.capacity_bytes, 2'000'000);
  EXPECT_EQ(config->cache.default_ttl_ms, 6'000);
  EXPECT_EQ(config->cache.stale_while_revalidate_ms, 2'000);
  EXPECT_DOUBLE_EQ(config->cache.max_object_fraction, 0.25);
  EXPECT_TRUE(config->cache.cost_aware_admission);
  EXPECT_FALSE(config->prefetch_enabled);
  EXPECT_DOUBLE_EQ(config->prefetch.min_value, 1.5);
  EXPECT_EQ(config->prefetch.max_bytes_per_plan, 500'000);
  EXPECT_EQ(config->prefetch.lead_time_ms, 250);
}

TEST(CacheConfigTest, AbsentFieldsKeepDefaults) {
  auto config = CacheConfig::from_json("{}");
  ASSERT_TRUE(config.has_value());
  const CacheConfig defaults;
  EXPECT_EQ(config->cache.capacity_bytes, defaults.cache.capacity_bytes);
  EXPECT_EQ(config->prefetch.lead_time_ms, defaults.prefetch.lead_time_ms);
  EXPECT_EQ(config->prefetch_enabled, defaults.prefetch_enabled);
}

TEST(CacheConfigTest, RoundTripsThroughToJson) {
  CacheConfig config;
  config.cache.capacity_bytes = 123'456;
  config.cache.cost_aware_admission = true;
  config.prefetch.max_bytes_per_plan = 42;
  config.prefetch_enabled = false;
  auto reparsed = CacheConfig::from_json(config.to_json());
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(reparsed->cache.capacity_bytes, 123'456);
  EXPECT_TRUE(reparsed->cache.cost_aware_admission);
  EXPECT_EQ(reparsed->prefetch.max_bytes_per_plan, 42);
  EXPECT_FALSE(reparsed->prefetch_enabled);
}

TEST(CacheConfigTest, ReportsSchemaAndParseErrors) {
  std::string error;
  EXPECT_FALSE(CacheConfig::from_json("{\"cache\": []}", &error).has_value());
  EXPECT_EQ(error, "'cache' must be an object");

  EXPECT_FALSE(CacheConfig::from_json(
                   "{\"cache\": {\"capacity_bytes\": \"lots\"}}", &error)
                   .has_value());
  EXPECT_NE(error.find("'cache'"), std::string::npos);
  EXPECT_NE(error.find("capacity_bytes"), std::string::npos);

  EXPECT_FALSE(CacheConfig::from_json(
                   "{\"cache\": {\"max_object_fraction\": 2.0}}", &error)
                   .has_value());
  EXPECT_NE(error.find("max_object_fraction"), std::string::npos);

  EXPECT_FALSE(CacheConfig::from_json("{nope", &error).has_value());
  EXPECT_NE(error.find("line"), std::string::npos);
}

// cache_matrix's cache+prefetch arm exports cache and prefetch counters.
TEST(CacheExperiment, ExportsCacheAndPrefetchCounters) {
  obs::metrics().reset();
  prefetch::CacheExperimentConfig config;
  config.sessions = 4;
  config.horizon_ms = 5'000;
  const prefetch::CacheExperimentResult r = prefetch::run_cache_experiment(config);
  EXPECT_GT(r.prefetch_issued, 0u);
  const obs::Registry& m = obs::metrics();
  EXPECT_GT(m.counter_value("http.cache.hits_total"), 0u);
  EXPECT_GT(m.counter_value("http.cache.misses_total"), 0u);
  EXPECT_GT(m.counter_value("prefetch.planner.items_planned_total"), 0u);
}

}  // namespace
}  // namespace mfhttp
