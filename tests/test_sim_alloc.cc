// Heap-allocation accounting for the simulated data plane.
//
// The allocation-free contract (DESIGN.md §18): once warm, the Simulator
// schedules and fires events, and a Link dispenses a quantum to transfers
// already in flight, without touching the heap — as long as the callbacks
// fit std::function's small buffer. These tests enforce that with a
// counting global operator new. The ProxyAlloc cases hold one proxied GET,
// from fetch() to on_complete, to a fixed allocation budget, and the
// FrontDoorAlloc case holds the whole sharded serving path around it to a
// per-request budget (DESIGN.md §19, §21). The UrlTable cases pin the
// interner those paths key by. The TouchAlloc case holds one gesture's
// touch-to-policy path to the same allocations on a small and a large page
// (DESIGN.md §20). The BrowsingSession case holds a whole paper_default
// page load, set-up included, to a per-session budget on every corpus page
// (DESIGN.md §24).
//
// The counter is a plain relaxed atomic: every measured section runs on one
// thread and only needs exact counts between an AllocGuard's construction
// and delta().

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/middleware.h"
#include "feed/feed.h"
#include "http/fetch_pipeline.h"
#include "http/frontdoor.h"
#include "http/object_store.h"
#include "http/proxy.h"
#include "http/sim_http.h"
#include "http/url_table.h"
#include "net/link.h"
#include "overload/admission.h"
#include "scenario/scenario_spec.h"
#include "scenario/wiring.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "web/corpus.h"
#include "web/experiment.h"

namespace {

std::atomic<std::size_t> g_allocs{0};
std::atomic<std::size_t> g_alloc_bytes{0};

std::size_t alloc_count() { return g_allocs.load(std::memory_order_relaxed); }
std::size_t alloc_bytes() { return g_alloc_bytes.load(std::memory_order_relaxed); }

void* counted_malloc(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_malloc(size); }
void* operator new[](std::size_t size) { return counted_malloc(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace mfhttp {
namespace {

class AllocGuard {
 public:
  AllocGuard() : start_(alloc_count()), start_bytes_(alloc_bytes()) {}
  std::size_t delta() const { return alloc_count() - start_; }
  std::size_t bytes() const { return alloc_bytes() - start_bytes_; }

 private:
  std::size_t start_;
  std::size_t start_bytes_;
};

// Long-lived transfers on a 100 KB/s link (500 B per 5 ms quantum), each
// with a one-pointer capture; returns the number of progress calls made
// during a measured window of `quanta` quanta after a warm-up.
struct SteadyLink {
  static constexpr int kTransfers = 3;
  static constexpr Bytes kSize = 10'000'000;  // never finishes in the test

  explicit SteadyLink(Link::Sharing sharing) : link(sim, params(sharing)) {
    for (int i = 0; i < kTransfers; ++i)
      link.submit(kSize, [this](Bytes chunk, bool) {
        ++calls;
        bytes += chunk;
      });
  }

  static Link::Params params(Link::Sharing sharing) {
    Link::Params p;
    p.bandwidth = BandwidthTrace::constant(100'000);
    p.latency_ms = 5;
    p.quantum_ms = 5;
    p.sharing = sharing;
    return p;
  }

  Simulator sim;
  Link link;
  long calls = 0;
  Bytes bytes = 0;
};

TEST(SimAlloc, FifoLinkQuantumIsAllocationFree) {
  SteadyLink s(Link::Sharing::kFifo);
  s.sim.run_until(200);  // warm-up: scratch vectors and slab reach capacity
  const long calls_before = s.calls;
  const Bytes bytes_before = s.bytes;
  AllocGuard guard;
  s.sim.run_until(1200);  // 200 quanta
  EXPECT_EQ(guard.delta(), 0u);
  EXPECT_EQ(s.calls - calls_before, 200);
  EXPECT_EQ(s.bytes - bytes_before, 100'000);
  EXPECT_EQ(s.link.active_transfers(), 3u);
}

TEST(SimAlloc, MultiRoundFairShareQuantumIsAllocationFree) {
  SteadyLink s(Link::Sharing::kFairShare);
  s.sim.run_until(200);
  const long calls_before = s.calls;
  const Bytes bytes_before = s.bytes;
  AllocGuard guard;
  s.sim.run_until(1200);
  EXPECT_EQ(guard.delta(), 0u);
  // 500 B split three ways leaves 2 B for a second water-filling round,
  // so each quantum makes more calls than there are transfers.
  EXPECT_GT(s.calls - calls_before, 200 * SteadyLink::kTransfers);
  EXPECT_EQ(s.bytes - bytes_before, 100'000);
  EXPECT_EQ(s.link.active_transfers(), 3u);
}

TEST(SimAlloc, ScheduleAndStepAreAllocationFree) {
  Simulator sim;
  int fired = 0;
  auto round = [&] {
    // One live event, one cancelled: the stale heap entry is popped by step().
    auto doomed = sim.schedule_after(1, [&fired] { fired += 1000; });
    sim.schedule_after(1, [&fired] { ++fired; });
    EXPECT_TRUE(sim.cancel(doomed));
    EXPECT_TRUE(sim.step());
  };
  for (int i = 0; i < 16; ++i) round();  // warm-up
  fired = 0;
  AllocGuard guard;
  for (int i = 0; i < 1000; ++i) round();
  EXPECT_EQ(guard.delta(), 0u);
  EXPECT_EQ(fired, 1000);
  EXPECT_EQ(sim.pending_count(), 0u);
}

// A 1 ms self-rescheduling tick that also schedules one event past the
// calendar window's end each time (it waits in the heap, then moves into
// its bucket) and, every third tick, cancels the one it scheduled half a
// window earlier, which has moved by then. Over many windows the ring
// wraps and the heap refills, and neither touches the allocator once warm.
struct CalendarLoad {
  static constexpr TimeMs kW = Simulator::kWindowMs;
  static constexpr std::size_t kRemembered = 512;  // > kW + 7 ticks of ids

  void tick() {
    far[ticks % kRemembered] = sim.schedule_after(kW + 7, [this] { ++far_fired; });
    const std::size_t half_window_ago = (ticks + kRemembered - kW / 2) % kRemembered;
    if (ticks % 3 == 0 && sim.cancel(far[half_window_ago])) ++far_cancelled;
    sim.cancel(sim.schedule_after(2, [this] { ++far_fired; }));
    ++ticks;
    sim.schedule_after(1, [this] { tick(); });
  }

  Simulator sim;
  std::array<Simulator::EventId, kRemembered> far{};
  std::size_t ticks = 0;
  long far_fired = 0;
  long far_cancelled = 0;
};

TEST(SimAlloc, CalendarWrapAndHeapSpillAreAllocationFree) {
  CalendarLoad load;
  load.sim.schedule_at(0, [&load] { load.tick(); });
  load.sim.run_until(4 * CalendarLoad::kW);  // warm-up: pools reach capacity
  const std::size_t ticks_before = load.ticks;
  const long fired_before = load.far_fired;
  const long cancelled_before = load.far_cancelled;
  AllocGuard guard;
  load.sim.run_until(20 * CalendarLoad::kW);  // the ring wraps 16 times
  EXPECT_EQ(guard.delta(), 0u);
  const auto ticks = static_cast<long>(load.ticks - ticks_before);
  const long cancelled = load.far_cancelled - cancelled_before;
  EXPECT_EQ(ticks, 16 * CalendarLoad::kW);
  EXPECT_NEAR(static_cast<double>(cancelled), ticks / 3.0, 2.0);
  EXPECT_NEAR(static_cast<double>(load.far_fired - fired_before),
              static_cast<double>(ticks - cancelled), 2.0);
}

// A front-door shard's serving stack, wired as http/frontdoor.cc wires it:
// an origin behind a FIFO server link, a fair-share client link, a
// cost-aware cache, admission control with per-session limiting off, and an
// interceptor that forwards the request's priority hint.
class ProxyStack {
 public:
  static constexpr int kObjects = 64;

  ProxyStack()
      : server_link_(sim_, {BandwidthTrace::constant(20'000'000), 5, 5,
                            Link::Sharing::kFifo}),
        origin_(sim_, &store_, &server_link_, {10}) {
    for (int i = 0; i < kObjects; ++i)
      store_.put("/obj/" + std::to_string(i), 4'000 + 100 * i, "image/jpeg");
    CacheParams cache;
    cache.capacity_bytes = 16'000'000;
    cache.cost_aware_admission = true;
    overload::AdmissionParams admission;
    admission.global_rate_per_s = 10'000;
    admission.global_burst = 1'000;
    admission.max_inflight_upstream = 4096;
    admission.max_dispatch_queue = 16384;
    pipeline_ = FetchPipelineBuilder(sim_, &origin_)
                    .client_link(Link::Params{BandwidthTrace::constant(5'000'000),
                                              20, 5, Link::Sharing::kFairShare})
                    .with_cache(cache)
                    .with_admission(admission)
                    .interceptor(&hint_)
                    .build();
    // The URL universe is interned up front, as the front door does, so a
    // miss on an object never fetched before still finds its UrlId.
    for (int i = 0; i < kObjects; ++i) pipeline_->cache()->urls().intern(url(i));
  }

  static std::string url(int i) {
    return "http://origin.example/obj/" + std::to_string(i);
  }

  // Serve one GET of object `i` to completion; returns the allocations made
  // from fetch() up to the start of on_complete.
  std::size_t fetch_counting(int i) {
    HttpRequest req = HttpRequest::get(url(i));
    req.set_session("s7");
    req.set_priority_hint(overload::kPriorityViewport);
    struct Probe {
      const AllocGuard* guard = nullptr;
      std::size_t allocs = 0;
      int status = 0;
    } probe;
    FetchCallbacks cbs;
    cbs.on_complete = [&probe](const FetchResult& r) {
      probe.allocs = probe.guard->delta();
      probe.status = r.status;
    };
    AllocGuard guard;
    probe.guard = &guard;
    pipeline_->proxy().fetch(req, std::move(cbs));
    sim_.run();
    EXPECT_EQ(probe.status, 200);
    return probe.allocs;
  }

  MitmProxy& proxy() { return pipeline_->proxy(); }

 private:
  class HintInterceptor : public Interceptor {
   public:
    InterceptDecision on_request(const HttpRequest& request) override {
      return InterceptDecision::allow(
          request.priority_hint(overload::kPriorityViewport));
    }
  };

  Simulator sim_;
  ObjectStore store_;
  Link server_link_;
  SimHttpOrigin origin_;
  HintInterceptor hint_;
  std::unique_ptr<FetchPipeline> pipeline_;
};

// Warm every container the path touches: each of the first half of the
// objects is missed once and hit once.
void warm(ProxyStack& stack) {
  for (int round = 0; round < 2; ++round)
    for (int i = 0; i < ProxyStack::kObjects / 2; ++i) stack.fetch_counting(i);
}

// Budgets measured on the integer-keyed path (DESIGN.md §21). A cache hit
// allocates nothing: the proxy's pending record, the origin's in-flight
// record and both links' transfers live on warm slabs, the URL is interned
// once and looked up by id, and closures capture (this, id) and so stay in
// std::function's small buffer.
constexpr std::size_t kHitBudget = 0;
// A miss adds only the cache entry's LRU list node: the cache index and the
// ghost counts are dense vectors over the interned universe.
constexpr std::size_t kMissBudget = 1;

TEST(ProxyAlloc, CacheHitStaysWithinBudget) {
  ProxyStack stack;
  warm(stack);
  const std::size_t hits_before = stack.proxy().stats().cache_hits;
  const std::size_t allocs = stack.fetch_counting(3);
  EXPECT_EQ(stack.proxy().stats().cache_hits, hits_before + 1);
  EXPECT_LE(allocs, kHitBudget) << "allocations on the hit path";
}

TEST(ProxyAlloc, CacheMissStaysWithinBudget) {
  ProxyStack stack;
  warm(stack);
  const std::size_t hits_before = stack.proxy().stats().cache_hits;
  const std::size_t allocs = stack.fetch_counting(ProxyStack::kObjects - 1);
  EXPECT_EQ(stack.proxy().stats().cache_hits, hits_before);
  EXPECT_LE(allocs, kMissBudget) << "allocations on the miss path";
}

// ---------- the sharded front door ----------

// Allocations of one kInline run of the hot front-door shape (2 shards,
// Zipf-hot URLs over 4,096 objects) with `sessions` sessions; `requests`
// receives the run's request count.
std::size_t front_door_allocs(std::size_t sessions, std::size_t* requests) {
  FrontDoorParams params;
  params.shards = 2;
  params.load.seed = 11;
  params.load.sessions = sessions;
  params.load.url_universe = 4096;
  params.load.skew_exponent = 3.0;
  params.apply_scaled_admission();
  AllocGuard guard;
  const FrontDoorResult result = run_front_door(params, FrontDoorMode::kInline);
  const std::size_t allocs = guard.delta();
  *requests = result.requests;
  EXPECT_EQ(result.completed + result.rejected + result.failed, result.requests);
  return allocs;
}

// Allocations per request on the serving path: the difference between a run
// and one twice as long cancels the set-up (store, URL table, shards), which
// does not grow with the sessions. Measured 418 allocations for 8,012 more
// requests (0.052): 271 cache LRU list nodes for the admitted misses, and
// the doubling growth of what scales with the run (the timeline, the
// per-shard latency samples, slab high-water marks). Every per-request
// record sits on a warm slab or in a vector sized once (DESIGN.md §21).
constexpr double kFrontDoorPerRequestBudget = 0.06;

TEST(FrontDoorAlloc, PerRequestBudget) {
  std::size_t short_requests = 0, long_requests = 0;
  front_door_allocs(1'000, &short_requests);  // warm-up: metric sites register
  const std::size_t short_allocs = front_door_allocs(1'000, &short_requests);
  const std::size_t long_allocs = front_door_allocs(2'000, &long_requests);
  ASSERT_GT(long_requests, short_requests + 3'000);
  const double per_request =
      static_cast<double>(long_allocs - short_allocs) /
      static_cast<double>(long_requests - short_requests);
  EXPECT_LE(per_request, kFrontDoorPerRequestBudget)
      << long_allocs - short_allocs << " allocations for "
      << long_requests - short_requests << " requests";
}

// ---------- UrlTable ----------

TEST(UrlTable, SameUrlSameDenseId) {
  UrlTable table;
  EXPECT_EQ(table.intern("http://o.example/a"), 0u);
  EXPECT_EQ(table.intern("http://o.example/b"), 1u);
  EXPECT_EQ(table.intern("http://o.example/a"), 0u);
  EXPECT_EQ(table.find("http://o.example/b"), 1u);
  EXPECT_EQ(table.find("http://o.example/c"), kNoUrl);
  EXPECT_EQ(table.size(), 2u);
  // Ids stay dense and views stay put while the table grows past several
  // rehashes and text blocks.
  const std::string_view first = table.url(0);
  for (int i = 0; i < 20'000; ++i) {
    const std::string url = "http://o.example/obj/" + std::to_string(i);
    ASSERT_EQ(table.intern(url), static_cast<UrlId>(i + 2));
  }
  EXPECT_EQ(table.size(), 20'002u);
  EXPECT_EQ(first.data(), table.url(0).data());
  EXPECT_EQ(table.url(0), "http://o.example/a");
  for (int i = 0; i < 20'000; ++i)
    ASSERT_EQ(table.url(static_cast<UrlId>(i + 2)),
              "http://o.example/obj/" + std::to_string(i));
}

TEST(UrlTable, LookupOfKnownUrlDoesNotAllocate) {
  UrlTable table;
  std::vector<std::string> urls;
  for (int i = 0; i < 512; ++i) {
    urls.push_back("http://origin.example/obj/" + std::to_string(i));
    table.intern(urls.back());
  }
  table.freeze();
  AllocGuard guard;
  std::size_t sum = 0;
  for (int round = 0; round < 4; ++round)
    for (const std::string& url : urls) sum += table.intern(url) + table.find(url);
  EXPECT_EQ(guard.delta(), 0u);
  EXPECT_EQ(sum, 4u * 2u * (511u * 512u / 2u));
}

TEST(UrlTable, FrozenTableServesConcurrentReaders) {
  UrlTable table;
  std::vector<std::string> urls;
  for (int i = 0; i < 4096; ++i) {
    urls.push_back("http://origin.example/obj/" + std::to_string(i));
    table.intern(urls.back());
  }
  table.freeze();
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r)
    readers.emplace_back([&, r] {
      for (int i = 0; i < 4096; ++i) {
        const int at = (i * 7 + r * 1024) % 4096;
        const auto id = static_cast<UrlId>(at);
        if (table.intern(urls[at]) != id || table.find(urls[at]) != id ||
            table.url(id) != urls[at])
          ++mismatches;
      }
    });
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(UrlTableDeathTest, FrozenTableRejectsANewUrl) {
  UrlTable table;
  table.intern("http://o.example/a");
  table.freeze();
  EXPECT_EQ(table.intern("http://o.example/a"), 0u);
  EXPECT_DEATH(table.intern("http://o.example/new"), "frozen UrlTable");
}

// ---------- touch-to-policy ----------

// One steady-state gesture on a `posts`-post feed, its viewport far from
// either end so the same swipe involves the same objects on any page size.
struct GestureCost {
  std::size_t allocs = 0;
  std::size_t bytes = 0;
  std::vector<std::size_t> listed;  // object indices the analysis listed
};

GestureCost measure_gesture(int posts) {
  const DeviceProfile device = DeviceProfile::nexus6();
  FeedSpec spec;
  spec.post_count = posts;
  Rng rng(7);
  const Feed feed = generate_feed(spec, device, rng);
  Middleware::Params params;
  params.tracker.scroll = ScrollConfig(device);
  params.tracker.content_bounds = feed.bounds();
  params.flow.weights = {1.0, 0.3};
  params.initial_viewport = {0, 40 * spec.post_height, device.screen_w_px,
                             device.screen_h_px};
  Middleware middleware(params, feed.media, BandwidthTrace::constant(2.0e6),
                        /*sim=*/nullptr);
  auto fling = [](TimeMs up_ms) {
    Gesture g;
    g.kind = GestureKind::kFling;
    g.down_time_ms = up_ms - 120;
    g.up_time_ms = up_ms;
    g.down_pos = {700, 1800};
    g.up_pos = {700, 1500};
    g.release_velocity = {0, -6000};
    return g;
  };
  // Two warm-up gestures, each long settled before the next touch: scratch
  // buffers reach capacity and every metric site registers.
  middleware.on_gesture(fling(1'000));
  middleware.on_gesture(fling(11'000));
  GestureCost cost;
  {
    AllocGuard guard;
    middleware.on_gesture(fling(21'000));
    cost.allocs = guard.delta();
    cost.bytes = guard.bytes();
  }
  EXPECT_TRUE(middleware.last_analysis().has_value());
  if (middleware.last_analysis())
    for (const ObjectCoverage& c : middleware.last_analysis()->listed)
      cost.listed.push_back(c.object_index);
  return cost;
}

TEST(TouchAlloc, GestureAllocationDoesNotScaleWithPage) {
  const GestureCost small = measure_gesture(200);
  const GestureCost large = measure_gesture(2000);
  ASSERT_FALSE(small.listed.empty());
  ASSERT_EQ(small.listed, large.listed) << "the gesture must involve the same objects";
  EXPECT_EQ(large.allocs, small.allocs);
  EXPECT_EQ(large.bytes, small.bytes) << "bytes allocated per gesture grew with the page";
}

// Every corpus page at paper_default, repeats 0-2 (the mfbench browse_paper
// sessions), builds and runs its whole session within the budget. Counts
// are exact: a session run again allocates exactly as often. Across repeats
// the count may differ by what the one gesture's knapsack allocates per
// object it involves, since the swipe speed sets that (DESIGN.md §24.1).
TEST(SimAlloc, BrowsingSessionAllocationBudget) {
  constexpr std::size_t kSessionBudget = 200;
  Rng rng(42);
  const std::vector<WebPage> corpus = generate_corpus(DeviceProfile::nexus6(), rng);
  const scenario::ScenarioSpec spec = scenario::ScenarioSpec::paper_default();
  // Warm-up: every metric site registers and per-thread scratch grows.
  for (const WebPage& page : corpus)
    for (int repeat = 0; repeat < 3; ++repeat)
      run_browsing_session(page, scenario::browsing_config(spec, page, repeat));

  std::size_t most = 0;
  for (const WebPage& page : corpus) {
    for (int repeat = 0; repeat < 3; ++repeat) {
      const BrowsingSessionConfig config = scenario::browsing_config(spec, page, repeat);
      std::size_t allocs[2];
      for (std::size_t& count : allocs) {
        AllocGuard guard;
        run_browsing_session(page, config);
        count = guard.delta();
      }
      EXPECT_LE(allocs[0], kSessionBudget) << page.site << " repeat " << repeat;
      EXPECT_EQ(allocs[1], allocs[0]) << page.site << " repeat " << repeat;
      most = std::max(most, allocs[0]);
    }
  }
  RecordProperty("most_allocations_per_session", static_cast<int>(most));
}

}  // namespace
}  // namespace mfhttp
