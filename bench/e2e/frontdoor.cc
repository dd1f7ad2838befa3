// frontdoor_hot / frontdoor_churn: the sharded front door's serving path.
//
// Load: four timelines, each 25k sessions x 4 touches from its own seed,
// through run_front_door with shards = 2, so each shard owns a 1/2 cache
// segment over the shared CacheGhosts and a 1/2 admission slice.
// frontdoor_hot draws Zipf-hot URLs from a 4,096-object universe (hit ratio
// ~0.39); frontdoor_churn draws near-uniformly from 65,536 (hit ratio
// ~0.01), so misses, insertions, evictions and admission rejections
// dominate. The per-event tail depends on the object sizes a seed draws, so
// a run averages four timelines.
//
// One unit is one kInline run of one timeline, cycling through the four:
// every event is served on the calling thread in timeline order, and the
// run is deterministic, so every unit must reproduce the first document of
// its timeline byte for byte. The program stamps each event just before
// serving it, so its touch-to-policy percentiles are per-event service
// times. Serve time is FrontDoorResult::wall_ms, which starts after the
// shards and the timeline are built.
//
// The --trace run adds the dispatch layer (kThreaded: the calling thread
// produces into MPSC queues, two shard threads serve) and a replay: the
// bench builds the two shard pipelines with FetchPipelineBuilder exactly as
// the front door's Shard does, replays the first timeline on one thread
// routed by shard_of, and spans every MitmProxy::fetch and
// Simulator::run_until call. Its totals must equal the kInline run's.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "http/fetch_pipeline.h"
#include "http/frontdoor.h"
#include "http/object_store.h"
#include "http/sim_http.h"
#include "net/link.h"
#include "obs/metrics.h"
#include "sim/frontdoor_load.h"
#include "sim/simulator.h"
#include "trace.h"

namespace mfbench {

namespace {

using namespace mfhttp;

struct Totals {
  std::size_t requests = 0;
  std::size_t completed = 0;
  std::size_t rejected = 0;
  std::size_t failed = 0;
  std::size_t cache_hits = 0;
  Bytes bytes_to_client = 0;

  bool operator==(const Totals&) const = default;
};

// Forwards the request's priority hint into the intercept decision, as the
// front door's shards do.
class HintInterceptor : public Interceptor {
 public:
  InterceptDecision on_request(const HttpRequest& request) override {
    return InterceptDecision::allow(
        request.priority_hint(overload::kPriorityViewport));
  }
};

// One shard's serving stack, assembled as Shard assembles it: per-shard
// links, SimHttpOrigin, a 1/N cache segment over the shared CacheGhosts,
// the shard_slice admission budget, and the priority-hint interceptor.
// Members are declared in Shard's order, so the pipeline dies first.
struct ReplayShard {
  ReplayShard(std::size_t index, const FrontDoorParams& params,
              const ObjectStore* store,
              const std::shared_ptr<CacheGhosts>& ghosts)
      : server_link(sim,
                    {BandwidthTrace::constant(params.server_bytes_per_s_total /
                                              static_cast<double>(params.shards)),
                     params.server_latency_ms, 5, Link::Sharing::kFifo}),
        origin(sim, store, &server_link, {params.origin_delay_ms}) {
    CacheParams cache;
    cache.capacity_bytes = static_cast<Bytes>(
        params.cache_capacity_total / static_cast<Bytes>(params.shards));
    cache.default_ttl_ms = params.cache_ttl_ms;
    cache.cost_aware_admission = true;
    cache.shared_ghosts = ghosts;
    FetchPipelineBuilder builder(sim, &origin);
    builder
        .client_link(Link::Params{
            BandwidthTrace::constant(params.client_bytes_per_s_total /
                                     static_cast<double>(params.shards)),
            params.client_latency_ms, 5, Link::Sharing::kFairShare})
        .with_cache(cache)
        .with_admission(
            overload::shard_slice(params.admission, index, params.shards))
        .interceptor(&interceptor);
    pipeline = builder.build();
  }

  Simulator sim;
  Link server_link;
  SimHttpOrigin origin;
  HintInterceptor interceptor;
  std::unique_ptr<FetchPipeline> pipeline;
};

Totals traced_replay(const FrontDoorParams& params,
                     const std::vector<sim::TouchEvent>& timeline,
                     Tracer& tracer) {
  ObjectStore store;
  std::vector<std::string> urls;
  for (std::size_t i = 0; i < params.load.url_universe; ++i) {
    const std::string path = "/obj/" + std::to_string(i);
    store.put(path, sim::frontdoor_object_bytes(params.load, i), "image/jpeg");
    urls.push_back("http://origin.example" + path);
  }
  auto ghosts = std::make_shared<CacheGhosts>();
  std::vector<std::unique_ptr<ReplayShard>> shards;
  for (std::size_t i = 0; i < params.shards; ++i)
    shards.push_back(std::make_unique<ReplayShard>(i, params, &store, ghosts));

  Totals t;
  std::uint64_t request_id = 0;
  for (const sim::TouchEvent& e : timeline) {
    ReplayShard& shard = *shards[shard_of(e.session, params.shards)];
    if (static_cast<TimeMs>(e.ts_ms) > shard.sim.now()) {
      Scope span(tracer, "sim.run_until", request_id);
      shard.sim.run_until(static_cast<TimeMs>(e.ts_ms));
    }
    for (std::size_t u = 0; u < e.n_urls; ++u) {
      HttpRequest req = HttpRequest::get(urls[e.urls[u]]);
      req.set_session("s" + std::to_string(e.session));
      req.set_priority_hint(e.priority);
      ++t.requests;
      FetchCallbacks callbacks;
      callbacks.on_complete = [&t](const FetchResult& r) {
        if (r.rejected) {
          ++t.rejected;
        } else if (r.status == 200 && !r.blocked) {
          ++t.completed;
          t.bytes_to_client += r.body_size;
        } else {
          ++t.failed;
        }
      };
      Scope span(tracer, "http.proxy.fetch", ++request_id);
      shard.pipeline->proxy().fetch(req, std::move(callbacks));
    }
  }
  for (auto& shard : shards) {
    shard->sim.run();
    t.cache_hits += shard->pipeline->proxy().stats().cache_hits;
  }
  return t;
}

Totals totals_of(const FrontDoorResult& r) {
  return {r.requests, r.completed,  r.rejected,
          r.failed,   r.cache_hits, r.bytes_to_client};
}

}  // namespace

Result run_frontdoor(const Options& options, Tracer& tracer, bool churn) {
  const std::string name = churn ? "frontdoor_churn" : "frontdoor_hot";
  const std::size_t timelines = options.quick ? 2 : 4;

  // Set-up: each timeline's load, generated here as run_front_door does
  // internally. Its size fixes the conservation checks; its time is the
  // generation share of set-up.
  std::vector<FrontDoorParams> params(timelines);
  std::vector<std::size_t> events(timelines), requests(timelines);
  std::vector<double> generate_ms;
  std::vector<sim::TouchEvent> first_timeline;
  for (std::size_t j = 0; j < timelines; ++j) {
    FrontDoorParams& p = params[j];
    p.shards = 2;
    p.load.seed = splitmix64(options.seed ^ splitmix64(j + 1));
    p.load.sessions = options.quick ? 2000 : 25000;
    p.load.touches_per_session = 4;
    p.load.url_universe = churn ? 65536 : 4096;
    p.load.skew_exponent = churn ? 1.0 : 3.0;
    p.apply_scaled_admission();
    const Clock::time_point start = Clock::now();
    std::vector<sim::TouchEvent> timeline = sim::generate_frontdoor_load(p.load);
    generate_ms.push_back(seconds_since(start) * 1e3);
    events[j] = timeline.size();
    for (const sim::TouchEvent& e : timeline) requests[j] += e.n_urls;
    if (j == 0) first_timeline = std::move(timeline);
  }

  Result result;
  auto check_conservation = [&](const FrontDoorResult& r, std::size_t j) {
    result.check(r.events == events[j], name + ": events != timeline size");
    result.check(r.requests == requests[j],
                 name + ": requests != timeline requests");
    result.check(r.completed + r.rejected + r.failed == r.requests,
                 name + ": completed + rejected + failed != requests");
  };

  run_front_door(params[0], FrontDoorMode::kInline);  // warm-up
  result.metric("peak_rss_mb", peak_rss_mb(), "MiB");

  // Per timeline: its first run (the reference every later run of it must
  // reproduce) and its untraced units' per-event P50, P99 and rate.
  std::vector<FrontDoorResult> first(timelines);
  std::vector<std::string> reference(timelines);
  std::vector<std::vector<double>> p50(timelines), p99(timelines),
      events_per_s(timelines);
  std::vector<double> all_events_per_s, traced_events_per_s, setup_s, serve_ms;
  bool identical = true;
  const Window window(options.seconds, 2 * timelines);
  for (std::size_t unit = 0; window.more(unit); ++unit) {
    const std::size_t j = unit % timelines;
    tracer.set_active(options.trace && (unit / timelines) % 2 == 1);
    const Clock::time_point start = Clock::now();
    FrontDoorResult r;
    {
      Scope span(tracer, "http.frontdoor.run_front_door", unit);
      r = run_front_door(params[j], FrontDoorMode::kInline);
    }
    setup_s.push_back(seconds_since(start) - r.wall_ms / 1e3);
    result.attempted += r.requests;
    result.failed += r.failed;
    check_conservation(r, j);
    if (unit < timelines) {
      first[j] = r;
      reference[j] = r.deterministic_json();
    } else {
      identical = identical && r.deterministic_json() == reference[j];
    }
    const double eps = static_cast<double>(r.events) * 1000.0 / r.wall_ms;
    if (tracer.active()) {
      traced_events_per_s.push_back(eps);
      continue;
    }
    p50[j].push_back(r.p50_touch_to_policy_us);
    p99[j].push_back(r.p99_touch_to_policy_us);
    events_per_s[j].push_back(eps);
    all_events_per_s.push_back(eps);
    serve_ms.push_back(r.wall_ms);
  }
  tracer.set_active(false);
  result.check(identical,
               name + ": an inline run's deterministic document differs from "
                      "its timeline's first run's");

  Fnv fp;
  double op_p50 = 0, op_p99 = 0, ops = 0;
  std::size_t total_requests = 0, completed = 0, cache_hits = 0, insertions = 0,
              evictions = 0, cache_rejected = 0, rejected = 0;
  for (std::size_t j = 0; j < timelines; ++j) {
    fp.bytes(reference[j].data(), reference[j].size());
    op_p50 += fastest(p50[j]) / static_cast<double>(timelines);
    op_p99 += fastest(p99[j]) / static_cast<double>(timelines);
    ops += highest(events_per_s[j]) / static_cast<double>(timelines);
    total_requests += first[j].requests;
    completed += first[j].completed;
    cache_hits += first[j].cache_hits;
    for (const FrontDoorShardReport& s : first[j].per_shard) {
      insertions += s.cache.insertions;
      evictions += s.cache.evictions;
      cache_rejected += s.cache.admission_rejected;
      rejected += s.proxy.rejected;
    }
  }
  result.fingerprint = fp.h;
  const double n = static_cast<double>(total_requests);
  result.metric("op_p50_us", op_p50, "us");
  result.metric("op_p99_us", op_p99, "us");
  result.metric("op_samples", static_cast<double>(events[0]), "count");
  result.metric("ops_per_s", ops, "1/s");
  result.metric("served_ratio", static_cast<double>(completed) / n, "ratio");
  result.metric("setup_s", median(setup_s), "s");
  result.metric("http.frontdoor.serve_ms", median(serve_ms), "ms");
  result.metric("http.frontdoor.build_ms",
                median(setup_s) * 1e3 - median(generate_ms), "ms");
  result.metric("sim.load.generate_ms", median(generate_ms), "ms");
  result.metric("sim.load.generate_share",
                median(generate_ms) / (median(setup_s) * 1e3), "ratio");
  result.metric("http.cache.hit_ratio", static_cast<double>(cache_hits) / n,
                "ratio");
  result.metric("http.cache.insertions", static_cast<double>(insertions),
                "count");
  result.metric("http.cache.evictions", static_cast<double>(evictions),
                "count");
  result.metric("http.cache.admission_rejected",
                static_cast<double>(cache_rejected), "count");
  result.metric("overload.admission.rejected", static_cast<double>(rejected),
                "count");
  if (!options.trace) return result;

  result.metric("trace.overhead_share",
                overhead_share(1.0 / highest(traced_events_per_s),
                               1.0 / highest(all_events_per_s)),
                "ratio");

  // The dispatch layer: producer -> MPSC queues -> two shard threads. Its
  // unpaced producer keeps the queues full, so enqueue -> verdict time
  // measures the backlog, and its run-to-run spread is too wide to gate.
  obs::Counter& push_blocked_ns =
      obs::metrics().counter("http.frontdoor.push_blocked_ns_total");
  std::vector<double> threaded_eps, queue_p50, queue_p99, max_depth, blocked_ms,
      blocked_share;
  for (int i = 0; i < (options.quick ? 1 : 3); ++i) {
    const std::uint64_t blocked_before = push_blocked_ns.value();
    const FrontDoorResult r =
        run_front_door(params[0], FrontDoorMode::kThreaded);
    check_conservation(r, 0);
    threaded_eps.push_back(static_cast<double>(r.events) * 1000.0 / r.wall_ms);
    queue_p50.push_back(r.p50_touch_to_policy_us);
    queue_p99.push_back(r.p99_touch_to_policy_us);
    std::size_t depth = 0;
    for (const FrontDoorShardReport& s : r.per_shard)
      depth = std::max(depth, s.max_queue_depth);
    max_depth.push_back(static_cast<double>(depth));
    blocked_ms.push_back(
        static_cast<double>(push_blocked_ns.value() - blocked_before) / 1e6);
    blocked_share.push_back(blocked_ms.back() / r.wall_ms);
  }
  result.metric("http.frontdoor.threaded_events_per_s", highest(threaded_eps),
                "1/s");
  result.metric("http.frontdoor.threaded_speedup",
                highest(threaded_eps) / highest(events_per_s[0]), "ratio");
  result.metric("http.frontdoor.queue_t2p_us.p50", median(queue_p50), "us");
  result.metric("http.frontdoor.queue_t2p_us.p99", median(queue_p99), "us");
  result.metric("http.frontdoor.max_queue_depth", median(max_depth), "count");
  result.metric("http.frontdoor.push_blocked_ms", median(blocked_ms), "ms");
  result.metric("http.frontdoor.push_blocked_share", median(blocked_share),
                "ratio");

  tracer.set_active(true);
  const Clock::time_point replay_start = Clock::now();
  const Totals replay = traced_replay(params[0], first_timeline, tracer);
  const double replay_us = seconds_since(replay_start) * 1e6;
  tracer.set_active(false);
  result.check(replay == totals_of(first[0]),
               name + ": traced replay totals differ from run_front_door("
                      "kInline)");
  const std::vector<double> fetch = tracer.self_us("http.proxy.fetch");
  const std::vector<double> run_until = tracer.self_us("sim.run_until");
  result.metric("http.proxy.fetch_us.p50", percentile(fetch, 50), "us");
  result.metric("http.proxy.fetch_us.p99", percentile(fetch, 99), "us");
  result.metric("sim.run_until_us.p50", percentile(run_until, 50), "us");
  result.metric("sim.run_until_us.p99", percentile(run_until, 99), "us");
  // The rest of the replay is the bench building requests and draining.
  result.metric("http.proxy.fetch_share", sum(fetch) / replay_us, "ratio");
  result.metric("sim.run_until_share", sum(run_until) / replay_us, "ratio");
  return result;
}

}  // namespace mfbench
