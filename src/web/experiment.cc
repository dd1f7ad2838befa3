#include "web/experiment.h"

#include <memory>
#include <optional>

#include "core/middleware.h"
#include "gesture/recognizer.h"
#include "http/fetch_pipeline.h"
#include "http/proxy.h"
#include "http/sim_http.h"
#include "sim/simulator.h"
#include "util/check.h"
#include "web/blocklist_controller.h"
#include "util/json.h"
#include "web/browser.h"

namespace mfhttp {

namespace {

// The origin's objects under the paths the browser requests: one split of
// each URL (Browser::resource_url) serves the request and the store, so
// the two agree byte for byte.
void fill_store(ObjectStore& store, const WebPage& page, const Browser& browser) {
  store.reserve(page.structure.size() + page.images.size());
  std::size_t node = 0;
  for (const PageResource& r : page.structure)
    store.put(browser.resource_url(node++).path, r.size,
              r.kind == ResourceKind::kHtml ? "text/html" : "text/css");
  for (const MediaObject& img : page.images)
    store.put(browser.resource_url(node++).path, img.top_version().size,
              "image/jpeg");
}

}  // namespace

std::string BrowsingSessionResult::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("initial_viewport_load_ms").value(static_cast<long long>(initial_viewport_load_ms));
  w.key("final_viewport_load_ms").value(static_cast<long long>(final_viewport_load_ms));
  w.key("bytes_downloaded").value(static_cast<long long>(bytes_downloaded));
  w.key("total_image_bytes").value(static_cast<long long>(total_image_bytes));
  w.key("images_total").value(images_total);
  w.key("images_completed").value(images_completed);
  w.key("images_avoided").value(images_avoided);
  w.key("stranded_deferred").value(stranded_deferred);
  w.key("final_viewport_y").value(final_viewport.y);
  w.key("fill_timeline").begin_array();
  for (const auto& [t, fill] : fill_timeline) {
    w.begin_object();
    w.key("t_ms").value(static_cast<long long>(t));
    w.key("fill").value(fill);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

BrowsingSessionResult run_browsing_session(const WebPage& page,
                                           const BrowsingSessionConfig& config) {
  // The tables a page load grows are sized for the page up front: each
  // resource is one request, one upstream and one client transfer.
  const std::size_t resources = page.structure.size() + page.images.size();
  Simulator sim;
  sim.reserve(4 * resources + 64);
  Rng rng(config.seed);

  const BandwidthTrace client_trace =
      config.client_bandwidth_trace.has_value()
          ? *config.client_bandwidth_trace
          : BandwidthTrace::constant(config.client_bandwidth);

  Link::Params client_params;
  client_params.bandwidth = client_trace;
  client_params.latency_ms = config.client_latency_ms;
  client_params.sharing = config.client_sharing;

  Link::Params server_params;
  server_params.bandwidth = BandwidthTrace::constant(config.server_bandwidth);
  server_params.latency_ms = config.server_latency_ms;
  server_params.sharing = Link::Sharing::kFairShare;
  Link server_link(sim, server_params);
  server_link.reserve(resources);

  ObjectStore store;  // filled from the browser's URLs below
  SimHttpOrigin origin(sim, &store, &server_link);

  // The whole decorator stack — client-hop faults, origin faults,
  // resilience, proxy — assembles through the one canonical builder.
  // Explicit config plan wins; the builder falls back to the ambient
  // plan (--scenario) and treats an empty plan as none.
  FetchPipelineBuilder builder(sim, &origin);
  builder.client_link(client_params).with_faults(config.fault_plan);
  MitmProxy::Params proxy_params;
  if (builder.has_faults() && config.enable_resilience) {
    builder.with_resilience(config.resilience);
    proxy_params.defer_timeout_ms = config.defer_timeout_ms;
  }
  if (config.enable_cache) builder.with_cache(config.cache);
  if (config.admission.has_value()) builder.with_admission(*config.admission);
  builder.proxy_params(proxy_params);
  std::unique_ptr<FetchPipeline> pipeline = builder.build();
  MitmProxy& proxy = pipeline->proxy();
  Link& client_link = pipeline->client_link();
  client_link.reserve(resources);
  ResilientFetcher* resilient = pipeline->resilient();

  Browser browser(sim, &proxy, page);
  fill_store(store, page, browser);

  const Rect vp0{0, 0, config.device.screen_w_px, config.device.screen_h_px};

  ScrollTracker::Params tracker_params;
  tracker_params.scroll = ScrollConfig(config.device);
  tracker_params.scroll.fling.friction *= config.fling_friction_scale;
  tracker_params.content_bounds = page.bounds();

  // Ground-truth viewport trajectory — identical scrolling physics whether
  // or not the middleware is enabled, so both arms measure the same thing.
  ScrollTracker gt_tracker(tracker_params);
  ViewportState gt_viewport(vp0, page.bounds());
  GestureRecognizer gt_recognizer(config.device);

  // MF-HTTP stack (only in the treatment arm).
  std::optional<Middleware> middleware;
  std::optional<BlockListController> controller;
  std::optional<TouchEventMonitor> monitor;
  if (config.enable_mfhttp) {
    Middleware::Params mp;
    mp.tracker = tracker_params;
    mp.flow.weights = config.weights;
    // §5.1.2: bandwidth is rarely the web bottleneck — constraint released.
    mp.flow.ignore_bandwidth_constraint = true;
    mp.initial_viewport = vp0;
    mp.gesture_uplink_ms = config.client_latency_ms;
    middleware.emplace(mp, page.images, client_trace, &sim);
    controller.emplace(page, vp0, &proxy);
    if (config.enable_cache && config.enable_prefetch)
      controller->set_prefetch_enabled(true);
    proxy.set_interceptor(&*controller);
    middleware->set_policy_callback(
        [&](const ScrollAnalysis& a, const DownloadPolicy& p) {
          controller->on_policy(a, p);
        });
    monitor.emplace(config.device,
                    [&](const Gesture& g) { middleware->on_gesture(g); });
    // Breaker-open → stop gating: a policy that cannot reach the origin must
    // not keep requests parked.
    if (resilient)
      resilient->set_degraded_callback([&controller](const std::string&, bool open) {
        if (controller) controller->set_degraded(open);
      });
  }

  sim.schedule_at(0, [&] { browser.load(); });

  // The session's one random scrolling touch.
  SwipeSpec spec;
  spec.start_time_ms = config.scroll_at_ms;
  spec.speed_px_s = config.swipe_speed_px_s;
  double x = rng.uniform(config.device.screen_w_px * 0.3,
                         config.device.screen_w_px * 0.7);
  spec.start = {x, config.swipe_up ? config.device.screen_h_px * 0.25
                                   : config.device.screen_h_px * 0.72};
  spec.direction = {rng.uniform(-0.05, 0.05), config.swipe_up ? 1.0 : -1.0};
  spec.contact_ms = 140;
  const TouchTrace trace = synthesize_swipe(spec);
  // Scheduled closures capture one reference and one word, so each fits
  // std::function's small buffer: the touch events stay in `trace`.
  auto replay_touch = [&](const TouchEvent& ev) {
    if (monitor) monitor->on_touch_event(ev);
    if (auto g = gt_recognizer.on_touch_event(ev)) {
      gt_viewport.interrupt(g->down_time_ms);
      gt_viewport.apply_contact_pan(*g);
      if (g->scrolls())
        gt_viewport.begin_animation(
            gt_tracker.predict(*g, gt_viewport.at(g->up_time_ms)));
    }
  };
  for (const TouchEvent& ev : trace)
    sim.schedule_at(ev.time_ms, [&replay_touch, e = &ev] { replay_touch(*e); });

  BrowsingSessionResult result;
  auto sample_fill = [&](TimeMs t) {
    result.fill_timeline.emplace_back(
        t, browser.viewport_fill_fraction(gt_viewport.at(t)));
  };
  if (config.fill_sample_ms > 0) {
    for (TimeMs t = 0; t <= config.session_ms; t += config.fill_sample_ms)
      sim.schedule_at(t, [&sample_fill, t] { sample_fill(t); });
  }

  sim.run_until(config.session_ms);

  result.initial_viewport = vp0;
  result.final_viewport = gt_viewport.at(config.session_ms);
  result.initial_viewport_load_ms = browser.viewport_load_time(vp0);
  result.final_viewport_load_ms = browser.viewport_load_time(result.final_viewport);
  result.bytes_downloaded = client_link.bytes_delivered_total();
  result.total_image_bytes = page.total_image_bytes() + page.total_structure_bytes();
  result.images_total = page.images.size();
  result.images_completed = browser.images_completed();
  result.images_avoided = result.images_total - result.images_completed;
  result.stranded_deferred = proxy.deferred_depth();
  const MitmProxy::Stats& ps = proxy.stats();
  result.requests_total = ps.allowed + ps.blocked + ps.deferred + ps.rejected +
                          ps.shed + ps.header_violations + ps.cache_hits;
  result.requests_rejected = ps.rejected;
  result.requests_shed = ps.shed;
  if (HttpCache* cache = pipeline->cache()) {
    HttpCache::Stats cs = cache->stats();
    result.cache_hits = cs.hits;
    result.cache_misses = cs.misses;
  }
  return result;
}

}  // namespace mfhttp
