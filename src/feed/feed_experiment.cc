#include "feed/feed_experiment.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "core/middleware.h"
#include "feed/feed_controller.h"
#include "gesture/recognizer.h"
#include "gesture/synthetic.h"
#include "http/fetch_pipeline.h"
#include "http/proxy.h"
#include "http/sim_http.h"
#include "sim/simulator.h"
#include "util/check.h"

namespace mfhttp {

namespace {

struct MediaLoadState {
  TimeMs complete_ms = -1;
  Bytes delivered = 0;
};

struct SettleEvent {
  TimeMs time_ms;
  Rect viewport;
};

}  // namespace

FeedSessionResult run_feed_session(const Feed& feed, const FeedSessionConfig& config) {
  Simulator sim;
  Rng rng(config.seed);

  const BandwidthTrace client_trace =
      config.client_bandwidth_trace.has_value()
          ? *config.client_bandwidth_trace
          : BandwidthTrace::constant(config.client_bandwidth);

  Link::Params cp;
  cp.bandwidth = client_trace;
  cp.latency_ms = config.client_latency_ms;
  cp.sharing = Link::Sharing::kFairShare;
  Link::Params sp;
  sp.bandwidth = BandwidthTrace::constant(config.server_bandwidth);
  sp.latency_ms = config.server_latency_ms;
  sp.sharing = Link::Sharing::kFairShare;
  Link server_link(sim, sp);

  ObjectStore store;
  for (const MediaObject& m : feed.media)
    for (const MediaVersion& v : m.versions)
      store.put(parse_url(v.url)->path, v.size);
  SimHttpOrigin origin(sim, &store, &server_link);
  FetchPipelineBuilder builder(sim, &origin);
  builder.client_link(cp);
  // Only engage fault wiring with an explicit plan: the historical feed
  // runner never consulted the ambient plan, and keeping that means the
  // pristine arms stay byte-identical under an ambient --scenario plan.
  if (config.fault_plan != nullptr) builder.with_faults(config.fault_plan);
  if (config.enable_cache) builder.with_cache(config.cache);
  if (config.admission.has_value()) builder.with_admission(*config.admission);
  std::unique_ptr<FetchPipeline> pipeline = builder.build();
  MitmProxy& proxy = pipeline->proxy();
  Link& client_link = pipeline->client_link();

  const Rect vp0{0, 0, config.device.screen_w_px, config.device.screen_h_px};

  ScrollTracker::Params tracker_params;
  tracker_params.scroll = ScrollConfig(config.device);
  tracker_params.scroll.fling.friction *= config.fling_friction_scale;
  tracker_params.coverage_step_ms = 4.0;
  tracker_params.content_bounds = feed.bounds();

  // Dynamic feed: only the first `initial_posts` media exist at open; the
  // rest are revealed in batches just before each fling.
  std::size_t revealed =
      (config.initial_posts > 0 &&
       static_cast<std::size_t>(config.initial_posts) < feed.media.size())
          ? static_cast<std::size_t>(config.initial_posts)
          : feed.media.size();
  const bool dynamic = revealed < feed.media.size();

  // Ground-truth trajectory (same in both arms).
  ScrollTracker gt_tracker(tracker_params);
  ViewportState gt_viewport(vp0, feed.bounds());
  GestureRecognizer gt_recognizer(config.device);
  std::vector<SettleEvent> settles;
  settles.push_back({0, vp0});  // the feed's opening state

  std::optional<Middleware> middleware;
  std::optional<FeedController> controller;
  std::optional<TouchEventMonitor> monitor;
  if (config.enable_mfhttp) {
    Middleware::Params mp;
    mp.tracker = tracker_params;
    mp.flow.weights = config.weights;
    mp.flow.ignore_bandwidth_constraint = true;  // feeds, like pages (§5.1.2)
    mp.initial_viewport = vp0;
    mp.gesture_uplink_ms = config.client_latency_ms;
    middleware.emplace(
        mp,
        std::vector<MediaObject>(feed.media.begin(),
                                 feed.media.begin() + revealed),
        client_trace, &sim);
    controller.emplace(feed, vp0, &proxy, revealed);
    proxy.set_interceptor(&*controller);
    middleware->set_policy_callback(
        [&](const ScrollAnalysis& a, const DownloadPolicy& p) {
          controller->on_policy(a, p);
        });
    monitor.emplace(config.device,
                    [&](const Gesture& g) { middleware->on_gesture(g); });
  }

  // The feed app requests every *present* post's media (top version) when it
  // opens; a dynamic feed requests the rest as batches are revealed.
  std::vector<MediaLoadState> states(feed.media.size());
  auto request_media = [&](std::size_t i) {
    FetchCallbacks cbs;
    cbs.on_complete = [&states, i, &sim](const FetchResult& r) {
      if (r.blocked) return;
      states[i].complete_ms = sim.now();
      states[i].delivered = r.body_size;
    };
    proxy.fetch(HttpRequest::get(feed.media[i].top_version().url), std::move(cbs));
  };
  sim.schedule_at(0, [&, initial = revealed] {
    for (std::size_t i = 0; i < initial; ++i) request_media(i);
  });

  // The flings.
  for (int k = 0; k < config.fling_count; ++k) {
    SwipeSpec spec;
    spec.start_time_ms = config.first_fling_ms + k * config.fling_interval_ms;
    // Reveal the next batch a beat before the finger lands, so the fling's
    // policy sees a feed that just grew — the knapsack's appended-suffix
    // case (prefix reuse: existing indices are untouched).
    if (dynamic && config.append_posts_per_fling > 0) {
      sim.schedule_at(std::max<TimeMs>(1, spec.start_time_ms - 16), [&] {
        std::size_t add =
            std::min<std::size_t>(config.append_posts_per_fling,
                                  feed.media.size() - revealed);
        if (add == 0) return;
        std::size_t first = revealed;
        revealed += add;
        if (middleware)
          middleware->append_objects(std::vector<MediaObject>(
              feed.media.begin() + first, feed.media.begin() + revealed));
        if (controller) controller->on_media_appended(first);
        for (std::size_t i = first; i < revealed; ++i) request_media(i);
      });
    }
    spec.start = {rng.uniform(config.device.screen_w_px * 0.3,
                              config.device.screen_w_px * 0.7),
                  config.device.screen_h_px * 0.75};
    spec.direction = {rng.uniform(-0.04, 0.04), -1};
    spec.speed_px_s = config.fling_speed_px_s;
    for (const TouchEvent& ev : synthesize_swipe(spec)) {
      sim.schedule_at(ev.time_ms, [&, ev] {
        if (monitor) monitor->on_touch_event(ev);
        if (auto g = gt_recognizer.on_touch_event(ev)) {
          gt_viewport.interrupt(g->down_time_ms);
          gt_viewport.apply_contact_pan(*g);
          if (g->scrolls()) {
            ScrollPrediction pred =
                gt_tracker.predict(*g, gt_viewport.at(g->up_time_ms));
            gt_viewport.begin_animation(pred);
            settles.push_back(
                {pred.start_time_ms + static_cast<TimeMs>(pred.duration_ms),
                 pred.final_viewport()});
          }
        }
      });
    }
  }

  sim.run_until(config.session_ms);

  // Score instant playback: for each clip, find the first *scroll-driven*
  // settle event whose viewport shows it; it plays instantly iff the FULL
  // clip had completely arrived by that moment. Clips already on screen when
  // the feed opens are the cold-start set — no scroll prediction can help
  // them, so they are excluded from the metric.
  FeedSessionResult result;
  result.clips_total = feed.clip_count();
  result.full_corpus_bytes = feed.total_full_bytes();
  result.bytes_downloaded = client_link.bytes_delivered_total();

  // Media never revealed (a dynamic session that ended early) cannot settle
  // for the user, so only the revealed prefix is scored.
  for (std::size_t i = 0; i < revealed; ++i) {
    const MediaObject& media = feed.media[i];
    bool is_clip = media.versions.size() > 1;
    if (!is_clip) continue;
    if (settles.front().viewport.overlaps(media.rect)) continue;  // cold start
    std::optional<TimeMs> settle_time;
    for (std::size_t k = 1; k < settles.size(); ++k) {
      if (settles[k].viewport.overlaps(media.rect)) {
        settle_time = settles[k].time_ms;
        break;
      }
    }
    if (!settle_time) continue;
    ++result.clips_settled;
    const MediaLoadState& st = states[i];
    bool full_arrived = st.complete_ms >= 0 && st.complete_ms <= *settle_time &&
                        st.delivered >= media.top_version().size;
    if (full_arrived) ++result.clips_instant;
  }
  result.instant_play_rate =
      result.clips_settled > 0
          ? static_cast<double>(result.clips_instant) / result.clips_settled
          : 0.0;

  std::size_t transferred = 0;
  for (const MediaLoadState& st : states)
    if (st.complete_ms >= 0) ++transferred;
  result.media_avoided = feed.media.size() - transferred;
  if (controller) result.thumbs_substituted = controller->stats().thumb_releases;
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
