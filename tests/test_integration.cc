// Cross-module integration tests: the full MF-HTTP pipeline from raw touch
// events through gesture recognition, scroll prediction, flow control, the
// MITM proxy, and the simulated network — for both case studies.
#include <gtest/gtest.h>

#include <optional>

#include "core/middleware.h"
#include "gesture/synthetic.h"
#include "http/proxy.h"
#include "http/sim_http.h"
#include "util/stats.h"
#include "video/session.h"
#include "web/blocklist_controller.h"
#include "web/browser.h"
#include "web/corpus.h"
#include "web/experiment.h"

namespace mfhttp {
namespace {

const DeviceProfile kDevice = DeviceProfile::nexus6();

TEST(Integration, WebPipelineReleasesImagesOnScroll) {
  // Hand-wired version of the experiment runner, asserting intermediate
  // state at every stage.
  Simulator sim;
  Rng rng(21);
  WebPage page = generate_page(alexa25_specs()[16], kDevice, rng);  // qq-like

  Link::Params cp;
  cp.bandwidth = BandwidthTrace::constant(2e6);
  cp.latency_ms = 8;
  cp.sharing = Link::Sharing::kFairShare;
  Link client_link(sim, cp);
  Link::Params sp;
  sp.bandwidth = BandwidthTrace::constant(12.5e6);
  sp.latency_ms = 4;
  Link server_link(sim, sp);

  ObjectStore store;
  for (const PageResource& r : page.structure) store.put(parse_url(r.url)->path, r.size);
  for (const MediaObject& img : page.images)
    store.put(parse_url(img.top_version().url)->path, img.top_version().size);
  SimHttpOrigin origin(sim, &store, &server_link);
  MitmProxy proxy(sim, &origin, &client_link);

  Rect vp0{0, 0, kDevice.screen_w_px, kDevice.screen_h_px};
  Middleware::Params mp;
  mp.tracker.scroll = ScrollConfig(kDevice);
  mp.tracker.coverage_step_ms = 4.0;
  mp.tracker.content_bounds = page.bounds();
  mp.flow.weights = {1.0, 0.0};
  mp.flow.ignore_bandwidth_constraint = true;
  mp.initial_viewport = vp0;
  Middleware middleware(mp, page.images, BandwidthTrace::constant(2e6), &sim);
  BlockListController controller(page, vp0, &proxy);
  proxy.set_interceptor(&controller);
  middleware.set_policy_callback(
      [&](const ScrollAnalysis& a, const DownloadPolicy& p) {
        controller.on_policy(a, p);
      });
  TouchEventMonitor monitor(kDevice, [&](const Gesture& g) { middleware.on_gesture(g); });

  Browser browser(sim, &proxy, page);
  sim.schedule_at(0, [&] { browser.load(); });

  const std::size_t blocked_at_start = controller.block_list_size();
  ASSERT_GT(blocked_at_start, 0u);

  // Fire a strong downward scroll at t=1500ms.
  SwipeSpec spec;
  spec.start = {700, 1900};
  spec.direction = {0, -1};
  spec.speed_px_s = 9000;
  spec.start_time_ms = 1500;
  for (const TouchEvent& ev : synthesize_swipe(spec))
    sim.schedule_at(ev.time_ms, [&, ev] { monitor.on_touch_event(ev); });

  // Before the scroll: the proxy holds deferred image requests.
  sim.run_until(1400);
  EXPECT_GT(proxy.deferred_depth(), 0u);
  std::size_t deferred_before = proxy.deferred_depth();

  sim.run_until(60'000);

  // The scroll released some images...
  EXPECT_GT(controller.releases(), 0u);
  EXPECT_LT(controller.block_list_size(), blocked_at_start);
  EXPECT_LT(proxy.deferred_depth(), deferred_before);
  // ...and the middleware produced a real prediction.
  ASSERT_TRUE(middleware.last_analysis().has_value());
  EXPECT_GT(middleware.last_analysis()->prediction.displacement.y, 0);

  // Everything in the final viewport is loaded by session end.
  Rect final_vp = middleware.viewport_at(60'000);
  EXPECT_GT(browser.viewport_load_time(final_vp), 0);

  // Images that never appeared remain parked at the proxy, never transferred.
  EXPECT_GT(proxy.deferred_depth(), 0u);
  EXPECT_EQ(proxy.stats().blocked, 0u);
}

TEST(Integration, MultipleGesturesProgressivelyUnblock) {
  Rng rng(31);
  WebPage page = generate_page(alexa25_specs()[19], kDevice, rng);  // sohu-like
  Simulator sim;
  Link::Params cp;
  cp.bandwidth = BandwidthTrace::constant(2e6);
  cp.sharing = Link::Sharing::kFairShare;
  Link client_link(sim, cp);
  Link server_link(sim, Link::Params{});
  ObjectStore store;
  for (const PageResource& r : page.structure) store.put(parse_url(r.url)->path, r.size);
  for (const MediaObject& img : page.images)
    store.put(parse_url(img.top_version().url)->path, img.top_version().size);
  SimHttpOrigin origin(sim, &store, &server_link);
  MitmProxy proxy(sim, &origin, &client_link);

  Rect vp0{0, 0, kDevice.screen_w_px, kDevice.screen_h_px};
  Middleware::Params mp;
  mp.tracker.scroll = ScrollConfig(kDevice);
  mp.tracker.coverage_step_ms = 8.0;
  mp.tracker.content_bounds = page.bounds();
  mp.flow.ignore_bandwidth_constraint = true;
  mp.flow.weights = {1.0, 0.0};
  mp.initial_viewport = vp0;
  Middleware middleware(mp, page.images, BandwidthTrace::constant(2e6), &sim);
  BlockListController controller(page, vp0, &proxy);
  proxy.set_interceptor(&controller);
  middleware.set_policy_callback(
      [&](const ScrollAnalysis& a, const DownloadPolicy& p) {
        controller.on_policy(a, p);
      });
  TouchEventMonitor monitor(kDevice, [&](const Gesture& g) { middleware.on_gesture(g); });

  Browser browser(sim, &proxy, page);
  sim.schedule_at(0, [&] { browser.load(); });

  // Three successive swipes walk down the page.
  std::vector<std::size_t> blocked_after;
  TimeMs t = 1000;
  for (int i = 0; i < 3; ++i) {
    SwipeSpec spec;
    spec.start = {700, 1900};
    spec.direction = {0, -1};
    spec.speed_px_s = 8000;
    spec.start_time_ms = t;
    for (const TouchEvent& ev : synthesize_swipe(spec))
      sim.schedule_at(ev.time_ms, [&, ev] { monitor.on_touch_event(ev); });
    t += 4000;
    sim.run_until(t - 100);
    blocked_after.push_back(controller.block_list_size());
  }
  // Monotone shrinking of the block list as the user explores the page.
  EXPECT_GT(blocked_after[0], blocked_after[1]);
  EXPECT_GE(blocked_after[1], blocked_after[2]);
  EXPECT_GT(controller.releases(), 3u);
}

TEST(Integration, Fig7StyleSweepShowsConsistentImprovement) {
  // Mini version of the Fig. 7 experiment over 5 limited-viewport sites.
  Rng rng(4);
  auto corpus = generate_corpus(kDevice, rng);
  RunningStats reduction;
  int sites = 0;
  for (const WebPage& page : corpus) {
    if (page.viewport_ratio(kDevice.screen_h_px) >= 1.0) continue;
    if (++sites > 5) break;
    BrowsingSessionConfig cfg;
    cfg.fill_sample_ms = 0;
    cfg.seed = 7;
    cfg.enable_mfhttp = false;
    auto base = run_browsing_session(page, cfg);
    cfg.enable_mfhttp = true;
    auto mf = run_browsing_session(page, cfg);
    ASSERT_GT(base.initial_viewport_load_ms, 0) << page.site;
    ASSERT_GT(mf.initial_viewport_load_ms, 0) << page.site;
    double r = 1.0 - static_cast<double>(mf.initial_viewport_load_ms) /
                         static_cast<double>(base.initial_viewport_load_ms);
    EXPECT_GT(r, 0.0) << page.site;
    reduction.add(r);
  }
  ASSERT_EQ(sites, 6);  // 5 measured + the break increment
  // Mean reduction in the paper's ballpark (44.3%); accept a broad band.
  EXPECT_GT(reduction.mean(), 0.25);
  EXPECT_LT(reduction.mean(), 0.8);
}

TEST(Integration, VideoPipelineTouchToReplayConsistency) {
  // Drag gestures -> viewport trace -> MF-HTTP plans -> HTTP replay; the
  // bytes the plans claim must equal the bytes the proxy actually moves.
  VideoAsset::Params vp;
  vp.duration_s = 20;
  VideoAsset video(vp);

  ViewportTrace::Params tp;
  tp.device = kDevice;
  ViewportTrace trace(tp);
  VideoDragSource src(kDevice, {}, Rng(13));
  GestureRecognizer rec(kDevice);
  TimeMs now = 0;
  while (now < 20'000) {
    TouchTrace t = src.next_gesture(now);
    now = t.back().time_ms;
    for (const TouchEvent& ev : t)
      if (auto g = rec.on_touch_event(ev)) trace.add_gesture(*g);
  }

  MfHttpTileScheduler sched;
  auto bw = BandwidthTrace::constant(kb_per_sec(750));
  auto session = run_streaming_session(video, trace, bw, sched,
                                       StreamingSessionParams{});
  Bytes plan_bytes = 0;
  for (const SegmentRecord& r : session.segments) plan_bytes += r.bytes;
  EXPECT_EQ(plan_bytes, session.total_bytes);

  auto completion = replay_session_over_http(video, session, bw);
  int fetched_segments = 0;
  for (std::size_t i = 0; i < completion.size(); ++i)
    if (completion[i] >= 0) ++fetched_segments;
  int planned_segments = 0;
  for (const SegmentRecord& r : session.segments)
    if (r.viewport_quality >= 0) ++planned_segments;
  EXPECT_EQ(fetched_segments, planned_segments);
}

TEST(Integration, WholePipelineDeterministic) {
  Rng rng(8);
  WebPage page = generate_page(alexa25_specs()[13], kDevice, rng);
  BrowsingSessionConfig cfg;
  cfg.seed = 5;
  cfg.fill_sample_ms = 250;
  auto a = run_browsing_session(page, cfg);
  auto b = run_browsing_session(page, cfg);
  EXPECT_EQ(a.initial_viewport_load_ms, b.initial_viewport_load_ms);
  EXPECT_EQ(a.bytes_downloaded, b.bytes_downloaded);
  ASSERT_EQ(a.fill_timeline.size(), b.fill_timeline.size());
  for (std::size_t i = 0; i < a.fill_timeline.size(); ++i)
    EXPECT_DOUBLE_EQ(a.fill_timeline[i].second, b.fill_timeline[i].second);
}

}  // namespace
}  // namespace mfhttp
