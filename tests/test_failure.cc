// Failure-injection tests: network outages, missing objects, interrupted
// scrolls, and pathological configurations — the system must degrade, not
// wedge.
#include <gtest/gtest.h>

#include <optional>

#include "core/middleware.h"
#include "gesture/synthetic.h"
#include "http/proxy.h"
#include "http/sim_http.h"
#include "web/blocklist_controller.h"
#include "web/browser.h"
#include "web/corpus.h"
#include "web/experiment.h"

namespace mfhttp {
namespace {

const DeviceProfile kDevice = DeviceProfile::nexus6();

TEST(FailureInjection, LinkOutageStallsThenRecovers) {
  Simulator sim;
  // 2 s of service, 3 s of dead air, then service again.
  std::vector<BytesPerSec> slots = {100'000, 100'000, 0, 0, 0, 100'000, 100'000};
  Link::Params lp;
  lp.bandwidth = BandwidthTrace::from_slots(slots, 1000);
  Link link(sim, lp);
  Bytes received = 0;
  TimeMs done = -1;
  link.submit(300'000, [&](Bytes chunk, bool complete) {
    received += chunk;
    if (complete) done = sim.now();
  });
  sim.run_until(4000);
  // During the outage nothing moves beyond the first 200 KB.
  EXPECT_NEAR(static_cast<double>(received), 200'000, 4'000);
  sim.run();
  EXPECT_EQ(received, 300'000);
  // Last 100 KB needs 1 s of restored service: completes around t=6 s.
  EXPECT_GT(done, 5900);
  EXPECT_LT(done, 6200);
}

TEST(FailureInjection, MissingImagesDontBlockViewportLoadAccounting) {
  // A page whose origin is missing half the images: the browser records the
  // 404s (tiny error bodies) and viewport load time still resolves.
  Simulator sim;
  Rng rng(5);
  WebPage page = generate_page(alexa25_specs()[13], kDevice, rng);  // wikipedia
  Link client_link(sim, Link::Params{});
  Link server_link(sim, Link::Params{});
  ObjectStore store;
  for (const PageResource& r : page.structure) store.put(parse_url(r.url)->path, r.size);
  for (std::size_t i = 0; i < page.images.size(); i += 2)  // every other image
    store.put(parse_url(page.images[i].top_version().url)->path,
              page.images[i].top_version().size);
  SimHttpOrigin origin(sim, &store, &server_link);
  MitmProxy proxy(sim, &origin, &client_link);
  Browser browser(sim, &proxy, page);
  browser.load();
  sim.run();
  // Every image request completed — some as 404s with small bodies.
  EXPECT_EQ(browser.images_completed(), page.images.size());
  int not_found = 0;
  for (const ResourceLoadState& s : browser.image_states())
    if (s.status == 404) ++not_found;
  EXPECT_EQ(not_found, static_cast<int>(page.images.size() / 2));
  EXPECT_GT(browser.viewport_load_time(
                {0, 0, kDevice.screen_w_px, kDevice.screen_h_px}),
            0);
}

TEST(FailureInjection, BandwidthCollapseMidSessionStillTerminates) {
  Rng rng(8);
  WebPage page = generate_page(alexa25_specs()[19], kDevice, rng);  // sohu
  BrowsingSessionConfig cfg;
  cfg.enable_mfhttp = true;
  cfg.fill_sample_ms = 0;
  cfg.client_bandwidth = 50'000;  // starved WLAN: 50 KB/s
  cfg.session_ms = 20'000;
  BrowsingSessionResult r = run_browsing_session(page, cfg);
  // 20 s x 50 KB/s = 1 MB: nowhere near enough for the viewport images plus
  // structure; the session must still return with consistent accounting.
  EXPECT_LE(r.bytes_downloaded, static_cast<Bytes>(50'000.0 * 20 * 1.1));
  EXPECT_EQ(r.initial_viewport_load_ms, -1);  // honestly incomplete
  EXPECT_GT(r.images_avoided, 0u);
}

TEST(FailureInjection, RapidGestureBurstsKeepStateConsistent) {
  // Ten flings in quick succession, each interrupting the previous
  // animation; the middleware must track through all of them.
  Rng rng(3);
  WebPage page = generate_page(alexa25_specs()[16], kDevice, rng);
  Middleware::Params mp;
  mp.tracker.scroll = ScrollConfig(kDevice);
  mp.tracker.coverage_step_ms = 8.0;
  mp.tracker.content_bounds = page.bounds();
  mp.flow.ignore_bandwidth_constraint = true;
  mp.initial_viewport = {0, 0, kDevice.screen_w_px, kDevice.screen_h_px};
  Middleware mw(mp, page.images, BandwidthTrace::constant(2e6), nullptr);
  int policies = 0;
  mw.set_policy_callback([&](const ScrollAnalysis& a, const DownloadPolicy&) {
    ++policies;
    // Viewport must always stay within the page.
    EXPECT_GE(a.prediction.viewport0.y, -1e-6);
    EXPECT_LE(a.prediction.final_viewport().bottom(), page.height + 1e-6);
  });
  TouchEventMonitor monitor(kDevice, [&](const Gesture& g) { mw.on_gesture(g); });
  TimeMs t = 100;
  for (int i = 0; i < 10; ++i) {
    SwipeSpec spec;
    spec.start = {700, 1900};
    spec.direction = {0, i % 3 == 2 ? 1.0 : -1.0};  // mostly down, some up
    spec.speed_px_s = 6000 + 1500 * i;
    spec.start_time_ms = t;
    monitor.feed(synthesize_swipe(spec));
    t += 300;  // far shorter than any fling animation
  }
  EXPECT_EQ(policies, 10);
}

TEST(FailureInjection, CancelledFetchesLeaveProxyClean) {
  Simulator sim;
  Link client_link(sim, Link::Params{});
  Link server_link(sim, Link::Params{});
  ObjectStore store;
  store.put("/x", 500'000);
  SimHttpOrigin origin(sim, &store, &server_link);
  MitmProxy proxy(sim, &origin, &client_link);
  std::vector<HttpFetcher::FetchId> ids;
  for (int i = 0; i < 20; ++i) {
    FetchCallbacks cbs;
    cbs.on_complete = [](const FetchResult&) { FAIL() << "cancelled fetch completed"; };
    ids.push_back(proxy.fetch(HttpRequest::get("http://o.example/x"), std::move(cbs)));
  }
  sim.schedule_at(10, [&] {
    for (auto id : ids) EXPECT_TRUE(proxy.cancel(id));
  });
  sim.run();
  EXPECT_EQ(origin.inflight(), 0u);
}

TEST(FailureInjection, ZeroImagePageWorksEndToEnd) {
  Rng rng(2);
  WebPage page = generate_page(alexa25_specs()[0], kDevice, rng);  // google-like
  page.images.clear();
  BrowsingSessionConfig cfg;
  cfg.enable_mfhttp = true;
  cfg.fill_sample_ms = 0;
  BrowsingSessionResult r = run_browsing_session(page, cfg);
  EXPECT_GT(r.initial_viewport_load_ms, 0);  // structure alone
  EXPECT_EQ(r.images_total, 0u);
}

TEST(FailureInjection, DeferredRequestsSurviveToSessionEndWithoutLeaks) {
  Simulator sim;
  Link client_link(sim, Link::Params{});
  Link server_link(sim, Link::Params{});
  ObjectStore store;
  store.put("/img", 1000);
  SimHttpOrigin origin(sim, &store, &server_link);
  MitmProxy proxy(sim, &origin, &client_link);

  class DeferAll : public Interceptor {
   public:
    InterceptDecision on_request(const HttpRequest&) override {
      return InterceptDecision::defer();
    }
  } defer_all;
  proxy.set_interceptor(&defer_all);

  int completions = 0;
  for (int i = 0; i < 50; ++i) {
    FetchCallbacks cbs;
    cbs.on_complete = [&](const FetchResult&) { ++completions; };
    proxy.fetch(HttpRequest::get("http://o.example/img"), std::move(cbs));
  }
  sim.run_until(60'000);
  EXPECT_EQ(completions, 0);
  EXPECT_EQ(proxy.deferred_depth(), 50u);
  // Releasing them at teardown flushes everything exactly once.
  EXPECT_EQ(proxy.release("http://o.example/img"), 50u);
  sim.run();
  EXPECT_EQ(completions, 50);
}

}  // namespace
}  // namespace mfhttp
