// Tests for the web case study: corpus statistics (the Fig. 6 invariants),
// the browser loading model, the §5.1.2 block-list controller, and the
// end-to-end browsing session (MF-HTTP must beat the baseline on viewport
// load time), and its exact outcomes over the paper corpus (golden hashes).
#include <gtest/gtest.h>

#include <optional>

#include "core/middleware.h"
#include "http/proxy.h"
#include "http/sim_http.h"
#include "scenario/scenario_spec.h"
#include "scenario/wiring.h"
#include "util/fnv.h"
#include "web/blocklist_controller.h"
#include "web/browser.h"
#include "web/corpus.h"
#include "web/experiment.h"

namespace mfhttp {
namespace {

const DeviceProfile kDevice = DeviceProfile::nexus6();

// Indices of the page's images overlapping `viewport`.
std::vector<std::size_t> images_in(const WebPage& page, const Rect& viewport) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < page.images.size(); ++i)
    if (viewport.overlaps(page.images[i].rect)) out.push_back(i);
  return out;
}

// ---------- corpus / Fig. 6 invariants ----------

TEST(Corpus, TwentyFiveSites) {
  EXPECT_EQ(alexa25_specs().size(), 25u);
}

TEST(Corpus, ElevenFullFourteenLimited) {
  int full = 0, limited = 0;
  for (const SiteSpec& s : alexa25_specs())
    (s.viewport_ratio >= 1.0 ? full : limited)++;
  EXPECT_EQ(full, 11);
  EXPECT_EQ(limited, 14);
}

TEST(Corpus, MinimumRatioMatchesPaper) {
  double min_ratio = 1.0;
  std::string min_site;
  for (const SiteSpec& s : alexa25_specs())
    if (s.viewport_ratio < min_ratio) {
      min_ratio = s.viewport_ratio;
      min_site = s.name;
    }
  EXPECT_NEAR(min_ratio, 0.041, 1e-9);  // the paper's Sohu observation
  EXPECT_EQ(min_site, "sohu");
}

TEST(Corpus, GeneratedPageMatchesSpec) {
  Rng rng(1);
  const SiteSpec& spec = alexa25_specs()[11];  // first limited site
  WebPage page = generate_page(spec, kDevice, rng);
  EXPECT_EQ(page.site, spec.name);
  EXPECT_EQ(page.images.size(), static_cast<std::size_t>(spec.image_count));
  EXPECT_DOUBLE_EQ(page.width, kDevice.screen_w_px);
  EXPECT_NEAR(page.viewport_ratio(kDevice.screen_h_px), spec.viewport_ratio, 1e-9);
  ASSERT_GE(page.structure.size(), 2u);
  EXPECT_EQ(page.structure[0].kind, ResourceKind::kHtml);
}

TEST(Corpus, ImagesInsidePageBounds) {
  Rng rng(2);
  for (const WebPage& page : generate_corpus(kDevice, rng)) {
    for (const MediaObject& img : page.images) {
      EXPECT_GE(img.rect.x, 0) << page.site;
      EXPECT_LE(img.rect.right(), page.width + 1e-6) << page.site;
      EXPECT_GE(img.rect.y, -1e-6) << page.site;
      EXPECT_LE(img.rect.bottom(), page.height + 1e-6) << page.site;
      EXPECT_GT(img.top_version().size, 0) << page.site;
    }
  }
}

TEST(Corpus, DeterministicForSeed) {
  Rng a(7), b(7);
  auto ca = generate_corpus(kDevice, a);
  auto cb = generate_corpus(kDevice, b);
  ASSERT_EQ(ca.size(), cb.size());
  for (std::size_t i = 0; i < ca.size(); ++i) {
    ASSERT_EQ(ca[i].images.size(), cb[i].images.size());
    for (std::size_t k = 0; k < ca[i].images.size(); ++k) {
      EXPECT_EQ(ca[i].images[k].rect, cb[i].images[k].rect);
      EXPECT_EQ(ca[i].images[k].top_version().size,
                cb[i].images[k].top_version().size);
    }
  }
}

TEST(Corpus, FullViewportSitesHaveNoBelowFoldImages) {
  Rng rng(3);
  for (const SiteSpec& spec : alexa25_specs()) {
    if (spec.viewport_ratio < 1.0) continue;
    Rng site_rng = rng.fork();
    WebPage page = generate_page(spec, kDevice, site_rng);
    Rect viewport{0, 0, kDevice.screen_w_px, kDevice.screen_h_px};
    EXPECT_EQ(images_in(page, viewport).size(), page.images.size()) << spec.name;
  }
}

TEST(WebPage, ImagesInViewportQuery) {
  WebPage page;
  page.width = 1000;
  page.height = 10'000;
  page.images.push_back(make_single_version_object("a", {0, 100, 500, 300}, 1, "u"));
  page.images.push_back(make_single_version_object("b", {0, 5000, 500, 300}, 1, "u"));
  auto in = images_in(page, {0, 0, 1000, 2000});
  ASSERT_EQ(in.size(), 1u);
  EXPECT_EQ(in[0], 0u);
}

// ---------- Browser over the simulated stack ----------

struct WebFixture : public ::testing::Test {
  void SetUp() override {
    Rng rng(5);
    page = generate_page(alexa25_specs()[19], kDevice, rng);  // sohu-like

    Link::Params cp;
    cp.bandwidth = BandwidthTrace::constant(2e6);
    cp.latency_ms = 8;
    cp.sharing = Link::Sharing::kFairShare;
    client_link.emplace(sim, cp);

    Link::Params sp;
    sp.bandwidth = BandwidthTrace::constant(12.5e6);
    sp.latency_ms = 4;
    sp.sharing = Link::Sharing::kFairShare;
    server_link.emplace(sim, sp);

    for (const PageResource& r : page.structure)
      store.put(parse_url(r.url)->path, r.size);
    for (const MediaObject& img : page.images)
      store.put(parse_url(img.top_version().url)->path, img.top_version().size);

    origin.emplace(sim, &store, &*server_link);
    proxy.emplace(sim, &*origin, &*client_link);
  }

  Simulator sim;
  WebPage page;
  ObjectStore store;
  std::optional<Link> client_link, server_link;
  std::optional<SimHttpOrigin> origin;
  std::optional<MitmProxy> proxy;
};

TEST_F(WebFixture, BrowserLoadsWholePageEventually) {
  Browser browser(sim, &*proxy, page);
  browser.load();
  sim.run();
  EXPECT_TRUE(browser.structure_complete());
  EXPECT_EQ(browser.images_completed(), page.images.size());
  EXPECT_EQ(browser.images_blocked(), 0u);
  Rect vp{0, 0, kDevice.screen_w_px, kDevice.screen_h_px};
  EXPECT_GT(browser.viewport_load_time(vp), 0);
  EXPECT_DOUBLE_EQ(browser.viewport_fill_fraction(vp), 1.0);
}

TEST_F(WebFixture, ImagesWaitForHtml) {
  Browser browser(sim, &*proxy, page);
  browser.load();
  // Before the HTML completes no image request exists.
  sim.run_until(5);
  for (const ResourceLoadState& s : browser.image_states())
    EXPECT_FALSE(s.requested());
  sim.run();
  for (const ResourceLoadState& s : browser.image_states())
    EXPECT_TRUE(s.requested());
}

TEST_F(WebFixture, ViewportLoadTimeIncompleteIsMinusOne) {
  Browser browser(sim, &*proxy, page);
  browser.load();
  sim.run_until(20);
  Rect vp{0, 0, kDevice.screen_w_px, kDevice.screen_h_px};
  EXPECT_EQ(browser.viewport_load_time(vp), -1);
}

TEST_F(WebFixture, FillFractionGrowsMonotonically) {
  Browser browser(sim, &*proxy, page);
  browser.load();
  Rect vp{0, 0, kDevice.screen_w_px, kDevice.screen_h_px};
  double prev = -1;
  for (TimeMs t = 0; t <= 20'000; t += 500) {
    sim.run_until(t);
    double f = browser.viewport_fill_fraction(vp);
    EXPECT_GE(f, prev);
    prev = f;
  }
}

TEST_F(WebFixture, EmptyViewportFillIsOne) {
  Browser browser(sim, &*proxy, page);
  // A region with no images counts as fully filled.
  EXPECT_DOUBLE_EQ(browser.viewport_fill_fraction({-5000, -5000, 10, 10}), 1.0);
}

// ---------- BlockListController ----------

TEST_F(WebFixture, BlockListStartsWithOutOfViewportImages) {
  Rect vp{0, 0, kDevice.screen_w_px, kDevice.screen_h_px};
  BlockListController controller(page, vp, &*proxy);
  std::size_t out_of_vp = page.images.size() - images_in(page, vp).size();
  EXPECT_EQ(controller.block_list_size(), out_of_vp);
  for (std::size_t i : images_in(page, vp))
    EXPECT_FALSE(controller.is_blocked(page.images[i].top_version().url));
}

TEST_F(WebFixture, InterceptorDefersBlockedAllowsRest) {
  Rect vp{0, 0, kDevice.screen_w_px, kDevice.screen_h_px};
  BlockListController controller(page, vp, &*proxy);
  // Structural resource: allowed.
  auto d = controller.on_request(HttpRequest::get(page.structure[0].url));
  EXPECT_EQ(d.action, InterceptDecision::Action::kAllow);
  // In-viewport image: allowed.
  std::size_t in_idx = images_in(page, vp).front();
  d = controller.on_request(HttpRequest::get(page.images[in_idx].top_version().url));
  EXPECT_EQ(d.action, InterceptDecision::Action::kAllow);
  // Below-the-fold image: deferred.
  std::size_t out_idx = 0;
  for (std::size_t i = 0; i < page.images.size(); ++i)
    if (!vp.overlaps(page.images[i].rect)) out_idx = i;
  d = controller.on_request(HttpRequest::get(page.images[out_idx].top_version().url));
  EXPECT_EQ(d.action, InterceptDecision::Action::kDefer);
}

TEST_F(WebFixture, PolicyReleasesScrollRelevantImages) {
  Rect vp{0, 0, kDevice.screen_w_px, kDevice.screen_h_px};
  BlockListController controller(page, vp, &*proxy);
  std::size_t blocked_before = controller.block_list_size();

  // Build a scroll analysis with the real tracker.
  ScrollTracker::Params tp;
  tp.scroll = ScrollConfig(kDevice);
  tp.coverage_step_ms = 4.0;
  tp.content_bounds = page.bounds();
  ScrollTracker tracker(tp);
  Gesture g;
  g.kind = GestureKind::kFling;
  g.down_time_ms = 0;
  g.up_time_ms = 150;
  g.release_velocity = {0, -8000};
  ScrollPrediction pred = tracker.predict(g, vp);
  ScrollAnalysis analysis = tracker.analyze(pred, page.images);
  FlowController::Params fp;
  fp.weights = {1.0, 0.0};
  fp.ignore_bandwidth_constraint = true;
  DownloadPolicy policy =
      FlowController(fp).optimize(analysis, page.images, BandwidthTrace::constant(2e6));

  controller.on_policy(analysis, policy);
  EXPECT_LT(controller.block_list_size(), blocked_before);
  // Everything in the final viewport is now unblocked.
  for (std::size_t i : images_in(page, pred.final_viewport()))
    EXPECT_FALSE(controller.is_blocked(page.images[i].top_version().url)) << i;
  // Images far beyond the sweep stay blocked.
  for (std::size_t i = 0; i < page.images.size(); ++i) {
    if (page.images[i].rect.y > pred.final_viewport().bottom() + 10) {
      EXPECT_TRUE(controller.is_blocked(page.images[i].top_version().url)) << i;
    }
  }
}

// ---------- end-to-end browsing sessions ----------

TEST(BrowsingSession, MfHttpReducesViewportLoadTime) {
  Rng rng(11);
  WebPage page = generate_page(alexa25_specs()[19], kDevice, rng);  // sohu-like
  BrowsingSessionConfig base;
  base.enable_mfhttp = false;
  base.fill_sample_ms = 0;
  BrowsingSessionConfig treat = base;
  treat.enable_mfhttp = true;

  BrowsingSessionResult r_base = run_browsing_session(page, base);
  BrowsingSessionResult r_mf = run_browsing_session(page, treat);

  ASSERT_GT(r_base.initial_viewport_load_ms, 0);
  ASSERT_GT(r_mf.initial_viewport_load_ms, 0);
  // The headline effect: prioritizing viewport objects cuts viewport load
  // time substantially (the paper reports 44.3% on average).
  EXPECT_LT(r_mf.initial_viewport_load_ms, r_base.initial_viewport_load_ms * 0.8);
  // And MF-HTTP transfers fewer bytes (never-visible images stay parked).
  EXPECT_LT(r_mf.bytes_downloaded, r_base.bytes_downloaded);
  EXPECT_GT(r_mf.images_avoided, 0u);
  EXPECT_EQ(r_base.images_avoided, 0u);
}

TEST(BrowsingSession, FullViewportSiteUnaffected) {
  Rng rng(11);
  WebPage page = generate_page(alexa25_specs()[0], kDevice, rng);  // google-like
  BrowsingSessionConfig base;
  base.enable_mfhttp = false;
  base.fill_sample_ms = 0;
  BrowsingSessionConfig treat = base;
  treat.enable_mfhttp = true;

  BrowsingSessionResult r_base = run_browsing_session(page, base);
  BrowsingSessionResult r_mf = run_browsing_session(page, treat);
  ASSERT_GT(r_base.initial_viewport_load_ms, 0);
  ASSERT_GT(r_mf.initial_viewport_load_ms, 0);
  // Nothing to block: load times within a whisker of each other.
  EXPECT_NEAR(static_cast<double>(r_mf.initial_viewport_load_ms),
              static_cast<double>(r_base.initial_viewport_load_ms),
              static_cast<double>(r_base.initial_viewport_load_ms) * 0.05 + 20);
  EXPECT_EQ(r_mf.images_avoided, 0u);
}

TEST(BrowsingSession, FinalViewportLoadsAfterScroll) {
  Rng rng(13);
  WebPage page = generate_page(alexa25_specs()[15], kDevice, rng);
  BrowsingSessionConfig cfg;
  cfg.enable_mfhttp = true;
  cfg.fill_sample_ms = 0;
  BrowsingSessionResult r = run_browsing_session(page, cfg);
  ASSERT_GT(r.final_viewport_load_ms, 0);
  EXPECT_GE(r.final_viewport_load_ms, r.initial_viewport_load_ms);
  EXPECT_GT(r.final_viewport.y, r.initial_viewport.y);  // it did scroll
}

TEST(BrowsingSession, FillTimelineRecordedAndMonotoneBeforeScroll) {
  Rng rng(17);
  WebPage page = generate_page(alexa25_specs()[12], kDevice, rng);
  BrowsingSessionConfig cfg;
  cfg.enable_mfhttp = true;
  cfg.fill_sample_ms = 100;
  BrowsingSessionResult r = run_browsing_session(page, cfg);
  ASSERT_FALSE(r.fill_timeline.empty());
  // Samples cover the session and end fully loaded in the final viewport.
  EXPECT_EQ(r.fill_timeline.front().first, 0);
  EXPECT_NEAR(r.fill_timeline.back().second, 1.0, 1e-9);
}

TEST(BrowsingSession, DeterministicForSeed) {
  Rng rng(23);
  WebPage page = generate_page(alexa25_specs()[14], kDevice, rng);
  BrowsingSessionConfig cfg;
  cfg.enable_mfhttp = true;
  cfg.seed = 99;
  cfg.fill_sample_ms = 0;
  BrowsingSessionResult a = run_browsing_session(page, cfg);
  BrowsingSessionResult b = run_browsing_session(page, cfg);
  EXPECT_EQ(a.initial_viewport_load_ms, b.initial_viewport_load_ms);
  EXPECT_EQ(a.final_viewport_load_ms, b.final_viewport_load_ms);
  EXPECT_EQ(a.bytes_downloaded, b.bytes_downloaded);
}

// ---------- golden outcomes ----------

// The first `pages` corpus pages x repeats 0-2 at paper_default, seed 1,
// each session's outcome columns folded exactly as mfbench's browse_paper
// workload folds them (bench/e2e/browse_paper.cc). Simulated time only, so
// the hash is exact on every machine.
std::uint64_t browse_outcome_hash(std::size_t pages) {
  Rng rng(42);
  const std::vector<WebPage> corpus = generate_corpus(DeviceProfile::nexus6(), rng);
  scenario::ScenarioSpec spec = scenario::ScenarioSpec::paper_default();
  spec.seed = 1;
  Fnv fp;
  for (std::size_t p = 0; p < pages; ++p) {
    for (int repeat = 0; repeat < 3; ++repeat) {
      const BrowsingSessionResult r = run_browsing_session(
          corpus[p], scenario::browsing_config(spec, corpus[p], repeat));
      fp.u64(static_cast<std::uint64_t>(r.initial_viewport_load_ms));
      fp.u64(static_cast<std::uint64_t>(r.final_viewport_load_ms));
      fp.u64(static_cast<std::uint64_t>(r.bytes_downloaded));
      fp.u64(r.images_completed);
      fp.u64(r.stranded_deferred);
    }
  }
  return fp.h;
}

TEST(BrowsingGolden, QuickCorpusMatchesMfbenchFingerprint) {
  // mfbench --workload browse_paper --quick --seed 1 prints this fingerprint.
  EXPECT_EQ(browse_outcome_hash(5), 0xf443e6ed800627ffull);
}

TEST(BrowsingGolden, FullCorpusOutcomesUnchanged) {
  // Recorded before the allocation-light session (DESIGN.md §24): any change
  // to a load time, a byte count, a completed image or a parked request in
  // any of the 75 sessions moves it.
  EXPECT_EQ(browse_outcome_hash(25), 0x241a7115f34283d4ull);
}

}  // namespace
}  // namespace mfhttp
