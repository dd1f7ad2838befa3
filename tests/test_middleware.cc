// Tests for ViewportState, TouchEventMonitor, and the Middleware assembly
// (Fig. 5): gesture -> tracker -> flow controller -> policy callback, with
// animation interruption on new touches (§4.2).
#include <gtest/gtest.h>

#include "core/middleware.h"
#include "gesture/synthetic.h"

namespace mfhttp {
namespace {

const DeviceProfile kDevice = DeviceProfile::nexus6();
const Rect kViewport{0, 0, 1440, 2560};
const Rect kPage{0, 0, 1440, 40'000};

Gesture fling_gesture(Vec2 v, TimeMs up, Vec2 finger_travel = {}) {
  Gesture g;
  g.kind = GestureKind::kFling;
  g.down_time_ms = up - 150;
  g.up_time_ms = up;
  g.down_pos = {700, 1800};
  g.up_pos = g.down_pos + finger_travel;
  g.release_velocity = v;
  return g;
}

ScrollTracker::Params tracker_params() {
  ScrollTracker::Params p;
  p.scroll = ScrollConfig(kDevice);
  p.coverage_step_ms = 4.0;
  p.content_bounds = kPage;
  return p;
}

// ---------- ViewportState ----------

TEST(ViewportState, StaticWithoutAnimation) {
  ViewportState state(kViewport, kPage);
  EXPECT_EQ(state.at(0), kViewport);
  EXPECT_EQ(state.at(99'999), kViewport);
}

TEST(ViewportState, ContactPanMovesOppositeFinger) {
  ViewportState state(kViewport, kPage);
  Gesture g = fling_gesture({0, -3000}, 1000, {0, -500});  // finger up 500 px
  state.apply_contact_pan(g);
  EXPECT_DOUBLE_EQ(state.base_viewport().y, 500);  // page scrolled down
}

TEST(ViewportState, ContactPanClampedAtTop) {
  ViewportState state(kViewport, kPage);
  Gesture g = fling_gesture({0, 3000}, 1000, {0, 800});  // finger down at top
  state.apply_contact_pan(g);
  EXPECT_DOUBLE_EQ(state.base_viewport().y, 0);  // cannot scroll above page
}

TEST(ViewportState, AnimationAdvancesViewport) {
  ViewportState state(kViewport, kPage);
  ScrollTracker tracker(tracker_params());
  Gesture g = fling_gesture({0, -4000}, 1000);
  ScrollPrediction pred = tracker.predict(g, kViewport);
  state.begin_animation(pred);

  Rect early = state.at(1000 + 50);
  Rect late = state.at(1000 + static_cast<TimeMs>(pred.duration_ms));
  EXPECT_GT(early.y, 0);
  EXPECT_GT(late.y, early.y);
  // `late` samples at the integer millisecond just below the real-valued
  // animation duration, so allow sub-pixel slack.
  EXPECT_NEAR(late.y, pred.final_viewport().y, 0.05);
  // Before the animation: initial viewport.
  EXPECT_EQ(state.at(900), kViewport);
}

TEST(ViewportState, InterruptFreezesMidAnimation) {
  ViewportState state(kViewport, kPage);
  ScrollTracker tracker(tracker_params());
  ScrollPrediction pred = tracker.predict(fling_gesture({0, -4000}, 1000), kViewport);
  state.begin_animation(pred);

  TimeMs mid = 1000 + static_cast<TimeMs>(pred.duration_ms / 3);
  Rect at_interrupt = state.interrupt(mid);
  EXPECT_GT(at_interrupt.y, 0);
  EXPECT_LT(at_interrupt.y, pred.final_viewport().y);
  // Frozen thereafter.
  EXPECT_EQ(state.at(mid + 10'000), at_interrupt);
  EXPECT_FALSE(state.active_animation().has_value());
}

// ---------- TouchEventMonitor ----------

TEST(TouchEventMonitor, EmitsGesturesFromTraces) {
  std::vector<Gesture> gestures;
  TouchEventMonitor monitor(kDevice, [&](const Gesture& g) { gestures.push_back(g); });
  SwipeSpec spec;
  spec.start = {700, 1800};
  spec.speed_px_s = 4000;
  monitor.feed(synthesize_swipe(spec));
  ASSERT_EQ(gestures.size(), 1u);
  EXPECT_EQ(gestures[0].kind, GestureKind::kFling);

  monitor.feed(synthesize_tap({700, 1200}, 3000));
  ASSERT_EQ(gestures.size(), 2u);
  EXPECT_EQ(gestures[1].kind, GestureKind::kClick);
}

// ---------- Middleware ----------

std::vector<MediaObject> column_objects(int count) {
  std::vector<MediaObject> objects;
  for (int i = 0; i < count; ++i)
    objects.push_back(make_single_version_object(
        "o" + std::to_string(i), Rect{100, i * 600.0, 800, 400}, 50'000,
        "http://s.example/i" + std::to_string(i)));
  return objects;
}

Middleware::Params middleware_params() {
  Middleware::Params p;
  p.tracker = tracker_params();
  p.flow.weights = {1.0, 0.0};
  p.initial_viewport = kViewport;
  return p;
}

TEST(Middleware, ScrollGestureProducesPolicy) {
  const std::vector<MediaObject> objects = column_objects(30);
  Middleware mw(middleware_params(), objects,
                BandwidthTrace::constant(1e6), nullptr);
  int calls = 0;
  mw.set_policy_callback([&](const ScrollAnalysis& a, const DownloadPolicy& p) {
    ++calls;
    EXPECT_FALSE(p.decisions.empty());
    EXPECT_GT(a.prediction.displacement.norm(), 0);
  });
  mw.on_gesture(fling_gesture({0, -4000}, 1000));
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(mw.last_policy().has_value());
  EXPECT_TRUE(mw.last_analysis().has_value());
}

TEST(Middleware, LastAnalysisInsideCallbackIsTheDeliveredGesture) {
  const std::vector<MediaObject> objects = column_objects(60);
  Middleware mw(middleware_params(), objects,
                BandwidthTrace::constant(1e6), nullptr);
  std::vector<TimeMs> seen;
  mw.set_policy_callback([&](const ScrollAnalysis& a, const DownloadPolicy& p) {
    ASSERT_TRUE(mw.last_analysis().has_value());
    ASSERT_TRUE(mw.last_policy().has_value());
    const ScrollAnalysis& stored = *mw.last_analysis();
    EXPECT_EQ(stored.prediction.start_time_ms, a.prediction.start_time_ms);
    EXPECT_EQ(stored.listed.size(), a.listed.size());
    EXPECT_EQ(mw.last_policy()->decisions.size(), p.decisions.size());
    EXPECT_EQ(mw.last_policy()->objective, p.objective);
    seen.push_back(stored.prediction.start_time_ms);
  });
  mw.on_gesture(fling_gesture({0, -4000}, 1000));
  mw.on_gesture(fling_gesture({0, -3000}, 5000));
  EXPECT_EQ(seen, (std::vector<TimeMs>{1000, 5000}));
}

TEST(Middleware, ClickDoesNotProducePolicy) {
  const std::vector<MediaObject> objects = column_objects(10);
  Middleware mw(middleware_params(), objects,
                BandwidthTrace::constant(1e6), nullptr);
  int calls = 0;
  mw.set_policy_callback([&](const ScrollAnalysis&, const DownloadPolicy&) { ++calls; });
  Gesture click;
  click.kind = GestureKind::kClick;
  click.down_time_ms = 100;
  click.up_time_ms = 160;
  mw.on_gesture(click);
  EXPECT_EQ(calls, 0);
  EXPECT_FALSE(mw.last_policy().has_value());
}

TEST(Middleware, ViewportTracksAcrossGestures) {
  const std::vector<MediaObject> objects = column_objects(60);
  Middleware mw(middleware_params(), objects,
                BandwidthTrace::constant(1e6), nullptr);
  mw.on_gesture(fling_gesture({0, -4000}, 1000, {0, -300}));
  const ScrollPrediction pred1 = mw.last_analysis()->prediction;  // copy
  // Contact pan (300 px) applied before the animation.
  EXPECT_DOUBLE_EQ(pred1.viewport0.y, 300);

  // Second gesture long after the first settled: starts from its rest.
  TimeMs later = 1000 + static_cast<TimeMs>(pred1.duration_ms) + 2000;
  mw.on_gesture(fling_gesture({0, -4000}, later, {0, -300}));
  const ScrollPrediction& pred2 = mw.last_analysis()->prediction;
  EXPECT_NEAR(pred2.viewport0.y, pred1.final_viewport().y + 300, 0.05);
}

TEST(Middleware, NewGestureInterruptsAnimation) {
  const std::vector<MediaObject> objects = column_objects(60);
  Middleware mw(middleware_params(), objects,
                BandwidthTrace::constant(1e6), nullptr);
  mw.on_gesture(fling_gesture({0, -8000}, 1000));
  const ScrollPrediction pred1 = mw.last_analysis()->prediction;

  // Second touch lands mid-animation: §4.2 aborts the simulation there.
  TimeMs interrupt_down = 1000 + static_cast<TimeMs>(pred1.duration_ms / 4);
  Gesture g2 = fling_gesture({0, -4000}, interrupt_down + 150);
  g2.down_time_ms = interrupt_down;
  mw.on_gesture(g2);
  const ScrollPrediction& pred2 = mw.last_analysis()->prediction;
  double frozen_y = pred1.viewport_at(static_cast<double>(pred1.duration_ms) / 4).y;
  EXPECT_NEAR(pred2.viewport0.y, frozen_y, 2.0);
  EXPECT_LT(pred2.viewport0.y, pred1.final_viewport().y);
}

TEST(Middleware, GestureUplinkDelayDefersProcessing) {
  Simulator sim;
  Middleware::Params params = middleware_params();
  params.gesture_uplink_ms = 25;
  const std::vector<MediaObject> objects = column_objects(20);
  Middleware mw(params, objects, BandwidthTrace::constant(1e6), &sim);
  int calls = 0;
  mw.set_policy_callback([&](const ScrollAnalysis&, const DownloadPolicy&) { ++calls; });
  sim.schedule_at(100, [&] { mw.on_gesture(fling_gesture({0, -4000}, 100)); });
  sim.run_until(124);
  EXPECT_EQ(calls, 0);  // still in flight to the middleware server
  sim.run_until(126);
  EXPECT_EQ(calls, 1);
}

TEST(Middleware, FlywheelCompoundsSuccessiveFlings) {
  // A second same-direction fling launched mid-animation inherits the
  // remaining speed (Android OverScroller flywheel).
  Middleware::Params with = middleware_params();
  Middleware::Params without = middleware_params();
  without.enable_flywheel = false;

  auto run = [](Middleware::Params params) {
    const std::vector<MediaObject> objects = column_objects(60);
    Middleware mw(params, objects, BandwidthTrace::constant(1e6),
                  nullptr);
    mw.on_gesture(fling_gesture({0, -8000}, 1000));
    TimeMs mid = 1000 + static_cast<TimeMs>(
                            mw.last_analysis()->prediction.duration_ms / 4);
    Gesture g2 = fling_gesture({0, -8000}, mid + 150);
    g2.down_time_ms = mid;
    mw.on_gesture(g2);
    return mw.last_analysis()->prediction.displacement.y;
  };
  double boosted = run(with);
  double plain = run(without);
  EXPECT_GT(boosted, plain * 1.2);
}

TEST(Middleware, FlywheelIgnoresOppositeDirection) {
  const std::vector<MediaObject> objects = column_objects(60);
  Middleware mw(middleware_params(), objects,
                BandwidthTrace::constant(1e6), nullptr);
  mw.on_gesture(fling_gesture({0, -8000}, 1000));
  TimeMs mid =
      1000 + static_cast<TimeMs>(mw.last_analysis()->prediction.duration_ms / 4);
  // Reverse flick: no inherited speed; displacement magnitude is just the
  // plain fling's.
  Gesture g2 = fling_gesture({0, 8000}, mid + 150);
  g2.down_time_ms = mid;
  mw.on_gesture(g2);
  const ScrollPrediction& pred2 = mw.last_analysis()->prediction;
  EXPECT_LT(pred2.displacement.y, 0);  // scrolling back up
  // No inherited speed: the reverse fling would cover its plain distance,
  // but the page top is closer, so it clamps exactly there.
  EXPECT_NEAR(-pred2.displacement.y, pred2.viewport0.y, 1e-6);
  ScrollAnimation reference({0, 8000}, ScrollConfig(kDevice));
  EXPECT_LE(-pred2.displacement.y, reference.total_distance());
}

TEST(Middleware, FlywheelNotAppliedAfterSettle) {
  const std::vector<MediaObject> objects = column_objects(60);
  Middleware mw(middleware_params(), objects,
                BandwidthTrace::constant(1e6), nullptr);
  mw.on_gesture(fling_gesture({0, -8000}, 1000));
  TimeMs later = 1000 +
                 static_cast<TimeMs>(mw.last_analysis()->prediction.duration_ms) +
                 500;
  Gesture g2 = fling_gesture({0, -8000}, later + 150);
  g2.down_time_ms = later;
  mw.on_gesture(g2);
  ScrollAnimation reference({0, 8000}, ScrollConfig(kDevice));
  EXPECT_NEAR(mw.last_analysis()->prediction.displacement.y,
              reference.total_distance(), 1.0);
}

TEST(Middleware, EndToEndFromRawTouches) {
  // Full client-side path: raw events -> monitor -> middleware policy.
  const std::vector<MediaObject> objects = column_objects(40);
  Middleware mw(middleware_params(), objects,
                BandwidthTrace::constant(1e6), nullptr);
  int policies = 0;
  mw.set_policy_callback([&](const ScrollAnalysis&, const DownloadPolicy& p) {
    ++policies;
    EXPECT_GT(p.decisions.size(), 2u);
  });
  TouchEventMonitor monitor(kDevice, [&](const Gesture& g) { mw.on_gesture(g); });
  SwipeSpec spec;
  spec.start = {700, 1800};
  spec.direction = {0, -1};
  spec.speed_px_s = 5000;
  spec.start_time_ms = 500;
  monitor.feed(synthesize_swipe(spec));
  EXPECT_EQ(policies, 1);
}

}  // namespace
}  // namespace mfhttp
