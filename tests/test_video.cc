// Tests for the 360° video case study: equirectangular projection, tile
// visibility, the DASH content model, viewport traces from gestures, the
// three schedulers, and full streaming sessions (MF-HTTP must beat greedy
// whole-frame DASH on viewport quality).
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "gesture/recognizer.h"
#include "gesture/synthetic.h"
#include "http/url.h"
#include "util/rng.h"
#include "video/dash.h"
#include "video/projection.h"
#include "video/scheduler.h"
#include "video/session.h"
#include "video/tiling.h"
#include "video/viewport_trace.h"

namespace mfhttp {
namespace {

constexpr double kPi = 3.14159265358979323846;
const DeviceProfile kDevice = DeviceProfile::nexus6();

// ---------- projection ----------

TEST(Projection, NormalizeWrapsYaw) {
  EXPECT_NEAR(normalize_orientation({3 * kPi, 0}).yaw, kPi, 1e-9);
  EXPECT_NEAR(normalize_orientation({-3 * kPi, 0}).yaw, kPi, 1e-9);
  EXPECT_NEAR(normalize_orientation({kPi / 4, 0}).yaw, kPi / 4, 1e-12);
}

TEST(Projection, NormalizeClampsPitch) {
  EXPECT_NEAR(normalize_orientation({0, 2.0}).pitch, kPi / 2, 1e-12);
  EXPECT_NEAR(normalize_orientation({0, -2.0}).pitch, -kPi / 2, 1e-12);
}

TEST(Projection, EquirectCenterAndCorners) {
  double w = 3840, h = 1920;
  // Yaw 0, pitch 0 lands in the frame center.
  Vec2 c = project_equirect({0, 0}, w, h);
  EXPECT_NEAR(c.x, w / 2, 1e-9);
  EXPECT_NEAR(c.y, h / 2, 1e-9);
  // Looking straight up hits the top row.
  EXPECT_NEAR(project_equirect({0, kPi / 2}, w, h).y, 0, 1e-9);
  // Looking down: bottom row (clamped just inside).
  EXPECT_LT(project_equirect({0, -kPi / 2}, w, h).y, h);
  EXPECT_GT(project_equirect({0, -kPi / 2}, w, h).y, h - 1);
}

TEST(Projection, YawWrapsAcrossSeam) {
  double w = 3840, h = 1920;
  Vec2 just_left = project_equirect({kPi - 0.01, 0}, w, h);
  Vec2 just_right = project_equirect({-kPi + 0.01, 0}, w, h);
  EXPECT_GT(just_left.x, w * 0.99);
  EXPECT_LT(just_right.x, w * 0.01);
}

TEST(Projection, InterpolateTakesShortYawArc) {
  ViewOrientation a{kPi - 0.1, 0}, b{-kPi + 0.1, 0};
  ViewOrientation mid = interpolate_orientation(a, b, 0.5);
  // Short way crosses the seam at ±pi, not through 0.
  EXPECT_GT(std::abs(mid.yaw), kPi - 0.15);
}

TEST(Projection, InterpolateEndpoints) {
  ViewOrientation a{0.3, 0.1}, b{1.2, -0.4};
  EXPECT_NEAR(interpolate_orientation(a, b, 0).yaw, 0.3, 1e-12);
  EXPECT_NEAR(interpolate_orientation(a, b, 1).yaw, 1.2, 1e-12);
  EXPECT_NEAR(interpolate_orientation(a, b, 0.5).pitch, -0.15, 1e-12);
}

TEST(Projection, FootprintCentersOnView) {
  double w = 3840, h = 1920;
  auto pts = viewport_footprint({0.5, 0.2}, FieldOfView{}, w, h);
  ASSERT_FALSE(pts.empty());
  Vec2 center = project_equirect({0.5, 0.2}, w, h);
  // All sample points lie within a generous radius of the center (no FOV
  // blowup), and the exact center is among the sampled region.
  double maxd = 0;
  for (Vec2 p : pts) maxd = std::max(maxd, (p - center).norm());
  EXPECT_LT(maxd, w / 2);
}

// ---------- tiling ----------

TEST(TileGrid, RectsPartitionFrame) {
  TileGrid grid(4, 4, 3840, 1920);
  EXPECT_EQ(grid.tile_count(), 16);
  double area = 0;
  for (int t = 0; t < grid.tile_count(); ++t) area += grid.tile_rect(t).area();
  EXPECT_NEAR(area, 3840.0 * 1920.0, 1e-6);
  EXPECT_EQ(grid.tile_rect(0), (Rect{0, 0, 960, 480}));
  EXPECT_EQ(grid.tile_rect(15), (Rect{2880, 1440, 960, 480}));
}

TEST(TileGrid, TileAtMapsCoordinates) {
  TileGrid grid(4, 4, 3840, 1920);
  EXPECT_EQ(grid.tile_at({0, 0}), 0);
  EXPECT_EQ(grid.tile_at({3839, 1919}), 15);
  EXPECT_EQ(grid.tile_at({1000, 500}), 5);  // col 1, row 1
  // Out-of-range clamps.
  EXPECT_EQ(grid.tile_at({-5, -5}), 0);
  EXPECT_EQ(grid.tile_at({1e6, 1e6}), 15);
}

TEST(TileGrid, VisibleTilesSubsetAndNonEmpty) {
  TileGrid grid(4, 4, 3840, 1920);
  auto mask = grid.visible_tiles({0, 0}, FieldOfView{});
  int visible = TileGrid::count_visible(mask);
  EXPECT_GT(visible, 0);
  EXPECT_LT(visible, 16);  // a ~100° FOV cannot need the whole sphere
}

TEST(TileGrid, ForwardViewTouchesCentralColumns) {
  TileGrid grid(4, 4, 3840, 1920);
  auto mask = grid.visible_tiles({0, 0}, FieldOfView{});
  // Frame center (yaw 0) is at x = w/2 — on the col 1 / col 2 boundary,
  // rows 1-2 vertically.
  EXPECT_TRUE(mask[static_cast<std::size_t>(1 * 4 + 1)] ||
              mask[static_cast<std::size_t>(1 * 4 + 2)]);
  EXPECT_TRUE(mask[static_cast<std::size_t>(2 * 4 + 1)] ||
              mask[static_cast<std::size_t>(2 * 4 + 2)]);
}

TEST(TileGrid, SeamViewTouchesBothEdges) {
  TileGrid grid(4, 4, 3840, 1920);
  // Looking at yaw = pi: the viewport straddles the frame's left/right seam.
  auto mask = grid.visible_tiles({kPi, 0}, FieldOfView{});
  bool left_col = mask[4] || mask[8] || mask[0] || mask[12];
  bool right_col = mask[7] || mask[11] || mask[3] || mask[15];
  EXPECT_TRUE(left_col);
  EXPECT_TRUE(right_col);
}

TEST(TileGrid, PolarViewTouchesWholeTopRow) {
  TileGrid grid(4, 4, 3840, 1920);
  auto mask = grid.visible_tiles({0, kPi / 2 - 0.05}, FieldOfView{});
  // Near the pole the footprint smears across all longitudes.
  int top_row = 0;
  for (int c = 0; c < 4; ++c) top_row += mask[static_cast<std::size_t>(c)];
  EXPECT_GE(top_row, 3);
}

TEST(TileGrid, RotatingViewChangesTiles) {
  TileGrid grid(4, 4, 3840, 1920);
  auto front = grid.visible_tiles({0, 0}, FieldOfView{});
  auto back = grid.visible_tiles({kPi, 0}, FieldOfView{});
  EXPECT_NE(front, back);
}

// ---------- DASH model ----------

TEST(VideoAsset, LadderAscendsAndSizesFollow) {
  VideoAsset video(VideoAsset::Params{});
  ASSERT_EQ(video.quality_count(), 4);
  EXPECT_EQ(video.representation(0).name, "360s");
  EXPECT_EQ(video.representation(3).name, "1080s");
  for (int s = 0; s < 5; ++s) {
    for (int t = 0; t < video.grid().tile_count(); ++t) {
      for (int q = 1; q < video.quality_count(); ++q)
        EXPECT_GT(video.segment_size(t, s, q), video.segment_size(t, s, q - 1))
            << "tile " << t << " seg " << s << " q " << q;
    }
  }
}

TEST(VideoAsset, WholeFrameSizeNearNominalRate) {
  VideoAsset video(VideoAsset::Params{});
  // Average whole-frame segment size should sit near the ladder's rate.
  for (int q = 0; q < video.quality_count(); ++q) {
    double sum = 0;
    for (int s = 0; s < video.segment_count(); ++s)
      sum += static_cast<double>(video.whole_frame_segment_size(s, q));
    double mean = sum / video.segment_count();
    double nominal = video.representation(q).whole_frame_rate;
    EXPECT_NEAR(mean / nominal, 1.0, 0.25) << q;
  }
}

TEST(VideoAsset, BitrateMultiplierScalesSizes) {
  VideoAsset::Params heavy;
  heavy.bitrate_multiplier = 2.0;
  heavy.vbr_sigma = 0;  // isolate the multiplier
  VideoAsset::Params light;
  light.bitrate_multiplier = 1.0;
  light.vbr_sigma = 0;
  VideoAsset hv(heavy), lv(light);
  EXPECT_NEAR(static_cast<double>(hv.whole_frame_segment_size(0, 2)) /
                  static_cast<double>(lv.whole_frame_segment_size(0, 2)),
              2.0, 1e-6);
}

TEST(VideoAsset, DeterministicForSeed) {
  VideoAsset a(VideoAsset::Params{}), b(VideoAsset::Params{});
  for (int s = 0; s < 10; ++s)
    EXPECT_EQ(a.whole_frame_segment_size(s, 3), b.whole_frame_segment_size(s, 3));
}

TEST(VideoAsset, SegmentUrlShape) {
  VideoAsset video(VideoAsset::Params{});
  std::string url = video.segment_url("http://cdn.example", 5, 7, 3);
  EXPECT_EQ(url, "http://cdn.example/video1/tile_1_1/1080s/seg_007.m4s");
  ASSERT_TRUE(parse_url(url).has_value());
}

// ---------- viewport trace ----------

TEST(ViewportTrace, StartsAtInitialOrientation) {
  ViewportTrace::Params p;
  p.device = kDevice;
  p.start = {0.7, -0.2};
  ViewportTrace vt(p);
  EXPECT_NEAR(vt.at(0).yaw, 0.7, 1e-12);
  EXPECT_NEAR(vt.at(123'456).pitch, -0.2, 1e-12);
}

TEST(ViewportTrace, DragRotatesView) {
  ViewportTrace::Params p;
  p.device = kDevice;
  ViewportTrace vt(p);
  Gesture g;
  g.kind = GestureKind::kDrag;
  g.down_time_ms = 1000;
  g.up_time_ms = 1400;
  g.down_pos = {700, 1200};
  g.up_pos = {300, 1200};  // finger moved 400 px left
  g.release_velocity = {-50, 0};
  vt.add_gesture(g);
  // Content dragged left => view rotates right (yaw increases with -dx*(-1)).
  double yaw_after = vt.at(2000).yaw;
  EXPECT_GT(yaw_after, 0);
  EXPECT_NEAR(yaw_after, 400 * (FieldOfView{}.horizontal_rad / kDevice.screen_w_px),
              1e-9);
  // Mid-drag: partially rotated.
  double yaw_mid = vt.at(1200).yaw;
  EXPECT_GT(yaw_mid, 0);
  EXPECT_LT(yaw_mid, yaw_after);
}

TEST(ViewportTrace, ClickIgnored) {
  ViewportTrace::Params p;
  p.device = kDevice;
  ViewportTrace vt(p);
  Gesture g;
  g.kind = GestureKind::kClick;
  g.down_time_ms = 10;
  g.up_time_ms = 60;
  vt.add_gesture(g);
  EXPECT_EQ(vt.keyframe_count(), 1u);
}

TEST(ViewportTrace, FlingAddsInertialRotation) {
  ViewportTrace::Params p;
  p.device = kDevice;
  ViewportTrace drag_only(p), with_fling(p);
  Gesture g;
  g.kind = GestureKind::kDrag;
  g.down_time_ms = 0;
  g.up_time_ms = 300;
  g.down_pos = {700, 1200};
  g.up_pos = {300, 1200};
  g.release_velocity = {-100, 0};
  drag_only.add_gesture(g);
  Gesture f = g;
  f.kind = GestureKind::kFling;
  f.release_velocity = {-4000, 0};
  with_fling.add_gesture(f);
  EXPECT_GT(std::abs(with_fling.at(5000).yaw), std::abs(drag_only.at(5000).yaw));
}

TEST(ViewportTrace, FromTouchTraceEndToEnd) {
  ViewportTrace::Params p;
  p.device = kDevice;
  // Build a drag-heavy session from the synthetic source.
  VideoDragSource src(kDevice, {}, Rng(3));
  TouchTrace all;
  TimeMs now = 0;
  for (int i = 0; i < 10; ++i) {
    TouchTrace t = src.next_gesture(now);
    now = t.back().time_ms;
    all.insert(all.end(), t.begin(), t.end());
  }
  ViewportTrace vt(p);
  GestureRecognizer recognizer(p.device);
  for (const TouchEvent& ev : all)
    if (auto g = recognizer.on_touch_event(ev)) vt.add_gesture(*g);
  EXPECT_GT(vt.keyframe_count(), 10u);
  // Orientation actually moved during the session.
  ViewOrientation start = vt.at(0), end = vt.at(now);
  EXPECT_TRUE(std::abs(end.yaw - start.yaw) > 1e-3 ||
              std::abs(end.pitch - start.pitch) > 1e-3);
}

// ---------- schedulers ----------

struct SchedulerFixture : public ::testing::Test {
  SchedulerFixture() : video(VideoAsset::Params{}) {
    visible = video.grid().visible_tiles({0, 0}, FieldOfView{});
  }
  VideoAsset video;
  std::vector<bool> visible;
};

TEST_F(SchedulerFixture, MfHttpMaximizesViewportMinimizesRest) {
  MfHttpTileScheduler sched;
  TilePlan plan = sched.plan_segment(video, 0, visible, 400'000);
  EXPECT_GE(plan.viewport_quality, 2);  // high quality in viewport
  for (int t = 0; t < video.grid().tile_count(); ++t) {
    int q = plan.tile_quality[static_cast<std::size_t>(t)];
    if (visible[static_cast<std::size_t>(t)])
      EXPECT_EQ(q, plan.viewport_quality);
    else
      EXPECT_EQ(q, 0);  // invisible tiles at floor quality
  }
  EXPECT_LE(plan.bytes, 400'000);
}

TEST_F(SchedulerFixture, MfHttpDegradesGracefully) {
  MfHttpTileScheduler sched;
  int prev_q = video.quality_count();
  for (Bytes budget : {600'000, 300'000, 150'000, 80'000, 30'000}) {
    TilePlan plan = sched.plan_segment(video, 0, visible, budget);
    EXPECT_LE(plan.viewport_quality, prev_q);
    prev_q = plan.viewport_quality;
    if (plan.viewport_quality >= 0) {
      EXPECT_LE(plan.bytes, budget);
    }
  }
}

TEST_F(SchedulerFixture, MfHttpShedsInvisibleTilesBeforeStalling) {
  MfHttpTileScheduler sched;
  // Budget fits the visible tiles at q0 but not the whole frame at q0.
  Bytes whole_q0 = video.whole_frame_segment_size(0, 0);
  Bytes visible_q0 = 0;
  for (int t = 0; t < video.grid().tile_count(); ++t)
    if (visible[static_cast<std::size_t>(t)])
      visible_q0 += video.segment_size(t, 0, 0);
  Bytes budget = (visible_q0 + whole_q0) / 2;
  ASSERT_GT(budget, visible_q0);
  ASSERT_LT(budget, whole_q0);
  TilePlan plan = sched.plan_segment(video, 0, visible, budget);
  EXPECT_EQ(plan.viewport_quality, 0);
  for (int t = 0; t < video.grid().tile_count(); ++t) {
    if (!visible[static_cast<std::size_t>(t)]) {
      EXPECT_EQ(plan.tile_quality[static_cast<std::size_t>(t)], -1);
    }
  }
}

TEST_F(SchedulerFixture, MfHttpNaWhenNothingFits) {
  MfHttpTileScheduler sched;
  TilePlan plan = sched.plan_segment(video, 0, visible, 100);
  EXPECT_TRUE(plan.stalled());
  EXPECT_EQ(plan.bytes, 0);
}

TEST_F(SchedulerFixture, GreedyPicksHighestAffordableWholeFrame) {
  GreedyDashScheduler sched;
  Bytes q2_cost = video.whole_frame_segment_size(0, 2);
  Bytes q3_cost = video.whole_frame_segment_size(0, 3);
  TilePlan plan = sched.plan_segment(video, 0, visible, (q2_cost + q3_cost) / 2);
  EXPECT_EQ(plan.viewport_quality, 2);
  for (int q : plan.tile_quality) EXPECT_EQ(q, 2);
}

TEST_F(SchedulerFixture, GreedyNaBelowFloor) {
  GreedyDashScheduler sched;
  TilePlan plan =
      sched.plan_segment(video, 0, visible, video.whole_frame_segment_size(0, 0) / 2);
  EXPECT_TRUE(plan.stalled());
}

TEST_F(SchedulerFixture, MfHttpViewportQualityAlwaysAtLeastGreedy) {
  MfHttpTileScheduler mf;
  GreedyDashScheduler greedy;
  for (Bytes budget = 50'000; budget <= 800'000; budget += 25'000) {
    for (int seg = 0; seg < 10; ++seg) {
      TilePlan pm = mf.plan_segment(video, seg, visible, budget);
      TilePlan pg = greedy.plan_segment(video, seg, visible, budget);
      EXPECT_GE(pm.viewport_quality, pg.viewport_quality)
          << "budget " << budget << " seg " << seg;
    }
  }
}

TEST_F(SchedulerFixture, FixedRateIgnoresBudget) {
  FixedRateScheduler sched(3);
  TilePlan plan = sched.plan_segment(video, 0, visible, 10);
  EXPECT_EQ(plan.viewport_quality, 3);
  EXPECT_EQ(plan.bytes, video.whole_frame_segment_size(0, 3));
}

// ---------- sessions ----------

ViewportTrace drag_session_trace(std::uint64_t seed, TimeMs duration_ms) {
  ViewportTrace::Params p;
  p.device = kDevice;
  ViewportTrace vt(p);
  VideoDragSource src(kDevice, {}, Rng(seed));
  GestureRecognizer rec(kDevice);
  TimeMs now = 0;
  while (now < duration_ms) {
    TouchTrace t = src.next_gesture(now);
    now = t.back().time_ms;
    for (const TouchEvent& ev : t)
      if (auto g = rec.on_touch_event(ev)) vt.add_gesture(*g);
  }
  return vt;
}

TEST(StreamingSession, RecordsOnePerSegment) {
  VideoAsset video(VideoAsset::Params{});
  ViewportTrace vt = drag_session_trace(5, 60'000);
  MfHttpTileScheduler sched;
  auto result = run_streaming_session(video, vt, BandwidthTrace::constant(500e3),
                                      sched, StreamingSessionParams{});
  EXPECT_EQ(result.segments.size(), 60u);
  EXPECT_EQ(result.plans.size(), 60u);
  EXPECT_EQ(result.scheduler, "mf-http");
  double frac_sum = 0;
  for (int q = -1; q < video.quality_count(); ++q) frac_sum += result.fraction_at(q);
  EXPECT_NEAR(frac_sum, 1.0, 1e-9);
}

TEST(StreamingSession, MfHttpBeatsGreedyAcrossBandwidths) {
  VideoAsset video(VideoAsset::Params{});
  ViewportTrace vt = drag_session_trace(5, 60'000);
  MfHttpTileScheduler mf;
  GreedyDashScheduler greedy;
  for (double kbps : {250.0, 500.0, 750.0, 1000.0}) {
    auto bw = BandwidthTrace::constant(kb_per_sec(kbps));
    auto rm = run_streaming_session(video, vt, bw, mf, StreamingSessionParams{});
    auto rg = run_streaming_session(video, vt, bw, greedy, StreamingSessionParams{});
    EXPECT_GE(rm.mean_resolution(video), rg.mean_resolution(video)) << kbps;
    // MF-HTTP never consumes more bytes than it was budgeted.
    EXPECT_LE(rm.total_bytes, static_cast<Bytes>(bw.bytes_between(0, 60'000) * 1.01));
  }
  // Strictly better somewhere in the low-bandwidth regime.
  auto bw = BandwidthTrace::constant(kb_per_sec(250));
  auto rm = run_streaming_session(video, vt, bw, mf, StreamingSessionParams{});
  auto rg = run_streaming_session(video, vt, bw, greedy, StreamingSessionParams{});
  EXPECT_GT(rm.mean_resolution(video), rg.mean_resolution(video));
}

TEST(StreamingSession, MfHttpBytesTrackVisibleTileCount) {
  VideoAsset video(VideoAsset::Params{});
  ViewportTrace vt = drag_session_trace(7, 60'000);
  MfHttpTileScheduler mf;
  auto r = run_streaming_session(video, vt, BandwidthTrace::constant(kb_per_sec(1000)),
                                 mf, StreamingSessionParams{});
  // Correlation between visible tiles and bytes must be positive (Fig. 9's
  // valleys-match observation).
  double mean_v = 0, mean_b = 0;
  for (const SegmentRecord& s : r.segments) {
    mean_v += s.visible_tiles;
    mean_b += static_cast<double>(s.bytes);
  }
  mean_v /= r.segments.size();
  mean_b /= r.segments.size();
  double cov = 0, var_v = 0, var_b = 0;
  for (const SegmentRecord& s : r.segments) {
    double dv = s.visible_tiles - mean_v;
    double db = static_cast<double>(s.bytes) - mean_b;
    cov += dv * db;
    var_v += dv * dv;
    var_b += db * db;
  }
  ASSERT_GT(var_v, 0);
  ASSERT_GT(var_b, 0);
  EXPECT_GT(cov / std::sqrt(var_v * var_b), 0.3);
}

TEST(StreamingSession, FixedBaselineUsesMoreBandwidthThanMfHttp) {
  VideoAsset video(VideoAsset::Params{});
  ViewportTrace vt = drag_session_trace(9, 60'000);
  MfHttpTileScheduler mf;
  FixedRateScheduler fixed(3);  // 1080s whole frame, the Fig. 9 baseline
  auto bw = BandwidthTrace::constant(kb_per_sec(1000));
  auto rm = run_streaming_session(video, vt, bw, mf, StreamingSessionParams{});
  auto rf = run_streaming_session(video, vt, bw, fixed, StreamingSessionParams{});
  EXPECT_LT(rm.total_bytes, rf.total_bytes * 7 / 10);  // significant reduction
}

TEST(StreamingSession, ReplayOverHttpCompletesInOrder) {
  VideoAsset::Params vp;
  vp.duration_s = 10;
  VideoAsset video(vp);
  ViewportTrace vt = drag_session_trace(3, 10'000);
  MfHttpTileScheduler mf;
  auto session = run_streaming_session(video, vt, BandwidthTrace::constant(kb_per_sec(500)),
                                       mf, StreamingSessionParams{});
  auto completion = replay_session_over_http(video, session,
                                             BandwidthTrace::constant(kb_per_sec(500)));
  ASSERT_EQ(completion.size(), session.segments.size());
  TimeMs prev = 0;
  for (std::size_t i = 0; i < completion.size(); ++i) {
    if (session.segments[i].viewport_quality < 0) {
      EXPECT_EQ(completion[i], -1);
      continue;
    }
    EXPECT_GE(completion[i], prev);
    prev = completion[i];
  }
  // Total wall time consistent with the byte volume at 500 KB/s.
  double expected_ms =
      static_cast<double>(session.total_bytes) / kb_per_sec(500) * 1000.0;
  EXPECT_NEAR(static_cast<double>(prev), expected_ms, expected_ms * 0.15 + 200);
}

// ---------- tile scheduler vs trial-vector reference ----------

// These keep their original suite name: they check the DASH tile-size arena
// (VideoAsset::segment_sizes rows) and the one-pass scheduler built on it.

// Reference reimplementation of the pre-arena MF-HTTP tile planner: build a
// full trial quality vector per candidate and price it tile by tile through
// segment_size(), exactly as the old per-quality loop did.
TilePlan reference_tile_plan(const VideoAsset& video, int segment,
                             const std::vector<bool>& visible,
                             const SchedulerContext& context) {
  const Bytes budget = context.budget;
  const int tiles = video.grid().tile_count();
  TilePlan plan;
  plan.tile_quality.assign(static_cast<std::size_t>(tiles), -1);
  plan.visible_count = TileGrid::count_visible(visible);
  auto cost_of = [&](const std::vector<int>& tq) {
    Bytes total = 0;
    for (int t = 0; t < tiles; ++t)
      if (tq[static_cast<std::size_t>(t)] >= 0)
        total += video.segment_size(t, segment, tq[static_cast<std::size_t>(t)]);
    return total;
  };
  auto trial = [&](int visible_q, int invisible_q) {
    std::vector<int> tq(static_cast<std::size_t>(tiles));
    for (int t = 0; t < tiles; ++t)
      tq[static_cast<std::size_t>(t)] =
          visible[static_cast<std::size_t>(t)] ? visible_q : invisible_q;
    return tq;
  };
  if (context.degraded || context.brownout >= 2) {
    auto tq = trial(0, -1);
    Bytes cost = cost_of(tq);
    if (cost <= budget) {
      plan.tile_quality = tq;
      plan.viewport_quality = 0;
      plan.bytes = cost;
    }
    return plan;
  }
  for (int q = video.quality_count() - 1; q >= 0; --q) {
    auto tq = trial(q, 0);
    Bytes cost = cost_of(tq);
    if (cost <= budget) {
      plan.tile_quality = tq;
      plan.viewport_quality = q;
      plan.bytes = cost;
      return plan;
    }
  }
  auto tq = trial(0, -1);
  Bytes cost = cost_of(tq);
  if (cost <= budget) {
    plan.tile_quality = tq;
    plan.viewport_quality = 0;
    plan.bytes = cost;
  }
  return plan;
}

TEST(ArenaParity, TileSchedulerMatchesTrialVectorReference) {
  VideoAsset::Params vp;
  vp.duration_s = 20;
  vp.seed = 21;
  VideoAsset video(vp);
  MfHttpTileScheduler scheduler;
  Rng rng(7);
  const int tiles = video.grid().tile_count();
  for (int segment = 0; segment < video.segment_count(); ++segment) {
    std::vector<bool> visible(static_cast<std::size_t>(tiles));
    for (int t = 0; t < tiles; ++t)
      visible[static_cast<std::size_t>(t)] = rng.chance(0.4);
    for (Bytes budget :
         {Bytes{20'000}, Bytes{120'000}, Bytes{400'000}, Bytes{2'000'000}}) {
      for (int mode = 0; mode < 3; ++mode) {
        SchedulerContext context;
        context.budget = budget;
        context.degraded = mode == 1;
        context.brownout = mode == 2 ? 2 : 0;
        TilePlan got = scheduler.plan_segment(video, segment, visible, context);
        TilePlan want = reference_tile_plan(video, segment, visible, context);
        const std::string at = "segment " + std::to_string(segment) + " budget " +
                               std::to_string(budget) + " mode " + std::to_string(mode);
        EXPECT_EQ(got.tile_quality, want.tile_quality) << at;
        EXPECT_EQ(got.viewport_quality, want.viewport_quality) << at;
        EXPECT_EQ(got.bytes, want.bytes) << at;
        EXPECT_EQ(got.visible_count, want.visible_count) << at;
      }
    }
  }
}

TEST(ArenaParity, TileArenaRowsMatchScalarAccessor) {
  VideoAsset::Params vp;
  vp.duration_s = 8;
  vp.seed = 5;
  VideoAsset video(vp);
  for (int s = 0; s < video.segment_count(); ++s) {
    for (int q = 0; q < video.quality_count(); ++q) {
      const Bytes* row = video.segment_sizes(s, q);
      Bytes frame_total = 0;
      for (int t = 0; t < video.grid().tile_count(); ++t) {
        EXPECT_EQ(row[t], video.segment_size(t, s, q));
        frame_total += row[t];
      }
      EXPECT_EQ(frame_total, video.whole_frame_segment_size(s, q));
    }
  }
}

}  // namespace
}  // namespace mfhttp
