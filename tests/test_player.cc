// Tests for the event-driven buffered player.
#include <gtest/gtest.h>

#include "gesture/recognizer.h"
#include "gesture/synthetic.h"
#include "video/player.h"

namespace mfhttp {
namespace {

const DeviceProfile kDevice = DeviceProfile::nexus6();

VideoAsset small_asset() {
  VideoAsset::Params p;
  p.name = "clip";
  p.duration_s = 12;
  return VideoAsset(p);
}

// ---------- buffered player ----------

ViewportTrace drag_trace(std::uint64_t seed, TimeMs duration_ms) {
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

TEST(BufferedPlayer, PlaysEverySegmentInOrder) {
  VideoAsset video = small_asset();
  ViewportTrace vt = drag_trace(3, 12'000);
  MfHttpTileScheduler sched;
  auto result = run_buffered_session(video, vt, BandwidthTrace::constant(kb_per_sec(800)),
                                     sched, BufferedPlayerParams{});
  ASSERT_EQ(result.segments.size(), 12u);
  TimeMs prev = -1;
  for (const PlayedSegment& s : result.segments) {
    EXPECT_GT(s.playback_ms, prev);
    prev = s.playback_ms;
    EXPECT_GE(s.fetch_done_ms, s.fetch_start_ms);
  }
  EXPECT_GT(result.total_bytes, 0);
}

TEST(BufferedPlayer, AmpleBandwidthNoStalls) {
  VideoAsset video = small_asset();
  ViewportTrace vt = drag_trace(3, 12'000);
  MfHttpTileScheduler sched;
  auto result = run_buffered_session(video, vt, BandwidthTrace::constant(kb_per_sec(2000)),
                                     sched, BufferedPlayerParams{});
  EXPECT_EQ(result.stall_count, 0);
  EXPECT_EQ(result.stall_ms, 0);
  // Startup ≈ one buffered segment's fetch, far below the 12 s session.
  EXPECT_LT(result.startup_delay_ms, 3000);
  // Quality converges to the top rung once the estimator warms up.
  EXPECT_EQ(result.segments.back().scheduled_quality, video.quality_count() - 1);
}

TEST(BufferedPlayer, ThroughputEstimatorAdaptsQualityToBandwidth) {
  VideoAsset video = small_asset();
  ViewportTrace vt = drag_trace(5, 12'000);
  MfHttpTileScheduler sched;
  auto rich = run_buffered_session(video, vt, BandwidthTrace::constant(kb_per_sec(1500)),
                                   sched, BufferedPlayerParams{});
  auto poor = run_buffered_session(video, vt, BandwidthTrace::constant(kb_per_sec(220)),
                                   sched, BufferedPlayerParams{});
  EXPECT_GT(rich.mean_scheduled_resolution(video),
            poor.mean_scheduled_resolution(video));
}

TEST(BufferedPlayer, BandwidthDropCausesStallOrDowngrade) {
  VideoAsset::Params p;
  p.name = "longer";
  p.duration_s = 30;
  VideoAsset video(p);
  ViewportTrace vt = drag_trace(7, 30'000);
  MfHttpTileScheduler sched;
  // Healthy for 10 s, then starved to a trickle for 10 s, then healthy.
  std::vector<BytesPerSec> slots;
  for (int i = 0; i < 10; ++i) slots.push_back(kb_per_sec(800));
  for (int i = 0; i < 10; ++i) slots.push_back(kb_per_sec(20));
  for (int i = 0; i < 20; ++i) slots.push_back(kb_per_sec(800));
  auto bw = BandwidthTrace::from_slots(slots, 1000);
  auto result = run_buffered_session(video, vt, bw, sched, BufferedPlayerParams{});
  // 20 KB/s cannot carry even viewport-floor tiles: the player must visibly
  // suffer — stalls, and/or degraded quality around the outage.
  bool degraded = false;
  for (const PlayedSegment& s : result.segments)
    if (s.scheduled_quality <= 0) degraded = true;
  EXPECT_TRUE(result.stall_count > 0 || degraded);
}

TEST(BufferedPlayer, BufferCapLimitsFetchAhead) {
  VideoAsset video = small_asset();
  ViewportTrace vt = drag_trace(3, 12'000);
  MfHttpTileScheduler sched;
  BufferedPlayerParams params;
  params.max_buffer_s = 2.0;
  auto result = run_buffered_session(
      video, vt, BandwidthTrace::constant(kb_per_sec(5000)), sched, params);
  // Even with absurd bandwidth, fetches pace playback: segment k cannot
  // finish fetching more than ~max_buffer seconds before it plays.
  for (const PlayedSegment& s : result.segments) {
    EXPECT_GE(s.playback_ms - s.fetch_done_ms, -100);
    EXPECT_LE(s.playback_ms - s.fetch_done_ms, 3000);
  }
}

TEST(BufferedPlayer, HitFractionHighForSlowDrags) {
  VideoAsset video = small_asset();
  // A viewer who barely moves: fetched tiles are still visible at playback.
  ViewportTrace::Params p;
  p.device = kDevice;
  ViewportTrace vt(p);  // static orientation
  MfHttpTileScheduler sched;
  auto result = run_buffered_session(video, vt, BandwidthTrace::constant(kb_per_sec(800)),
                                     sched, BufferedPlayerParams{});
  EXPECT_GT(result.mean_hit_fraction(), 0.95);
}

TEST(BufferedPlayer, MfHttpSchedulesHigherQualityThanGreedy) {
  VideoAsset video = small_asset();
  ViewportTrace vt = drag_trace(9, 12'000);
  MfHttpTileScheduler mf;
  GreedyDashScheduler greedy;
  BufferedPlayerParams params;
  auto bw = BandwidthTrace::constant(kb_per_sec(300));
  auto rm = run_buffered_session(video, vt, bw, mf, params);
  auto rg = run_buffered_session(video, vt, bw, greedy, params);
  EXPECT_GE(rm.mean_scheduled_resolution(video),
            rg.mean_scheduled_resolution(video));
}

TEST(BufferedPlayer, DeterministicForSameInputs) {
  VideoAsset video = small_asset();
  ViewportTrace vt = drag_trace(11, 12'000);
  MfHttpTileScheduler sched;
  auto bw = BandwidthTrace::constant(kb_per_sec(500));
  auto a = run_buffered_session(video, vt, bw, sched, BufferedPlayerParams{});
  auto b = run_buffered_session(video, vt, bw, sched, BufferedPlayerParams{});
  ASSERT_EQ(a.segments.size(), b.segments.size());
  EXPECT_EQ(a.total_bytes, b.total_bytes);
  EXPECT_EQ(a.stall_count, b.stall_count);
  for (std::size_t i = 0; i < a.segments.size(); ++i)
    EXPECT_EQ(a.segments[i].playback_ms, b.segments[i].playback_ms);
}

}  // namespace
}  // namespace mfhttp
