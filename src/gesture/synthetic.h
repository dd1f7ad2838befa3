// Synthetic touch-trace generation — the stand-in for the paper's physical
// phone and recruited volunteers (see DESIGN.md §2).
//
// Generators emit full DOWN/MOVE/UP event streams at a realistic sampling
// rate, so everything downstream (velocity tracker, recognizer, scroll
// tracker, flow controller) exercises the same code path a real device feed
// would. Two session models are provided:
//
//   * BrowsingGestureSource — web browsing (§6.1): dominated by vertical
//     flings of varying intensity with think-time between gestures.
//   * VideoDragSource — 360° video (§5.2.2, §6.2): "users produce much more
//     drag events than fling events"; a persistent-interest random walk of
//     viewing direction realized as slow-release drags.
#pragma once

#include "gesture/touch_event.h"
#include "scroll/device_profile.h"
#include "util/rng.h"

namespace mfhttp {

struct SwipeSpec {
  Vec2 start;                  // finger-down position (screen px)
  Vec2 direction{0, -1};       // finger travel direction (normalized internally)
  double speed_px_s = 3000;    // finger speed during the steady phase
  TimeMs start_time_ms = 0;    // DOWN timestamp
  TimeMs contact_ms = 150;     // DOWN..UP duration
  TimeMs sample_interval_ms = 8;  // ~120 Hz touch sampling
  // If true the finger decelerates to (near) rest over the final ~120 ms, so
  // the recognizer sees a drag; if false the release velocity equals
  // speed_px_s and the gesture is a fling (when above threshold).
  bool decelerate_before_release = false;
};

// Build the touch event stream for one swipe.
TouchTrace synthesize_swipe(const SwipeSpec& spec);

// Build a tap (click) at the given position/time.
TouchTrace synthesize_tap(Vec2 pos, TimeMs time_ms);

// Web-browsing session gestures: random vertical flings (mostly downward).
class BrowsingGestureSource {
 public:
  struct Params {
    double mean_speed_px_s = 4000;
    double speed_stddev = 2000;
    double min_speed_px_s = 800;
    double max_speed_px_s = 12000;
    double p_scroll_up = 0.15;        // fraction of backtracking swipes
    double max_horizontal_jitter = 0.08;  // |v_x / v_y| bound
    TimeMs min_think_ms = 400;
    TimeMs max_think_ms = 3000;
  };

  BrowsingGestureSource(const DeviceProfile& device, const Params& params, Rng rng)
      : device_(device), params_(params), rng_(rng) {}

  // Swipe whose DOWN fires at or after `not_before_ms` (after think time).
  TouchTrace next_swipe(TimeMs not_before_ms);

 private:
  DeviceProfile device_;
  Params params_;
  Rng rng_;
};

// 360°-video session gestures: drag-dominated viewing-direction random walk.
class VideoDragSource {
 public:
  struct Params {
    double mean_drag_px = 350;        // finger travel per drag
    double drag_px_stddev = 150;
    double heading_persistence = 0.85;  // new heading = persistence * old + noise
    double p_fling = 0.05;            // rare flings, per the paper
    TimeMs min_gap_ms = 200;
    TimeMs max_gap_ms = 2500;
  };

  VideoDragSource(const DeviceProfile& device, const Params& params, Rng rng);

  // Next gesture (almost always a drag) starting at or after `not_before_ms`.
  TouchTrace next_gesture(TimeMs not_before_ms);

  // Current random-walk heading (unit vector), for tests/inspection.
  Vec2 heading() const { return heading_; }

 private:
  DeviceProfile device_;
  Params params_;
  Rng rng_;
  Vec2 heading_{1, 0};
};

}  // namespace mfhttp
