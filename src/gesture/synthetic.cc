#include "gesture/synthetic.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace mfhttp {

TouchTrace synthesize_swipe(const SwipeSpec& spec) {
  MFHTTP_CHECK(spec.speed_px_s > 0);
  MFHTTP_CHECK(spec.contact_ms > 0);
  MFHTTP_CHECK(spec.sample_interval_ms > 0);
  const Vec2 dir = spec.direction.normalized();
  MFHTTP_CHECK_MSG(dir.norm() > 0, "swipe direction must be non-zero");

  const TimeMs decel_ms =
      spec.decelerate_before_release ? std::min<TimeMs>(120, spec.contact_ms / 2) : 0;
  const TimeMs steady_ms = spec.contact_ms - decel_ms;

  TouchTrace trace;
  // Down, a move every sample interval before contact_ms, up.
  trace.reserve(static_cast<std::size_t>(spec.contact_ms / spec.sample_interval_ms) + 2);
  trace.push_back({spec.start_time_ms, spec.start, TouchAction::kDown});

  auto pos_at = [&](TimeMs dt) -> Vec2 {
    // Steady phase at speed_px_s, then (optionally) linear deceleration to a
    // residual crawl so the release velocity drops below the fling threshold.
    double travelled;
    if (dt <= steady_ms) {
      travelled = spec.speed_px_s * static_cast<double>(dt) / 1000.0;
    } else {
      double steady = spec.speed_px_s * static_cast<double>(steady_ms) / 1000.0;
      double td = static_cast<double>(dt - steady_ms) / 1000.0;
      double total_d = static_cast<double>(decel_ms) / 1000.0;
      // Speed ramps linearly from speed_px_s to ~2% of it.
      double v0 = spec.speed_px_s, v1 = 0.02 * spec.speed_px_s;
      double frac = td / total_d;
      double v_now = v0 + (v1 - v0) * frac;
      travelled = steady + (v0 + v_now) / 2.0 * td;
    }
    return spec.start + dir * travelled;
  };

  for (TimeMs dt = spec.sample_interval_ms; dt < spec.contact_ms;
       dt += spec.sample_interval_ms) {
    trace.push_back({spec.start_time_ms + dt, pos_at(dt), TouchAction::kMove});
  }
  trace.push_back(
      {spec.start_time_ms + spec.contact_ms, pos_at(spec.contact_ms), TouchAction::kUp});
  return trace;
}

TouchTrace synthesize_tap(Vec2 pos, TimeMs time_ms) {
  return {
      {time_ms, pos, TouchAction::kDown},
      {time_ms + 60, pos, TouchAction::kUp},
  };
}

TouchTrace BrowsingGestureSource::next_swipe(TimeMs not_before_ms) {
  TimeMs think =
      rng_.uniform_int(params_.min_think_ms, params_.max_think_ms);
  SwipeSpec spec;
  spec.start_time_ms = not_before_ms + think;
  // Finger starts in the lower/upper half depending on scroll direction so it
  // has room to travel.
  bool up = rng_.chance(params_.p_scroll_up);
  double x = rng_.uniform(device_.screen_w_px * 0.25, device_.screen_w_px * 0.75);
  double y = up ? device_.screen_h_px * 0.25 : device_.screen_h_px * 0.7;
  spec.start = {x, y};
  // Finger up => content down => viewport scrolls up the page, and vice
  // versa. Direction here is *finger* travel.
  double jitter = rng_.uniform(-params_.max_horizontal_jitter,
                               params_.max_horizontal_jitter);
  spec.direction = up ? Vec2{jitter, 1} : Vec2{jitter, -1};
  spec.speed_px_s = rng_.truncated_normal(params_.mean_speed_px_s, params_.speed_stddev,
                                          params_.min_speed_px_s, params_.max_speed_px_s);
  spec.contact_ms = rng_.uniform_int(90, 220);
  return synthesize_swipe(spec);
}

VideoDragSource::VideoDragSource(const DeviceProfile& device, const Params& params,
                                 Rng rng)
    : device_(device), params_(params), rng_(rng) {
  double theta = rng_.uniform(0, 2 * 3.14159265358979323846);
  heading_ = {std::cos(theta), std::sin(theta)};
}

TouchTrace VideoDragSource::next_gesture(TimeMs not_before_ms) {
  // Random-walk the heading with persistence: interest directions are
  // coherent within a session (§5.2.2).
  double cur = std::atan2(heading_.y, heading_.x);
  double next = cur + rng_.normal(0, 0.6) * (1.0 - params_.heading_persistence);
  heading_ = {std::cos(next), std::sin(next)};

  TimeMs gap = rng_.uniform_int(params_.min_gap_ms, params_.max_gap_ms);
  SwipeSpec spec;
  spec.start_time_ms = not_before_ms + gap;
  spec.start = {device_.screen_w_px / 2 - heading_.x * 150,
                device_.screen_h_px / 2 - heading_.y * 150};
  spec.direction = heading_;

  double travel = std::max(40.0, rng_.normal(params_.mean_drag_px, params_.drag_px_stddev));
  bool fling = rng_.chance(params_.p_fling);
  if (fling) {
    spec.speed_px_s = rng_.uniform(device_.min_fling_velocity_px_s() * 1.5,
                                   device_.min_fling_velocity_px_s() * 6.0);
    spec.decelerate_before_release = false;
    spec.contact_ms = std::max<TimeMs>(
        40, static_cast<TimeMs>(travel / spec.speed_px_s * 1000.0));
  } else {
    // Slow-release drag: steady finger motion with a decelerating tail so the
    // recognizer classifies it below the fling threshold.
    spec.speed_px_s = rng_.uniform(300, 1200);
    spec.decelerate_before_release = true;
    spec.contact_ms = std::max<TimeMs>(
        160, static_cast<TimeMs>(travel / spec.speed_px_s * 1000.0));
  }
  return synthesize_swipe(spec);
}

}  // namespace mfhttp
