#include "video/viewport_trace.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace mfhttp {

ViewportTrace::ViewportTrace(Params params)
    : params_(std::move(params)), scroll_config_(params_.device) {
  if (params_.rad_per_px <= 0)
    params_.rad_per_px = params_.fov.horizontal_rad / params_.device.screen_w_px;
  keys_.push_back({0, normalize_orientation(params_.start)});
}

void ViewportTrace::push_key(TimeMs time_ms, ViewOrientation view) {
  MFHTTP_CHECK_MSG(keys_.empty() || time_ms >= keys_.back().time_ms,
                   "gestures must be added in time order");
  keys_.push_back({time_ms, normalize_orientation(view)});
}

void ViewportTrace::add_gesture(const Gesture& gesture) {
  if (!gesture.scrolls()) return;
  ViewOrientation before = at(gesture.down_time_ms);

  auto rotate = [&](ViewOrientation v, Vec2 finger_px) {
    // Dragging content right => look left; dragging content down => look up.
    v.yaw -= finger_px.x * params_.rad_per_px;
    v.pitch += finger_px.y * params_.rad_per_px;
    return v;
  };

  // Contact phase: content tracks the finger.
  ViewOrientation at_release = rotate(before, gesture.finger_displacement());
  push_key(gesture.down_time_ms, before);
  push_key(gesture.up_time_ms, at_release);

  if (gesture.kind == GestureKind::kFling) {
    // Post-release inertia: content keeps moving along the fling direction.
    ScrollAnimation anim(gesture.release_velocity, scroll_config_);
    ViewOrientation settled = rotate(at_release, anim.total_displacement());
    push_key(gesture.up_time_ms + static_cast<TimeMs>(anim.duration_ms()), settled);
  }
}

ViewOrientation ViewportTrace::at(TimeMs time_ms) const {
  MFHTTP_CHECK(!keys_.empty());
  if (time_ms <= keys_.front().time_ms) return keys_.front().view;
  if (time_ms >= keys_.back().time_ms) return keys_.back().view;
  auto it = std::upper_bound(
      keys_.begin(), keys_.end(), time_ms,
      [](TimeMs t, const Key& k) { return t < k.time_ms; });
  const Key& hi = *it;
  const Key& lo = *(it - 1);
  if (hi.time_ms == lo.time_ms) return hi.view;
  double t = static_cast<double>(time_ms - lo.time_ms) /
             static_cast<double>(hi.time_ms - lo.time_ms);
  return interpolate_orientation(lo.view, hi.view, t);
}

}  // namespace mfhttp
