// View-orientation timeline driven by touch gestures (§5.2.2).
//
// The 360° player maps finger drags to view rotation: dragging the content
// right rotates the view left (yaw decreases), dragging down tilts the view
// up (pitch increases); sensitivity defaults to one horizontal FOV per
// screen width. Drags dominate; the occasional fling is folded in through
// the same scroll physics the web case uses, with its post-release
// displacement applied over the animation duration.
//
// The result is a keyframed orientation timeline, sampled per DASH segment
// by the schedulers.
#pragma once

#include <vector>

#include "gesture/gesture.h"
#include "scroll/animation.h"
#include "scroll/device_profile.h"
#include "video/projection.h"

namespace mfhttp {

class ViewportTrace {
 public:
  struct Params {
    DeviceProfile device;
    FieldOfView fov;
    // Radians of yaw per finger px; defaults to fov_h / screen_w.
    double rad_per_px = 0;
    ViewOrientation start{0, 0};
  };

  explicit ViewportTrace(Params params);

  // Fold one recognized gesture into the timeline. Gestures must arrive in
  // time order. Clicks are ignored; drags rotate during contact; flings add
  // their post-release scroll displacement over the animation duration.
  void add_gesture(const Gesture& gesture);

  // Orientation at an absolute time (interpolated between keyframes).
  ViewOrientation at(TimeMs time_ms) const;

  std::size_t keyframe_count() const { return keys_.size(); }

 private:
  struct Key {
    TimeMs time_ms;
    ViewOrientation view;
  };

  void push_key(TimeMs time_ms, ViewOrientation view);

  Params params_;
  ScrollConfig scroll_config_;
  std::vector<Key> keys_;
};

}  // namespace mfhttp
