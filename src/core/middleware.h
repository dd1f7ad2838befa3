// MF-HTTP middleware assembly (§3.1, Fig. 5): touch event monitor on the
// client, screen scrolling tracker + flow controller on the middleware
// server, glued by a gesture channel (a simulated TCP hop, or a direct call
// when latency is irrelevant).
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "core/flow_controller.h"
#include "core/scroll_tracker.h"
#include "core/viewport_state.h"
#include "gesture/recognizer.h"
#include "net/bandwidth_trace.h"
#include "sim/simulator.h"

namespace mfhttp {

// Client-side module (§3.2, §4.1): turns the app's raw touch events into
// gestures and forwards them (with device metadata) to the tracker.
class TouchEventMonitor {
 public:
  using GestureCallback = std::function<void(const Gesture&)>;

  TouchEventMonitor(const DeviceProfile& device, GestureCallback on_gesture,
                    VelocityStrategy strategy = VelocityStrategy::kLsq2)
      : device_(device), recognizer_(device, strategy),
        on_gesture_(std::move(on_gesture)) {}

  const DeviceProfile& device() const { return device_; }

  // The app feeds every touch event here (the overridden onTouchEvent).
  void on_touch_event(const TouchEvent& ev);

  // Convenience: feed a whole trace.
  void feed(const TouchTrace& trace) {
    for (const TouchEvent& ev : trace) on_touch_event(ev);
  }

 private:
  DeviceProfile device_;
  GestureRecognizer recognizer_;
  GestureCallback on_gesture_;
};

// Server-side assembly: viewport state + scroll tracker + flow controller.
// Each scrolling gesture produces a fresh ScrollAnalysis and DownloadPolicy,
// delivered to the policy callback (the case-study controllers subscribe).
//
// The middleware borrows its content model: the object vector passed in
// belongs to the caller and must outlive the middleware. The caller may
// only append to it, and says so through append_objects().
class Middleware {
 public:
  struct Params {
    ScrollTracker::Params tracker;
    FlowController::Params flow;
    Rect initial_viewport;
    // Delay for gesture data to reach the middleware server (the TCP socket
    // hop of §4.2). Applied via the simulator when one is provided.
    TimeMs gesture_uplink_ms = 0;
    // Android OverScroller "flywheel": a fling launched while a previous
    // fling is still animating in a compatible direction inherits the
    // remaining speed, so rapid successive flicks build up velocity.
    bool enable_flywheel = true;
  };

  using PolicyCallback =
      std::function<void(const ScrollAnalysis&, const DownloadPolicy&)>;

  // `sim` may be nullptr: gestures are then processed synchronously.
  // `objects` is borrowed (see above); a temporary cannot bind.
  Middleware(Params params, const std::vector<MediaObject>& objects,
             BandwidthTrace bandwidth, Simulator* sim);
  Middleware(Params params, std::vector<MediaObject>&& objects,
             BandwidthTrace bandwidth, Simulator* sim) = delete;

  void set_policy_callback(PolicyCallback cb) { on_policy_ = std::move(cb); }

  // Entry point for gestures from the touch event monitor.
  void on_gesture(const Gesture& gesture);

  // The owner appended objects to the borrowed vector, from index `first`
  // on (an infinite-scroll feed revealing more posts): re-index them.
  // Viewport state and the last analysis/policy are preserved: appended
  // objects simply join the knapsack from the next gesture on — the
  // incremental optimizer's prefix reuse carries across the append because
  // existing object indices are unchanged.
  void append_objects(std::size_t first);

  Rect viewport_at(TimeMs time_ms) const { return viewport_.at(time_ms); }
  const std::vector<MediaObject>& objects() const { return objects_; }
  const ObjectIntervalIndex& object_index() const { return object_index_; }

  // Wall-clock milliseconds the last gesture spent from entering
  // process_gesture() to the policy being ready (the paper's touch-to-policy
  // path); also observed into "core.middleware.touch_to_policy_ms". 0 until
  // the first scrolling gesture.
  double last_touch_to_policy_ms() const { return last_touch_to_policy_ms_; }
  const ViewportState& viewport_state() const { return viewport_; }
  const ScrollTracker& tracker() const { return tracker_; }
  const FlowController& flow_controller() const { return flow_; }

  // Most recent analysis/policy (empty until the first scrolling gesture).
  const std::optional<ScrollAnalysis>& last_analysis() const { return last_analysis_; }
  const std::optional<DownloadPolicy>& last_policy() const { return last_policy_; }

 private:
  void process_gesture(const Gesture& gesture);

  ScrollTracker tracker_;
  FlowController flow_;
  const std::vector<MediaObject>& objects_;  // borrowed
  // Rebuilt whenever objects_ grows; lets every touch event analyze only
  // the objects inside the swept y-corridor.
  ObjectIntervalIndex object_index_;
  double last_touch_to_policy_ms_ = 0;
  BandwidthTrace bandwidth_;
  Simulator* sim_;
  TimeMs gesture_uplink_ms_;
  bool enable_flywheel_;
  ViewportState viewport_;
  PolicyCallback on_policy_;
  std::optional<ScrollAnalysis> last_analysis_;
  std::optional<DownloadPolicy> last_policy_;
};

}  // namespace mfhttp
