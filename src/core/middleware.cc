#include "core/middleware.h"

#include <chrono>

#include "obs/metrics.h"
#include "util/check.h"
#include "util/logging.h"

namespace mfhttp {

void TouchEventMonitor::on_touch_event(const TouchEvent& ev) {
  if (auto gesture = recognizer_.on_touch_event(ev)) {
    if (on_gesture_) on_gesture_(*gesture);
  }
}

Middleware::Middleware(Params params, const std::vector<MediaObject>& objects,
                       BandwidthTrace bandwidth, Simulator* sim)
    : tracker_(params.tracker),
      flow_(params.flow),
      objects_(objects),
      bandwidth_(std::move(bandwidth)),
      sim_(sim),
      gesture_uplink_ms_(params.gesture_uplink_ms),
      enable_flywheel_(params.enable_flywheel),
      viewport_(params.initial_viewport, params.tracker.content_bounds) {
  object_index_.rebuild(objects_);
  flow_.reserve(objects_);
}

void Middleware::append_objects(std::size_t first) {
  MFHTTP_CHECK_MSG(first == object_index_.size() && first <= objects_.size(),
                   "append_objects: objects before `first` must be the indexed ones");
  object_index_.rebuild(objects_);
  flow_.reserve(objects_);
}

void Middleware::on_gesture(const Gesture& gesture) {
  if (sim_ && gesture_uplink_ms_ > 0) {
    sim_->schedule_after(gesture_uplink_ms_,
                         [this, gesture] { process_gesture(gesture); });
  } else {
    process_gesture(gesture);
  }
}

void Middleware::process_gesture(const Gesture& gesture) {
  static obs::Counter& gestures_total =
      obs::metrics().counter("core.middleware.gestures_total");
  gestures_total.inc();
  const auto wall_start = std::chrono::steady_clock::now();

  // Prediction accuracy: a new touch that lands mid-animation cuts the
  // predicted scroll short; the undelivered distance is the error the
  // flow controller planned against.
  if (viewport_.active_animation().has_value()) {
    const ScrollPrediction& active = *viewport_.active_animation();
    double t = static_cast<double>(gesture.down_time_ms - active.start_time_ms);
    if (t >= 0 && t < active.duration_ms) {
      static obs::Histogram& error_px = obs::metrics().histogram(
          "core.tracker.prediction_error_px",
          obs::exponential_bounds(1.0, 4.0, 10));
      Rect at_interrupt = active.viewport_at(t);
      double realized = Vec2{at_interrupt.x - active.viewport0.x,
                             at_interrupt.y - active.viewport0.y}
                            .norm();
      error_px.observe(active.displacement.norm() - realized);
    }
  }

  // OverScroller flywheel: speed remaining in an interrupted fling carries
  // into the next one when the finger flicks the same way.
  Vec2 carried_velocity{};
  if (enable_flywheel_ && viewport_.active_animation().has_value()) {
    const ScrollPrediction& active = *viewport_.active_animation();
    double t = static_cast<double>(gesture.down_time_ms - active.start_time_ms);
    if (t >= 0 && t < active.duration_ms &&
        active.animation.kind() == ScrollKind::kFling) {
      double remaining_speed = active.animation.speed_at(t);
      // The animation direction is the *viewport* direction; the carried
      // finger-space velocity is its opposite.
      Vec2 viewport_dir = active.displacement.normalized();
      Vec2 finger_dir = Vec2{} - viewport_dir;
      if (finger_dir.dot(gesture.release_velocity.normalized()) > 0.5) {
        carried_velocity = finger_dir * remaining_speed;
        static obs::Counter& flywheel_total =
            obs::metrics().counter("core.middleware.flywheel_inherits_total");
        flywheel_total.inc();
      }
    }
  }

  // A new touch aborts any unfinished scroll simulation (§4.2).
  viewport_.interrupt(gesture.down_time_ms);
  viewport_.apply_contact_pan(gesture);

  if (!gesture.scrolls()) return;

  Gesture boosted = gesture;
  boosted.release_velocity += carried_velocity;

  Rect vp_at_release = viewport_.at(gesture.up_time_ms);
  ScrollPrediction pred = tracker_.predict(boosted, vp_at_release);
  viewport_.begin_animation(pred);

  static obs::Counter& scrolls_total =
      obs::metrics().counter("core.middleware.scrolls_total");
  scrolls_total.inc();

  // Touch-to-policy hot path: interval-indexed analysis plus the stateful
  // replan() (incremental knapsack + reused build buffers). Both are
  // bit-identical to their stateless counterparts.
  ScrollAnalysis analysis = tracker_.analyze(pred, objects_, object_index_);
  DownloadPolicy policy = flow_.replan(analysis, objects_, bandwidth_);
  static obs::Histogram& touch_to_policy_ms = obs::metrics().histogram(
      "core.middleware.touch_to_policy_ms", obs::latency_ms_bounds());
  last_touch_to_policy_ms_ =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                wall_start)
          .count();
  touch_to_policy_ms.observe(last_touch_to_policy_ms_);
  // Store first and hand the callback the stored values, so last_analysis()
  // read inside the callback is already this gesture's.
  last_analysis_ = std::move(analysis);
  last_policy_ = std::move(policy);
  MFHTTP_DEBUG << "middleware: gesture " << to_string(gesture.kind) << " -> "
               << last_policy_->decisions.size() << " involved objects";
  if (on_policy_) on_policy_(*last_analysis_, *last_policy_);
}

}  // namespace mfhttp
