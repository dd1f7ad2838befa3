// Screen scrolling tracker (§3.3): turns a recognized gesture into the full
// predetermined viewport trajectory, then measures, per media object, when
// it enters the viewport and how much of the viewport it covers over time.
//
// Sign convention: the gesture's release velocity is the *finger* velocity.
// Content follows the finger, so the viewport (the window into the content)
// displaces in the opposite direction: viewport_displacement(t) =
// -d(t) * (v_x/v, v_y/v).
#pragma once

#include <optional>
#include <vector>

#include "core/media_object.h"
#include "geom/swept_region.h"
#include "gesture/gesture.h"
#include "scroll/animation.h"
#include "util/types.h"

namespace mfhttp {

// Full prediction of one scrolling animation, made at finger release.
struct ScrollPrediction {
  Gesture gesture;
  ScrollAnimation animation;  // scalar kinematics along the gesture axis
  Rect viewport0;             // viewport at animation start (content coords)
  Vec2 displacement;          // total signed viewport displacement (clamped)
  double duration_ms = 0;     // effective duration (shortened if clamped)
  TimeMs start_time_ms = 0;   // absolute time of finger release

  SweptRegion sweep() const { return SweptRegion{viewport0, displacement}; }
  Rect final_viewport() const { return viewport0.translated(displacement); }

  // Viewport position t_ms after release (clamp-aware).
  Rect viewport_at(double t_ms) const;
};

// Per-object result of analyzing one scroll (§3.3.3 + §3.3.4).
struct ObjectCoverage {
  std::size_t object_index = 0;
  bool involved = false;         // intersects the swept region at some point
  double entry_time_ms = -1;     // t_i: first overlap, ms after release
  double coverage_integral = 0;  // ∫ s_i(t) dt over the animation (px^2 * ms)
  double final_coverage = 0;     // s_i(T): overlap area in the final viewport
  bool in_initial_viewport = false;
  bool in_final_viewport = false;
};

// One analyzed scroll, sparse: only the objects the scroll touches are
// listed, so its size (and its cost) follows the scroll, not the page.
struct ScrollAnalysis {
  ScrollPrediction prediction;
  // Objects that are involved or in the initial or final viewport (a flag
  // can come without `involved` at rect edges), sorted by (entry_time_ms,
  // object_index): involved objects follow any uninvolved ones (entry -1) in
  // the order Eq. 13 assumes. Unlisted objects have all-default coverage.
  std::vector<ObjectCoverage> listed;

  // The listed coverages in ascending object index (page order).
  std::vector<const ObjectCoverage*> listed_by_object_index() const;
};

// Y-sorted interval index over a page's media objects. A scroll only ever
// touches objects whose vertical span meets the corridor the viewport sweeps,
// so the indexed analyze() overload binary-searches this index for the
// candidate window instead of scanning every object on the page. Built once
// per page (rebuild() on layout change), queried per touch event.
//
// The query window is inclusive while Rect::overlaps is strict, so the
// candidate set is a superset of every object the exact math can involve —
// indexed analysis is bit-identical to the linear scan by construction.
class ObjectIntervalIndex {
 public:
  ObjectIntervalIndex() = default;
  explicit ObjectIntervalIndex(const std::vector<MediaObject>& objects) {
    rebuild(objects);
  }

  void rebuild(const std::vector<MediaObject>& objects);
  std::size_t size() const { return entries_.size(); }

  // Indices (ascending object top, ties by index) of all objects whose
  // [top, bottom] span touches [y_lo, y_hi]. O(log n + candidates).
  void query(double y_lo, double y_hi, std::vector<std::size_t>& out) const;

 private:
  struct Entry {
    double top = 0;
    double bottom = 0;
    std::size_t index = 0;
  };
  std::vector<Entry> entries_;  // ascending by top
  // Bounds how far left of y_lo a candidate's top can sit: bottom >= y_lo
  // implies top >= y_lo - max_height_.
  double max_height_ = 0;
};

class ScrollTracker {
 public:
  struct Params {
    ScrollConfig scroll;
    // Discrete-time step for the coverage integral Σ s_i(t). The paper sums
    // per millisecond; coarser steps trade accuracy for speed.
    double coverage_step_ms = 1.0;
    // Optional content bounds; the viewport is clamped inside (a fling at
    // the page bottom stops early).
    std::optional<Rect> content_bounds;
  };

  explicit ScrollTracker(Params params) : params_(std::move(params)) {}

  const Params& params() const { return params_; }

  // Predict the whole animation at finger release. `viewport` is the
  // viewport at release time, in content coordinates.
  ScrollPrediction predict(const Gesture& gesture, const Rect& viewport) const;

  // Identify involved objects and compute their coverage trajectories. Both
  // overloads share one coverage-integral pass: the viewport trajectory is
  // sampled once per step, and each involved object sums only the samples
  // it can overlap (DESIGN.md §20).
  ScrollAnalysis analyze(const ScrollPrediction& prediction,
                         const std::vector<MediaObject>& objects) const;

  // Same results, bit for bit, but only objects the index places inside the
  // swept y-corridor run the per-object coverage math — the touch-to-policy
  // hot path on large pages. `index` must be built from the same `objects`.
  ScrollAnalysis analyze(const ScrollPrediction& prediction,
                         const std::vector<MediaObject>& objects,
                         const ObjectIntervalIndex& index) const;

 private:
  Params params_;
};

}  // namespace mfhttp
