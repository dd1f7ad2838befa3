#include "core/scroll_tracker.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"
#include "util/check.h"

namespace mfhttp {

Rect ScrollPrediction::viewport_at(double t_ms) const {
  if (t_ms <= 0) return viewport0;
  if (t_ms >= duration_ms) return final_viewport();
  Vec2 d = animation.displacement_at(t_ms);
  // Axes clamp independently (a scrollable view stops the blocked axis at
  // its content edge while the other keeps going): never move an axis past
  // its clamped total.
  auto clamp_axis = [](double v, double limit) {
    if (limit >= 0) return std::min(v, limit);
    return std::max(v, limit);
  };
  d.x = clamp_axis(d.x, displacement.x);
  d.y = clamp_axis(d.y, displacement.y);
  return viewport0.translated(d);
}

std::vector<ScrollPrediction::PathSample> ScrollPrediction::sample_path(
    double step_ms) const {
  MFHTTP_CHECK(step_ms > 0);
  std::vector<PathSample> out;
  for (double t = 0; t < duration_ms; t += step_ms)
    out.push_back({t, viewport_at(t), animation.speed_at(t)});
  out.push_back({duration_ms, final_viewport(), 0.0});
  return out;
}

ScrollPrediction ScrollTracker::predict(const Gesture& gesture,
                                        const Rect& viewport) const {
  static obs::Counter& predictions_total =
      obs::metrics().counter("core.tracker.predictions_total");
  predictions_total.inc();
  ScrollPrediction pred;
  pred.gesture = gesture;
  pred.viewport0 = viewport;
  pred.start_time_ms = gesture.up_time_ms;

  // Content follows the finger; the viewport moves opposite the finger
  // velocity through content coordinates.
  Vec2 viewport_velocity = Vec2{} - gesture.release_velocity;
  pred.animation = ScrollAnimation(viewport_velocity, params_.scroll);

  Vec2 full = pred.animation.total_displacement();
  // The velocity tracker's least-squares fit leaves ~1e-13 px/s residue on
  // an axis the finger never moved along; without flushing it to zero a
  // viewport already at that axis's content edge would clamp the whole
  // scroll to nothing.
  if (std::abs(full.x) < 1e-6) full.x = 0;
  if (std::abs(full.y) < 1e-6) full.y = 0;
  // Content bounds clamp each axis INDEPENDENTLY, like Android's scrollable
  // views: a diagonal fling on a vertically-scrollable page loses its x
  // motion at the edge while y continues. The swept region is then the
  // straight line to the per-axis-clamped endpoint — a close approximation
  // of the bent true path whenever one axis dominates.
  double fx = 1.0, fy = 1.0;
  if (params_.content_bounds) {
    const Rect& bounds = *params_.content_bounds;
    auto axis_limit = [](double lo, double hi, double vp_lo, double vp_hi,
                         double d) -> double {
      if (d > 0) {
        double room = hi - vp_hi;
        return room <= 0 ? 0.0 : room / d;
      }
      if (d < 0) {
        double room = vp_lo - lo;
        return room <= 0 ? 0.0 : room / (-d);
      }
      return 1.0;
    };
    fx = std::clamp(axis_limit(bounds.left(), bounds.right(), viewport.left(),
                               viewport.right(), full.x),
                    0.0, 1.0);
    fy = std::clamp(axis_limit(bounds.top(), bounds.bottom(), viewport.top(),
                               viewport.bottom(), full.y),
                    0.0, 1.0);
  }
  pred.displacement = {full.x * fx, full.y * fy};
  // The animation ends when the last still-moving axis stops.
  double end_fraction = 0.0;
  if (full.x != 0) end_fraction = std::max(end_fraction, fx);
  if (full.y != 0) end_fraction = std::max(end_fraction, fy);
  pred.duration_ms =
      end_fraction >= 1.0
          ? pred.animation.duration_ms()
          : pred.animation.time_for_distance(pred.animation.total_distance() *
                                             end_fraction);
  return pred;
}

namespace {

// An involved object's coverage slot and corners (x1/y1 are the rect's
// right()/bottom() sums, computed once instead of once per trajectory step).
struct InvolvedRect {
  std::size_t index;
  double x0, y0, x1, y1;
};

// The per-object coverage math bar the integral, shared by both analyze()
// overloads so the indexed path is bit-identical to the linear scan.
void analyze_object(const ScrollPrediction& prediction, const SweptRegion& sweep,
                    const Rect& final_vp, double total_dist, std::size_t i,
                    const Rect& rect, ObjectCoverage& cov,
                    std::vector<InvolvedRect>& involved) {
  cov.in_initial_viewport = prediction.viewport0.overlaps(rect);
  cov.in_final_viewport = final_vp.overlaps(rect);
  cov.involved = intersects_swept_region(sweep, rect);
  if (!cov.involved) return;

  if (cov.in_initial_viewport) {
    cov.entry_time_ms = 0;
  } else {
    double frac = first_overlap_fraction(sweep, rect);
    MFHTTP_DCHECK(frac >= 0);
    cov.entry_time_ms = prediction.animation.time_for_distance(frac * total_dist);
  }

  cov.final_coverage = final_vp.overlap_area(rect);
  involved.push_back({i, rect.x, rect.y, rect.right(), rect.bottom()});
}

// Midpoint-rule sum Σ_t s_i(t)·step of Eq. (7) for every involved object in
// ONE trajectory pass: viewport_at (a std::pow on a fling) runs once per step,
// not once per step per object. t is outermost and ascending and the Eq. (6)
// terms are Rect::overlap_area's, so each object's sum is bit-identical to a
// per-object loop over viewport_at(t).overlap_area(rect) (DESIGN.md §17.5).
void accumulate_coverage_integral(const ScrollPrediction& prediction, double step,
                                  const std::vector<InvolvedRect>& involved,
                                  std::vector<ObjectCoverage>& coverages) {
  static obs::Counter& samples_total =
      obs::metrics().counter("core.tracker.trajectory_samples_total");
  if (involved.empty()) return;
  std::uint64_t samples = 0;
  for (double t = step / 2; t < prediction.duration_ms; t += step, ++samples) {
    const Rect vp = prediction.viewport_at(t);
    const double vr = vp.right(), vb = vp.bottom();
    for (const InvolvedRect& o : involved) {
      double dy = std::min(vb, o.y1) - std::max(vp.y, o.y0);
      double dx = std::min(vr, o.x1) - std::max(vp.x, o.x0);
      double s = (dx <= 0 || dy <= 0) ? 0 : dx * dy;
      coverages[o.index].coverage_integral += s * step;
    }
  }
  samples_total.inc(samples);
}

}  // namespace

void ObjectIntervalIndex::rebuild(const std::vector<MediaObject>& objects) {
  entries_.clear();
  entries_.reserve(objects.size());
  max_height_ = 0;
  for (std::size_t i = 0; i < objects.size(); ++i) {
    const Rect& r = objects[i].rect;
    entries_.push_back({r.top(), r.bottom(), i});
    max_height_ = std::max(max_height_, r.h);
  }
  std::sort(entries_.begin(), entries_.end(), [](const Entry& a, const Entry& b) {
    return a.top != b.top ? a.top < b.top : a.index < b.index;
  });
}

void ObjectIntervalIndex::query(double y_lo, double y_hi,
                                std::vector<std::size_t>& out) const {
  out.clear();
  if (entries_.empty() || y_hi < y_lo) return;
  // A candidate has top <= y_hi and bottom >= y_lo; since bottom is at most
  // top + max_height_, every candidate's top sits in [y_lo - max_height_,
  // y_hi] — binary-search the window's left edge, walk to its right edge.
  auto first = std::lower_bound(
      entries_.begin(), entries_.end(), y_lo - max_height_,
      [](const Entry& e, double v) { return e.top < v; });
  for (auto it = first; it != entries_.end() && it->top <= y_hi; ++it)
    if (it->bottom >= y_lo) out.push_back(it->index);
}

ScrollAnalysis ScrollTracker::analyze(const ScrollPrediction& prediction,
                                      const std::vector<MediaObject>& objects) const {
  static obs::Counter& analyses_total =
      obs::metrics().counter("core.tracker.analyses_total");
  analyses_total.inc();
  ScrollAnalysis analysis;
  analysis.prediction = prediction;
  analysis.coverages.resize(objects.size());

  const SweptRegion sweep = prediction.sweep();
  const Rect final_vp = prediction.final_viewport();
  const double total_dist = prediction.displacement.norm();
  const double step = params_.coverage_step_ms;
  MFHTTP_CHECK(step > 0);

  std::vector<InvolvedRect> involved;
  for (std::size_t i = 0; i < objects.size(); ++i) {
    ObjectCoverage& cov = analysis.coverages[i];
    cov.object_index = i;
    analyze_object(prediction, sweep, final_vp, total_dist, i, objects[i].rect,
                   cov, involved);
  }
  accumulate_coverage_integral(prediction, step, involved, analysis.coverages);
  return analysis;
}

ScrollAnalysis ScrollTracker::analyze(const ScrollPrediction& prediction,
                                      const std::vector<MediaObject>& objects,
                                      const ObjectIntervalIndex& index) const {
  static obs::Counter& analyses_total =
      obs::metrics().counter("core.tracker.analyses_total");
  static obs::Counter& candidates_total =
      obs::metrics().counter("core.tracker.index_candidates_total");
  static obs::Counter& pruned_total =
      obs::metrics().counter("core.tracker.index_pruned_total");
  analyses_total.inc();
  MFHTTP_CHECK_MSG(index.size() == objects.size(),
                   "interval index is stale: rebuild() after layout changes");
  ScrollAnalysis analysis;
  analysis.prediction = prediction;
  analysis.coverages.resize(objects.size());
  for (std::size_t i = 0; i < objects.size(); ++i)
    analysis.coverages[i].object_index = i;

  const SweptRegion sweep = prediction.sweep();
  const Rect final_vp = prediction.final_viewport();
  const double total_dist = prediction.displacement.norm();
  const double step = params_.coverage_step_ms;
  MFHTTP_CHECK(step > 0);

  // Everything a scroll can involve — initial viewport, final viewport, or
  // the swept corridor between them — lies inside the swept y-span.
  const double y_lo = std::min(prediction.viewport0.top(), final_vp.top());
  const double y_hi = std::max(prediction.viewport0.bottom(), final_vp.bottom());
  std::vector<std::size_t> candidates;
  index.query(y_lo, y_hi, candidates);
  std::vector<InvolvedRect> involved;
  for (std::size_t i : candidates)
    analyze_object(prediction, sweep, final_vp, total_dist, i, objects[i].rect,
                   analysis.coverages[i], involved);
  accumulate_coverage_integral(prediction, step, involved, analysis.coverages);
  candidates_total.inc(candidates.size());
  pruned_total.inc(objects.size() - candidates.size());
  return analysis;
}

std::vector<std::size_t> ScrollAnalysis::involved_by_entry_time() const {
  std::vector<std::size_t> idx;
  for (const ObjectCoverage& c : coverages)
    if (c.involved) idx.push_back(c.object_index);
  std::sort(idx.begin(), idx.end(), [this](std::size_t a, std::size_t b) {
    if (coverages[a].entry_time_ms != coverages[b].entry_time_ms)
      return coverages[a].entry_time_ms < coverages[b].entry_time_ms;
    return a < b;
  });
  return idx;
}

}  // namespace mfhttp
