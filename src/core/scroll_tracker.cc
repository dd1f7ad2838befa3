#include "core/scroll_tracker.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <ranges>
#include <utility>

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

// Midpoint-rule sum Σ_t s_i(t)·step of Eq. (7) for one object over the
// gesture's shared viewport samples. s_i > 0 needs bottom > y0 and y < y1.
// With y monotone (`y_dir` +1 rising, -1 falling, 0 neither), bottom = y + h
// moves the same way (rounding is monotone), so each condition holds on a
// prefix or a suffix of the samples and binary search bounds the window
// [lo, hi) outside which s_i is 0. Each skipped term was exactly +0.0 added
// to a sum that starts at +0.0, so the window sum is bit-identical to the
// full one; inside it the terms are Rect::overlap_area's, added in
// ascending t (DESIGN.md §20.2).
double coverage_integral(const std::vector<Rect>& samples, int y_dir,
                         double step, const Rect& rect, std::uint64_t& summed) {
  const double x0 = rect.x, y0 = rect.y, x1 = rect.right(), y1 = rect.bottom();
  auto past_top = [y0](const Rect& s) { return s.bottom() > y0; };
  auto before_bottom = [y1](const Rect& s) { return s.y < y1; };
  // The first sample where a false-then-true `holds` is true.
  auto first = [&samples](auto holds) {
    return static_cast<std::size_t>(
        std::partition_point(samples.begin(), samples.end(), std::not_fn(holds)) -
        samples.begin());
  };
  std::size_t lo = 0, hi = samples.size();
  if (y_dir > 0) {
    lo = first(past_top);
    hi = first(std::not_fn(before_bottom));
  } else if (y_dir < 0) {
    lo = first(before_bottom);
    hi = first(std::not_fn(past_top));
  }
  double sum = 0;
  for (std::size_t k = lo; k < hi; ++k) {
    const Rect& s = samples[k];
    double dy = std::min(s.bottom(), y1) - std::max(s.y, y0);
    double dx = std::min(s.right(), x1) - std::max(s.x, x0);
    double area = (dx <= 0 || dy <= 0) ? 0 : dx * dy;
    sum += area * step;
  }
  if (lo < hi) summed += hi - lo;
  return sum;
}

// Both analyze() overloads: list each candidate the scroll touches
// (involved, or in the initial or final viewport), sort the list into entry
// order, then fill in the involved objects' Eq. (7) integrals from one
// trajectory pass. One code path, so the indexed analysis is bit-identical
// to the linear scan.
template <typename Candidates>
ScrollAnalysis analyze_candidates(const ScrollPrediction& prediction,
                                  const std::vector<MediaObject>& objects,
                                  const Candidates& candidates, double step) {
  static obs::Counter& analyses_total =
      obs::metrics().counter("core.tracker.analyses_total");
  static obs::Counter& samples_total =
      obs::metrics().counter("core.tracker.trajectory_samples_total");
  static obs::Counter& window_samples_total =
      obs::metrics().counter("core.tracker.window_samples_total");
  analyses_total.inc();
  MFHTTP_CHECK(step > 0);
  ScrollAnalysis analysis;
  analysis.prediction = prediction;
  std::vector<ObjectCoverage>& listed = analysis.listed;
  listed.reserve(std::size(candidates));

  const SweptRegion sweep = prediction.sweep();
  const Rect final_vp = prediction.final_viewport();
  const double total_dist = prediction.displacement.norm();
  bool any_involved = false;
  for (std::size_t i : candidates) {
    const Rect& rect = objects[i].rect;
    ObjectCoverage cov;
    cov.object_index = i;
    cov.in_initial_viewport = prediction.viewport0.overlaps(rect);
    cov.in_final_viewport = final_vp.overlaps(rect);
    cov.involved = intersects_swept_region(sweep, rect);
    if (cov.involved) {
      if (cov.in_initial_viewport) {
        cov.entry_time_ms = 0;
      } else {
        double frac = first_overlap_fraction(sweep, rect);
        MFHTTP_DCHECK(frac >= 0);
        cov.entry_time_ms =
            prediction.animation.time_for_distance(frac * total_dist);
      }
      cov.final_coverage = final_vp.overlap_area(rect);
      any_involved = true;
    }
    if (cov.involved || cov.in_initial_viewport || cov.in_final_viewport)
      listed.push_back(cov);
  }
  std::ranges::sort(listed, {}, [](const ObjectCoverage& c) {
    return std::pair(c.entry_time_ms, c.object_index);
  });
  if (!any_involved) return analysis;

  // Sample the viewport once at t = step/2, step/2 + step, ... < duration,
  // the sequence a per-object loop walks, into this thread's reused buffer.
  // The windows need y monotone; the AOSP fling is, but glibc's pow is not
  // correctly rounded, so it is checked (a NaN fails both directions).
  thread_local std::vector<Rect> samples;
  samples.clear();
  bool up = true, down = true;
  for (double t = step / 2; t < prediction.duration_ms; t += step) {
    const Rect vp = prediction.viewport_at(t);
    if (!samples.empty()) {
      up &= samples.back().y <= vp.y;
      down &= samples.back().y >= vp.y;
    }
    samples.push_back(vp);
  }
  samples_total.inc(samples.size());
  const int y_dir = up ? 1 : down ? -1 : 0;
  std::uint64_t summed = 0;
  for (ObjectCoverage& cov : listed)
    if (cov.involved)
      cov.coverage_integral = coverage_integral(
          samples, y_dir, step, objects[cov.object_index].rect, summed);
  window_samples_total.inc(summed);
  return analysis;
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
  return analyze_candidates(prediction, objects,
                            std::views::iota(std::size_t{0}, objects.size()),
                            params_.coverage_step_ms);
}

ScrollAnalysis ScrollTracker::analyze(const ScrollPrediction& prediction,
                                      const std::vector<MediaObject>& objects,
                                      const ObjectIntervalIndex& index) const {
  static obs::Counter& candidates_total =
      obs::metrics().counter("core.tracker.index_candidates_total");
  static obs::Counter& pruned_total =
      obs::metrics().counter("core.tracker.index_pruned_total");
  MFHTTP_CHECK_MSG(index.size() == objects.size(),
                   "interval index is stale: rebuild() after layout changes");
  // Everything a scroll can involve — initial viewport, final viewport, or
  // the swept corridor between them — lies inside the swept y-span.
  const Rect final_vp = prediction.final_viewport();
  const double y_lo = std::min(prediction.viewport0.top(), final_vp.top());
  const double y_hi = std::max(prediction.viewport0.bottom(), final_vp.bottom());
  thread_local std::vector<std::size_t> candidates;  // reused, like samples
  index.query(y_lo, y_hi, candidates);
  candidates_total.inc(candidates.size());
  pruned_total.inc(objects.size() - candidates.size());
  return analyze_candidates(prediction, objects, candidates,
                            params_.coverage_step_ms);
}

std::vector<const ObjectCoverage*> ScrollAnalysis::listed_by_object_index() const {
  std::vector<const ObjectCoverage*> out;
  out.reserve(listed.size());
  for (const ObjectCoverage& c : listed) out.push_back(&c);
  std::ranges::sort(out, {}, [](const ObjectCoverage* c) { return c->object_index; });
  return out;
}

}  // namespace mfhttp
