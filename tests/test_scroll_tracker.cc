// Tests for the screen scrolling tracker (§3.3): prediction sign convention,
// content-bounds clamping, involvement, entry times and coverage integrals.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <iterator>
#include <ostream>
#include <vector>

#include "core/scroll_tracker.h"
#include "obs/metrics.h"
#include "scenario/scenario_spec.h"
#include "util/rng.h"
#include "web/corpus.h"

namespace mfhttp {
namespace {

const DeviceProfile kDevice = DeviceProfile::nexus6();

Gesture fling_gesture(Vec2 release_velocity, TimeMs up_time = 1000) {
  Gesture g;
  g.kind = GestureKind::kFling;
  g.down_time_ms = up_time - 150;
  g.up_time_ms = up_time;
  g.down_pos = {700, 1800};
  g.up_pos = g.down_pos + release_velocity * 0.15;
  g.release_velocity = release_velocity;
  return g;
}

ScrollTracker::Params tracker_params(std::optional<Rect> bounds = std::nullopt) {
  ScrollTracker::Params p;
  p.scroll = ScrollConfig(kDevice);
  p.coverage_step_ms = 1.0;
  p.content_bounds = bounds;
  return p;
}

const Rect kViewport{0, 0, 1440, 2560};

// ---------- prediction ----------

TEST(ScrollTracker, ViewportMovesOppositeFinger) {
  ScrollTracker tracker(tracker_params());
  // Finger flicks up (negative y velocity) => page scrolls down => viewport
  // displaces downward (+y) through content coordinates.
  ScrollPrediction pred = tracker.predict(fling_gesture({0, -4000}), kViewport);
  EXPECT_GT(pred.displacement.y, 0);
  EXPECT_NEAR(pred.displacement.x, 0, 1e-9);
  EXPECT_GT(pred.duration_ms, 0);
  EXPECT_EQ(pred.start_time_ms, 1000);
}

TEST(ScrollTracker, PredictionMatchesFlingEquations) {
  ScrollTracker tracker(tracker_params());
  ScrollPrediction pred = tracker.predict(fling_gesture({0, -4000}), kViewport);
  FlingParams fp;
  fp.ppi = kDevice.ppi;
  FlingModel reference(4000, fp);
  EXPECT_NEAR(pred.displacement.norm(), reference.total_distance_px(), 1e-6);
  EXPECT_NEAR(pred.duration_ms, reference.duration_ms(), 1e-6);
}

TEST(ScrollTracker, ViewportAtInterpolatesMonotonically) {
  ScrollTracker tracker(tracker_params());
  ScrollPrediction pred = tracker.predict(fling_gesture({0, -3000}), kViewport);
  double prev_y = pred.viewport0.y - 1;
  for (double t = 0; t <= pred.duration_ms; t += pred.duration_ms / 50) {
    double y = pred.viewport_at(t).y;
    EXPECT_GE(y, prev_y);
    prev_y = y;
  }
  EXPECT_NEAR(pred.viewport_at(pred.duration_ms).y, pred.final_viewport().y, 1e-9);
  EXPECT_NEAR(pred.viewport_at(1e9).y, pred.final_viewport().y, 1e-9);
}

TEST(ScrollTracker, DragPredictionShort) {
  ScrollTracker tracker(tracker_params());
  Gesture g = fling_gesture({0, -100});  // below fling threshold
  g.kind = GestureKind::kDrag;
  ScrollPrediction pred = tracker.predict(g, kViewport);
  EXPECT_EQ(pred.animation.kind(), ScrollKind::kDrag);
  EXPECT_LT(pred.displacement.norm(), 50);  // §3.3.1: very limited impact
}

TEST(ScrollTracker, ClampAtContentBottom) {
  Rect bounds{0, 0, 1440, 5000};  // short page: only 2440 px of scroll room
  ScrollTracker tracker(tracker_params(bounds));
  // A huge fling that would overshoot the page end.
  ScrollPrediction pred = tracker.predict(fling_gesture({0, -20000}), kViewport);
  EXPECT_NEAR(pred.final_viewport().bottom(), 5000, 1e-6);
  EXPECT_NEAR(pred.displacement.y, 2440, 1e-6);
  // Duration shortened accordingly.
  EXPECT_LT(pred.duration_ms, pred.animation.duration_ms());
  EXPECT_GT(pred.duration_ms, 0);
}

TEST(ScrollTracker, ClampAtTopWhenScrollingUp) {
  Rect bounds{0, 0, 1440, 50'000};
  ScrollTracker tracker(tracker_params(bounds));
  Rect viewport{0, 1000, 1440, 2560};  // only 1000 px above
  ScrollPrediction pred = tracker.predict(fling_gesture({0, 20000}), viewport);
  EXPECT_NEAR(pred.final_viewport().y, 0, 1e-6);
}

TEST(ScrollTracker, AlreadyAtEdgeNoMovement) {
  Rect bounds{0, 0, 1440, 2560};  // page == viewport
  ScrollTracker tracker(tracker_params(bounds));
  ScrollPrediction pred = tracker.predict(fling_gesture({0, -8000}), kViewport);
  EXPECT_NEAR(pred.displacement.norm(), 0, 1e-9);
  EXPECT_DOUBLE_EQ(pred.duration_ms, 0);
}

TEST(ScrollTracker, UnclampedWithoutBounds) {
  ScrollTracker tracker(tracker_params());
  ScrollPrediction pred = tracker.predict(fling_gesture({0, -20000}), kViewport);
  EXPECT_NEAR(pred.displacement.norm(), pred.animation.total_distance(), 1e-9);
}

TEST(ScrollTracker, DiagonalClampStopsOnlyBlockedAxis) {
  // Axes clamp independently (Android semantics): the x motion stops at the
  // content edge while y continues to the full fling distance.
  Rect bounds{0, 0, 2000, 10'000};
  ScrollTracker tracker(tracker_params(bounds));
  Rect viewport{0, 0, 1440, 2560};
  ScrollPrediction pred = tracker.predict(fling_gesture({-3000, -3000}), viewport);
  // Viewport moves (+x, +y); x clamps at 2000-1440 = 560 px of room.
  EXPECT_NEAR(pred.final_viewport().right(), 2000, 1e-6);
  EXPECT_NEAR(pred.displacement.x, 560, 1e-6);
  // y keeps the full share of the fling distance.
  double expected_y = pred.animation.total_displacement().y;
  EXPECT_NEAR(pred.displacement.y, expected_y, 1e-6);
  EXPECT_GT(pred.displacement.y, pred.displacement.x);
  // Duration is governed by the still-moving axis: the full animation.
  EXPECT_DOUBLE_EQ(pred.duration_ms, pred.animation.duration_ms());
}

TEST(ScrollTracker, HorizontalJitterOnVerticalFeedStillScrolls) {
  // Regression: a vertical fling with a small real x component on a page
  // with zero horizontal room must not clamp the whole scroll to nothing.
  Rect bounds{0, 0, 1440, 50'000};  // page exactly as wide as the viewport
  ScrollTracker tracker(tracker_params(bounds));
  ScrollPrediction pred =
      tracker.predict(fling_gesture({800, -20000}), kViewport);
  EXPECT_DOUBLE_EQ(pred.displacement.x, 0);  // x motion absorbed by the edge
  EXPECT_GT(pred.displacement.y, 2000);      // y scroll survives intact
  EXPECT_GT(pred.duration_ms, 500);
}

// ---------- analysis ----------

std::vector<MediaObject> column_of_objects(int count, double height = 400,
                                           double gap = 200) {
  std::vector<MediaObject> objects;
  for (int i = 0; i < count; ++i) {
    objects.push_back(make_single_version_object(
        "obj" + std::to_string(i), Rect{100, i * (height + gap), 800, height},
        50'000, "http://s.example/img/" + std::to_string(i) + ".jpg"));
  }
  return objects;
}

// The sparse analysis expanded to one coverage per object, in object order:
// the listed coverage, or the defaults for an unlisted object.
std::vector<ObjectCoverage> dense(const ScrollAnalysis& analysis,
                                  std::size_t object_count) {
  std::vector<ObjectCoverage> out(object_count);
  for (std::size_t i = 0; i < object_count; ++i) out[i].object_index = i;
  for (const ObjectCoverage& c : analysis.listed) {
    EXPECT_LT(c.object_index, object_count);
    if (c.object_index < object_count) out[c.object_index] = c;
  }
  return out;
}

// The listed coverage of an object, or nullptr if it is not listed.
const ObjectCoverage* find(const ScrollAnalysis& analysis, std::size_t object_index) {
  for (const ObjectCoverage& c : analysis.listed)
    if (c.object_index == object_index) return &c;
  return nullptr;
}

TEST(ScrollTracker, AnalyzeFlagsViewportMembership) {
  ScrollTracker tracker(tracker_params());
  std::vector<MediaObject> objects = column_of_objects(40);
  ScrollPrediction pred = tracker.predict(fling_gesture({0, -4000}), kViewport);
  const std::vector<ObjectCoverage> coverages =
      dense(tracker.analyze(pred, objects), objects.size());

  const Rect final_vp = pred.final_viewport();
  for (std::size_t i = 0; i < objects.size(); ++i) {
    const ObjectCoverage& cov = coverages[i];
    EXPECT_EQ(cov.in_initial_viewport, kViewport.overlaps(objects[i].rect)) << i;
    EXPECT_EQ(cov.in_final_viewport, final_vp.overlaps(objects[i].rect)) << i;
    if (cov.in_initial_viewport || cov.in_final_viewport) {
      EXPECT_TRUE(cov.involved) << i;
    }
    if (cov.in_final_viewport) {
      EXPECT_GT(cov.final_coverage, 0) << i;
    }
  }
}

TEST(ScrollTracker, EntryTimesOrderedDownThePage) {
  ScrollTracker tracker(tracker_params());
  std::vector<MediaObject> objects = column_of_objects(40);
  ScrollPrediction pred = tracker.predict(fling_gesture({0, -5000}), kViewport);
  const std::vector<ObjectCoverage> coverages =
      dense(tracker.analyze(pred, objects), objects.size());

  double prev_entry = -1;
  for (std::size_t i = 0; i < objects.size(); ++i) {
    const ObjectCoverage& cov = coverages[i];
    if (!cov.involved) continue;
    EXPECT_GE(cov.entry_time_ms, prev_entry) << "object " << i;
    prev_entry = cov.entry_time_ms;
  }
  // Initial-viewport objects enter at 0.
  EXPECT_DOUBLE_EQ(coverages[0].entry_time_ms, 0);
}

TEST(ScrollTracker, EntryTimeMatchesKinematics) {
  ScrollTracker tracker(tracker_params());
  std::vector<MediaObject> objects = column_of_objects(40);
  ScrollPrediction pred = tracker.predict(fling_gesture({0, -5000}), kViewport);
  ScrollAnalysis analysis = tracker.analyze(pred, objects);

  for (const ObjectCoverage& cov : analysis.listed) {
    if (!cov.involved || cov.entry_time_ms <= 0) continue;
    // Just before entry: no overlap; just after: overlap.
    Rect before = pred.viewport_at(cov.entry_time_ms - 5);
    Rect after = pred.viewport_at(std::min(cov.entry_time_ms + 5, pred.duration_ms));
    const Rect& obj = objects[cov.object_index].rect;
    EXPECT_LE(before.overlap_area(obj), 1.0) << cov.object_index;
    if (cov.entry_time_ms + 5 < pred.duration_ms) {
      EXPECT_GT(after.overlap_area(obj), 0) << cov.object_index;
    }
  }
}

TEST(ScrollTracker, CoverageIntegralBounds) {
  ScrollTracker tracker(tracker_params());
  std::vector<MediaObject> objects = column_of_objects(40);
  ScrollPrediction pred = tracker.predict(fling_gesture({0, -4000}), kViewport);
  const double S = kViewport.area();
  for (const ObjectCoverage& cov :
       dense(tracker.analyze(pred, objects), objects.size())) {
    EXPECT_GE(cov.coverage_integral, 0);
    // ∫ s dt <= S * T always.
    EXPECT_LE(cov.coverage_integral, S * pred.duration_ms * (1 + 1e-9));
    if (!cov.involved) {
      EXPECT_DOUBLE_EQ(cov.coverage_integral, 0);
    }
  }
}

TEST(ScrollTracker, StationaryObjectUnderViewportFullCoverage) {
  // An object fully covering the viewport the whole time integrates to S*T.
  ScrollTracker tracker(tracker_params());
  std::vector<MediaObject> objects;
  objects.push_back(make_single_version_object(
      "bg", Rect{-10'000, -10'000, 40'000, 40'000}, 1000, "http://s.example/bg"));
  ScrollPrediction pred = tracker.predict(fling_gesture({0, -3000}), kViewport);
  ScrollAnalysis analysis = tracker.analyze(pred, objects);
  double expected = kViewport.area() * pred.duration_ms;
  ASSERT_EQ(analysis.listed.size(), 1u);
  EXPECT_NEAR(analysis.listed[0].coverage_integral, expected, expected * 0.01);
}

TEST(ScrollTracker, CoarseStepApproximatesFineStep) {
  std::vector<MediaObject> objects = column_of_objects(20);
  Gesture g = fling_gesture({0, -4000});

  ScrollTracker fine(tracker_params());
  ScrollTracker::Params coarse_params = tracker_params();
  coarse_params.coverage_step_ms = 16.0;
  ScrollTracker coarse(coarse_params);

  ScrollPrediction pred = fine.predict(g, kViewport);
  const std::vector<ObjectCoverage> fa = dense(fine.analyze(pred, objects), objects.size());
  const std::vector<ObjectCoverage> ca =
      dense(coarse.analyze(pred, objects), objects.size());
  for (std::size_t i = 0; i < objects.size(); ++i) {
    if (!fa[i].involved) continue;
    double f = fa[i].coverage_integral;
    double c = ca[i].coverage_integral;
    if (f > 1000) {
      EXPECT_NEAR(c / f, 1.0, 0.05) << i;
    }
  }
}

TEST(ScrollTracker, InvolvedByEntryTimeSorted) {
  ScrollTracker tracker(tracker_params());
  std::vector<MediaObject> objects = column_of_objects(40);
  ScrollPrediction pred = tracker.predict(fling_gesture({0, -5000}), kViewport);
  ScrollAnalysis analysis = tracker.analyze(pred, objects);
  // The list is in (entry time, object index) order, so the involved
  // objects — every entry time >= 0 — follow any uninvolved ones (-1).
  const std::vector<ObjectCoverage>& listed = analysis.listed;
  std::size_t involved = 0;
  for (std::size_t k = 0; k < listed.size(); ++k) {
    involved += listed[k].involved ? 1 : 0;
    EXPECT_EQ(listed[k].entry_time_ms >= 0, listed[k].involved) << k;
    if (k == 0) continue;
    EXPECT_LE(listed[k - 1].entry_time_ms, listed[k].entry_time_ms);
    if (listed[k - 1].entry_time_ms == listed[k].entry_time_ms) {
      EXPECT_LT(listed[k - 1].object_index, listed[k].object_index);
    }
  }
  EXPECT_GT(involved, 1u);
}

TEST(ScrollTracker, ObjectsBeyondSweepNotInvolved) {
  ScrollTracker tracker(tracker_params());
  std::vector<MediaObject> objects = column_of_objects(200);  // very long page
  ScrollPrediction pred = tracker.predict(fling_gesture({0, -2000}), kViewport);
  ScrollAnalysis analysis = tracker.analyze(pred, objects);
  double sweep_bottom = pred.final_viewport().bottom();
  for (const ObjectCoverage& cov : analysis.listed)
    EXPECT_LE(objects[cov.object_index].rect.y, sweep_bottom + 1) << cov.object_index;
}

TEST(ScrollTracker, HorizontalScrollInvolvesSideObjects) {
  ScrollTracker tracker(tracker_params());
  std::vector<MediaObject> objects;
  objects.push_back(make_single_version_object("right", Rect{3000, 500, 400, 400},
                                               1000, "http://s/r"));
  objects.push_back(make_single_version_object("below", Rect{100, 5000, 400, 400},
                                               1000, "http://s/b"));
  // Finger swipes left => viewport moves right.
  ScrollPrediction pred = tracker.predict(fling_gesture({-6000, 0}), kViewport);
  ScrollAnalysis analysis = tracker.analyze(pred, objects);
  EXPECT_GT(pred.displacement.x, 0);
  ASSERT_NE(find(analysis, 0), nullptr);
  EXPECT_TRUE(find(analysis, 0)->involved);
  EXPECT_EQ(find(analysis, 1), nullptr);
}

// ---------- bitwise oracle for the shared trajectory pass ----------

// The paper-literal per-object math: every object walks the whole
// trajectory on its own, evaluating viewport_at(t) at each step of Eq. (7).
// The tracker samples the trajectory once per gesture, sums each involved
// object over its overlap window only, and lists only the objects the scroll
// touches; every field must still match bit for bit.
ObjectCoverage oracle_coverage(const ScrollPrediction& pred, double step,
                               const Rect& rect) {
  ObjectCoverage cov;
  const SweptRegion sweep = pred.sweep();
  const Rect final_vp = pred.final_viewport();
  cov.in_initial_viewport = pred.viewport0.overlaps(rect);
  cov.in_final_viewport = final_vp.overlaps(rect);
  cov.involved = intersects_swept_region(sweep, rect);
  if (!cov.involved) return cov;
  cov.entry_time_ms =
      cov.in_initial_viewport
          ? 0
          : pred.animation.time_for_distance(first_overlap_fraction(sweep, rect) *
                                             pred.displacement.norm());
  cov.final_coverage = final_vp.overlap_area(rect);
  for (double t = step / 2; t < pred.duration_ms; t += step)
    cov.coverage_integral += pred.viewport_at(t).overlap_area(rect) * step;
  return cov;
}

bool is_default(const ObjectCoverage& c) {
  const ObjectCoverage d;
  return c.involved == d.involved && c.in_initial_viewport == d.in_initial_viewport &&
         c.in_final_viewport == d.in_final_viewport &&
         c.entry_time_ms == d.entry_time_ms &&
         c.coverage_integral == d.coverage_integral &&
         c.final_coverage == d.final_coverage;
}

// Sparse completeness against the dense oracle: the list is in (entry time,
// object index) order, every object whose oracle coverage is not all-default
// appears exactly once with every field bit-equal, and no other object
// appears. Returns the number of listed objects that have a viewport flag
// without `involved`.
std::size_t expect_sparse_matches_oracle(const ScrollAnalysis& analysis,
                                         const std::vector<MediaObject>& objects,
                                         const ScrollPrediction& pred, double step) {
  const std::vector<ObjectCoverage>& listed = analysis.listed;
  for (std::size_t k = 1; k < listed.size(); ++k) {
    const ObjectCoverage& a = listed[k - 1];
    const ObjectCoverage& b = listed[k];
    EXPECT_TRUE(a.entry_time_ms < b.entry_time_ms ||
                (a.entry_time_ms == b.entry_time_ms && a.object_index < b.object_index))
        << "listed " << k << " out of order";
  }
  std::vector<int> times_listed(objects.size(), 0);
  for (const ObjectCoverage& c : listed) {
    EXPECT_LT(c.object_index, objects.size());
    if (c.object_index < objects.size()) ++times_listed[c.object_index];
  }
  std::size_t flag_only = 0;
  for (std::size_t i = 0; i < objects.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "object " << i);
    const ObjectCoverage want = oracle_coverage(pred, step, objects[i].rect);
    if (is_default(want)) {
      EXPECT_EQ(times_listed[i], 0);
      continue;
    }
    EXPECT_EQ(times_listed[i], 1);
    const ObjectCoverage* got = find(analysis, i);
    if (got == nullptr) continue;
    EXPECT_EQ(got->object_index, i);
    EXPECT_EQ(got->involved, want.involved);
    EXPECT_EQ(got->in_initial_viewport, want.in_initial_viewport);
    EXPECT_EQ(got->in_final_viewport, want.in_final_viewport);
    EXPECT_EQ(got->entry_time_ms, want.entry_time_ms);
    EXPECT_EQ(got->final_coverage, want.final_coverage);
    EXPECT_EQ(got->coverage_integral, want.coverage_integral);
    if (!want.involved) ++flag_only;
  }
  return flag_only;
}

enum class OracleCase { kFling, kDrag, kBottomClamped, kDiagonal, kZeroDuration };

TEST(ScrollTracker, SharedTrajectoryMatchesPerObjectOracleBitwise) {
  const Rect page{0, 0, 1440, 30'000};
  Rng rng(7);
  std::size_t involved_checked = 0;
  for (int trial = 0; trial < 6; ++trial) {
    // Random page: overlapping objects, some off the page's left edge, a few
    // zero-width (degenerate) ones.
    std::vector<MediaObject> objects;
    for (int i = 0; i < 120; ++i) {
      const double w = rng.chance(0.05) ? 0 : rng.uniform(40, 1400);
      const Rect r{rng.uniform(-200, 1400), rng.uniform(0, 29'000), w,
                   rng.uniform(40, 1500)};
      objects.push_back(make_single_version_object(
          "o" + std::to_string(i), r, 10'000, "http://s.example/" + std::to_string(i)));
    }
    const ObjectIntervalIndex index(objects);

    for (double step : {0.5, 1.0, 4.0}) {
      for (OracleCase c : {OracleCase::kFling, OracleCase::kDrag,
                           OracleCase::kBottomClamped, OracleCase::kDiagonal,
                           OracleCase::kZeroDuration}) {
        ScrollTracker::Params p = tracker_params(page);
        p.coverage_step_ms = step;
        Rect viewport = kViewport.translated({0, rng.uniform(0, 20'000)});
        const Rect at_bottom = kViewport.translated({0, page.bottom() - kViewport.h});
        Gesture g;
        switch (c) {
          case OracleCase::kFling:
            g = fling_gesture({0, rng.uniform(-12'000, 12'000)});
            break;
          case OracleCase::kDrag:
            g = fling_gesture({0, rng.uniform(-150, 150)});
            g.kind = GestureKind::kDrag;
            break;
          case OracleCase::kBottomClamped:
            viewport = at_bottom.translated({0, -rng.uniform(0, 800)});
            g = fling_gesture({0, -rng.uniform(6'000, 16'000)});
            break;
          case OracleCase::kDiagonal:
            p.content_bounds.reset();  // both axes keep moving
            g = fling_gesture({rng.uniform(-8'000, 8'000), rng.uniform(-8'000, 8'000)});
            break;
          case OracleCase::kZeroDuration:
            viewport = at_bottom;  // flinging further down goes nowhere
            g = fling_gesture({0, -rng.uniform(1'000, 9'000)});
            break;
        }
        const ScrollTracker tracker(p);
        const ScrollPrediction pred = tracker.predict(g, viewport);
        if (c == OracleCase::kBottomClamped) {
          ASSERT_LT(pred.duration_ms, pred.animation.duration_ms());
        }
        if (c == OracleCase::kZeroDuration) {
          ASSERT_EQ(pred.duration_ms, 0);
        }

        const ScrollAnalysis analyses[] = {tracker.analyze(pred, objects),
                                           tracker.analyze(pred, objects, index)};
        for (std::size_t k = 0; k < std::size(analyses); ++k) {
          SCOPED_TRACE(::testing::Message()
                       << "trial " << trial << " step " << step << " case "
                       << static_cast<int>(c) << " overload " << k);
          expect_sparse_matches_oracle(analyses[k], objects, pred, step);
          for (const ObjectCoverage& cov : analyses[k].listed)
            involved_checked += cov.involved ? 1 : 0;
        }
      }
    }
  }
  EXPECT_GT(involved_checked, 1000u);  // the oracle actually exercised integrals
}

// ---------- indexed vs linear analyze ----------

// The interval index only prunes objects the exact math cannot involve, so
// the indexed overload must equal the linear scan field for field — across
// the fig7 corpus on every scenario device class, plus a page of degenerate
// (zero-width / zero-height) rects next to a live one.
void expect_analysis_eq(const ScrollAnalysis& linear, const ScrollAnalysis& indexed) {
  ASSERT_EQ(linear.listed.size(), indexed.listed.size());
  for (std::size_t i = 0; i < linear.listed.size(); ++i) {
    const ObjectCoverage& a = linear.listed[i];
    const ObjectCoverage& b = indexed.listed[i];
    SCOPED_TRACE(::testing::Message() << "listed " << i);
    EXPECT_EQ(a.object_index, b.object_index);
    EXPECT_EQ(a.involved, b.involved);
    EXPECT_EQ(a.entry_time_ms, b.entry_time_ms);
    EXPECT_EQ(a.coverage_integral, b.coverage_integral);
    EXPECT_EQ(a.final_coverage, b.final_coverage);
    EXPECT_EQ(a.in_initial_viewport, b.in_initial_viewport);
    EXPECT_EQ(a.in_final_viewport, b.in_final_viewport);
  }
}

// Object indices of the involved objects, in list (entry-time) order.
std::vector<std::size_t> involved_order(const ScrollAnalysis& analysis) {
  std::vector<std::size_t> order;
  for (const ObjectCoverage& c : analysis.listed)
    if (c.involved) order.push_back(c.object_index);
  return order;
}

ScrollTracker::Params device_tracker_params(const DeviceProfile& device) {
  ScrollTracker::Params p;
  p.scroll = ScrollConfig(device);
  p.coverage_step_ms = 4.0;
  return p;
}

// One fig7 corpus instantiation per device class, deterministic by construction.
std::vector<WebPage> device_corpus(const scenario::DeviceClassSpec& device) {
  Rng rng(0xA23Au ^ static_cast<std::uint64_t>(device.profile.screen_w_px));
  return generate_corpus(device.profile, rng);
}

// The device's fig7 swipe ramp, an upward scroll, and a slight diagonal.
std::vector<Vec2> device_swipes(const scenario::DeviceClassSpec& device) {
  std::vector<Vec2> velocities;
  for (int r = 0; r < 3; ++r)
    velocities.push_back(
        {0, -(device.swipe_speed_base_px_s + device.swipe_speed_step_px_s * r)});
  velocities.push_back({0, device.swipe_speed_base_px_s});
  velocities.push_back({-400, -device.swipe_speed_base_px_s});
  return velocities;
}

TEST(ScrollTracker, IndexedAnalyzeMatchesLinearAcrossCorpusAndDeviceGrid) {
  std::size_t compared = 0;
  for (const char* name :
       {"phone_flagship", "phone_midrange", "phone_lowend", "tablet10"}) {
    const auto device = scenario::DeviceClassSpec::named(name);
    ASSERT_TRUE(device.has_value()) << name;
    const ScrollTracker tracker(device_tracker_params(device->profile));
    const Rect viewport{0, 0, device->profile.screen_w_px,
                        device->profile.screen_h_px};
    for (const WebPage& page : device_corpus(*device)) {
      const ObjectIntervalIndex index(page.images);
      for (const Vec2& v : device_swipes(*device)) {
        SCOPED_TRACE(::testing::Message() << name << "/" << page.site << " v=("
                                          << v.x << ", " << v.y << ")");
        const ScrollPrediction pred = tracker.predict(fling_gesture(v), viewport);
        expect_analysis_eq(tracker.analyze(pred, page.images),
                           tracker.analyze(pred, page.images, index));
        compared += page.images.size();
      }
    }
  }
  EXPECT_GT(compared, 1000u);
}

// The index prunes candidates but must hand back the same involved set, in the
// same entry-time order, as the linear scan; every object is indexed.
TEST(ScrollTracker, IndexedAnalyzeKeepsInvolvedOrderOnFlagshipCorpus) {
  const auto device = scenario::DeviceClassSpec::named("phone_flagship");
  ASSERT_TRUE(device.has_value());
  const ScrollTracker tracker(device_tracker_params(device->profile));
  const Rect viewport{0, 0, device->profile.screen_w_px, device->profile.screen_h_px};
  std::size_t involved = 0;
  for (const WebPage& page : device_corpus(*device)) {
    const ObjectIntervalIndex index(page.images);
    ASSERT_EQ(index.size(), page.images.size()) << page.site;
    for (const Vec2& v : device_swipes(*device)) {
      SCOPED_TRACE(::testing::Message() << page.site << " v=(" << v.x << ", " << v.y
                                        << ")");
      const ScrollPrediction pred = tracker.predict(fling_gesture(v), viewport);
      const ScrollAnalysis linear = tracker.analyze(pred, page.images);
      const ScrollAnalysis indexed = tracker.analyze(pred, page.images, index);
      EXPECT_EQ(involved_order(indexed), involved_order(linear));
      involved += involved_order(linear).size();
    }
  }
  EXPECT_GT(involved, 0u);
}

// Zero-width and zero-height rects are never involved on either path, and do
// not disturb the live object next to them.
TEST(ScrollTracker, DegenerateRectsIndexedMatchesLinear) {
  std::vector<MediaObject> objects;
  objects.push_back(make_single_version_object("zero-w", Rect{100, 300, 0, 200},
                                               1000, "http://s/a"));
  objects.push_back(make_single_version_object("zero-h", Rect{100, 900, 300, 0},
                                               1000, "http://s/b"));
  objects.push_back(make_single_version_object("live", Rect{100, 1500, 300, 200},
                                               1000, "http://s/c"));
  const ScrollTracker tracker(device_tracker_params(kDevice));
  const ObjectIntervalIndex index(objects);
  const ScrollPrediction pred = tracker.predict(fling_gesture({0, -5000}), kViewport);
  const ScrollAnalysis linear = tracker.analyze(pred, objects);
  expect_analysis_eq(linear, tracker.analyze(pred, objects, index));
  // A zero-size rect inside the viewport still passes Rect::overlaps, so it
  // can be listed for its viewport flag — but never as involved.
  for (std::size_t i : {0u, 1u}) {
    if (const ObjectCoverage* c = find(linear, i)) {
      EXPECT_FALSE(c->involved) << i;
    }
  }
  ASSERT_NE(find(linear, 2), nullptr);
  EXPECT_TRUE(find(linear, 2)->involved);
}

TEST(ScrollTracker, TrajectorySamplesCountedOncePerStep) {
  obs::Counter& samples = obs::metrics().counter("core.tracker.trajectory_samples_total");
  obs::Counter& window = obs::metrics().counter("core.tracker.window_samples_total");
  ScrollTracker::Params p = tracker_params();
  p.coverage_step_ms = 4.0;
  ScrollTracker tracker(p);
  std::vector<MediaObject> objects = column_of_objects(40);
  ScrollPrediction pred = tracker.predict(fling_gesture({0, -4000}), kViewport);
  std::uint64_t steps = 0;
  for (double t = 2.0; t < pred.duration_ms; t += 4.0) ++steps;
  ASSERT_GT(steps, 0u);

  // However many objects are involved, the trajectory is sampled once per step.
  std::uint64_t before = samples.value();
  const std::uint64_t window_before = window.value();
  ScrollAnalysis analysis = tracker.analyze(pred, objects);
  const std::size_t involved = involved_order(analysis).size();
  EXPECT_GT(involved, 1u);
  EXPECT_EQ(samples.value() - before, steps);
  // Each involved object sums only its overlap window: on a long fling down
  // a column, no object overlaps the viewport for the whole scroll.
  const std::uint64_t summed = window.value() - window_before;
  EXPECT_GT(summed, 0u);
  EXPECT_LT(summed, steps * involved);
  std::uint64_t overlapping = 0;  // samples with positive overlap, per object
  for (const ObjectCoverage& cov : analysis.listed) {
    if (!cov.involved) continue;
    for (double t = 2.0; t < pred.duration_ms; t += 4.0)
      overlapping += pred.viewport_at(t).overlap_area(objects[cov.object_index].rect) > 0;
  }
  EXPECT_GE(summed, overlapping);

  // Nothing involved: no samples.
  before = samples.value();
  tracker.analyze(pred, std::vector<MediaObject>{});
  EXPECT_EQ(samples.value() - before, 0u);
}

// Rects placed within a few ulps of the initial and final viewports' edges:
// Rect::overlaps and the swept-region test round differently there, so a
// viewport flag can come without `involved`. Whatever the flags say, the
// sparse list must hold exactly the objects the dense oracle flags, on both
// overloads.
TEST(ScrollTracker, SparseAnalysisListsViewportEdgeObjects) {
  Rng rng(0xED6E);
  const Rect page{0, 0, 1440, 40'000};
  std::size_t flag_only = 0, listed = 0;
  for (int trial = 0; trial < 40; ++trial) {
    ScrollTracker::Params p = tracker_params(page);
    p.coverage_step_ms = trial % 2 == 0 ? 1.0 : 4.0;
    if (trial % 4 == 3) p.content_bounds.reset();
    const ScrollTracker tracker(p);
    const Rect viewport = kViewport.translated({0, rng.uniform(0, 30'000)});
    const Vec2 v = trial % 4 == 3
                       ? Vec2{rng.uniform(-6'000, 6'000), rng.uniform(-6'000, 6'000)}
                       : Vec2{0, rng.uniform(-12'000, 12'000)};
    const ScrollPrediction pred = tracker.predict(fling_gesture(v), viewport);
    const Rect vps[] = {pred.viewport0, pred.final_viewport()};

    std::vector<MediaObject> objects;
    for (int i = 0; i < 48; ++i) {
      const Rect& vp = vps[i % 2];
      const double w = rng.uniform(20, 900), h = rng.uniform(20, 900);
      // An edge coordinate, nudged by up to two ulps either way.
      auto nudge = [&](double x) {
        for (int u = static_cast<int>(rng.uniform_int(-2, 2)); u != 0; u += u > 0 ? -1 : 1)
          x = std::nextafter(x, u > 0 ? INFINITY : -INFINITY);
        return x;
      };
      Rect r{rng.uniform(vp.left() - w, vp.right()), 0, w, h};
      switch (rng.uniform_int(0, 3)) {
        case 0: r.y = nudge(vp.bottom()); break;      // just below
        case 1: r.y = nudge(vp.top() - h); break;     // just above
        case 2:                                       // just right
          r.x = nudge(vp.right());
          r.y = rng.uniform(vp.top() - h, vp.bottom());
          break;
        default:                                      // just left
          r.x = nudge(vp.left() - w);
          r.y = rng.uniform(vp.top() - h, vp.bottom());
          break;
      }
      objects.push_back(make_single_version_object(
          "edge-" + std::to_string(i), r, 1000, "http://s.example/edge-" + std::to_string(i)));
    }
    const ObjectIntervalIndex index(objects);
    for (const ScrollAnalysis& a :
         {tracker.analyze(pred, objects), tracker.analyze(pred, objects, index)}) {
      SCOPED_TRACE(::testing::Message() << "trial " << trial);
      flag_only += expect_sparse_matches_oracle(a, objects, pred, p.coverage_step_ms);
      listed += a.listed.size();
    }
  }
  EXPECT_GT(listed, 0u);
  // The edge search does produce viewport flags without `involved` (zero-
  // overlap rounding at the viewport edges), so that path is exercised.
  EXPECT_GT(flag_only, 0u);
}

// ---------- cross-device property sweep ----------

}  // namespace

// The device class a profile is. gtest prints each TrackerDeviceSweep
// parameter with it instead of a byte dump, and gtest_discover_tests names
// the index-numbered cases by that printed value, so ctest lists
// ".../Nexus6". (A name generator would keep gtest's "# GetParam() = ..."
// comment in the ctest name.)
const char* device_class(const DeviceProfile& d) {
  const struct {
    const char* name;
    DeviceProfile profile;
  } classes[] = {{"Nexus6", DeviceProfile::nexus6()},
                 {"Nexus5", DeviceProfile::nexus5()},
                 {"Tablet10", DeviceProfile::tablet10()},
                 {"LowEnd", DeviceProfile::lowend()}};
  for (const auto& c : classes)
    if (c.profile.screen_w_px == d.screen_w_px &&
        c.profile.screen_h_px == d.screen_h_px && c.profile.ppi == d.ppi)
      return c.name;
  return "Custom";
}

void PrintTo(const DeviceProfile& d, std::ostream* os) {
  *os << device_class(d);
}

namespace {

class TrackerDeviceSweep : public ::testing::TestWithParam<DeviceProfile> {};

TEST_P(TrackerDeviceSweep, PredictionInvariantsHoldOnEveryDevice) {
  const DeviceProfile device = GetParam();
  ScrollTracker::Params p;
  p.scroll = ScrollConfig(device);
  p.coverage_step_ms = 4.0;
  p.content_bounds = Rect{0, 0, device.screen_w_px, 60'000};
  ScrollTracker tracker(p);
  Rect viewport{0, 0, device.screen_w_px, device.screen_h_px};

  for (double speed : {device.min_fling_velocity_px_s() * 1.5, 3000.0, 9000.0}) {
    Gesture g = fling_gesture({0, -speed});
    ScrollPrediction pred = tracker.predict(g, viewport);
    // Viewport always stays within the content.
    EXPECT_GE(pred.final_viewport().top(), -1e-6);
    EXPECT_LE(pred.final_viewport().bottom(), 60'000 + 1e-6);
    // Duration and displacement are consistent with the fling equations.
    EXPECT_GT(pred.duration_ms, 0);
    EXPECT_GT(pred.displacement.y, 0);
    EXPECT_LE(pred.displacement.norm(),
              pred.animation.total_distance() + 1e-6);
  }
}

TEST_P(TrackerDeviceSweep, HigherPpiScrollsFewerPixels) {
  // Same finger speed covers fewer *pixels* on denser screens (the Eqs. 1-3
  // coefficient scales with ppi) — the reason the middleware needs the
  // device profile at all (§3.2).
  const DeviceProfile device = GetParam();
  if (device.ppi <= DeviceProfile::lowend().ppi) return;
  ScrollTracker::Params dense;
  dense.scroll = ScrollConfig(device);
  ScrollTracker::Params sparse;
  sparse.scroll = ScrollConfig(DeviceProfile::lowend());
  Gesture g = fling_gesture({0, -5000});
  Rect viewport{0, 0, 1000, 2000};
  double dense_d =
      ScrollTracker(dense).predict(g, viewport).displacement.norm();
  double sparse_d =
      ScrollTracker(sparse).predict(g, viewport).displacement.norm();
  EXPECT_LT(dense_d, sparse_d);
}

INSTANTIATE_TEST_SUITE_P(Devices, TrackerDeviceSweep,
                         ::testing::Values(DeviceProfile::nexus6(),
                                           DeviceProfile::nexus5(),
                                           DeviceProfile::tablet10(),
                                           DeviceProfile::lowend()));

}  // namespace
}  // namespace mfhttp
