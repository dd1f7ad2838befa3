// Unit + property tests for geometry: Vec2, Rect, and the swept-viewport
// region of §3.3.3, including a cross-check of the paper's literal
// 3-condition membership test against the general slab implementation and a
// sampling-based ground-truth oracle.
#include <gtest/gtest.h>

#include "geom/rect.h"
#include "geom/swept_region.h"
#include "geom/vec2.h"
#include "util/rng.h"

namespace mfhttp {
namespace {

// ---------- Vec2 ----------

TEST(Vec2, Arithmetic) {
  Vec2 a{1, 2}, b{3, -4};
  EXPECT_EQ(a + b, (Vec2{4, -2}));
  EXPECT_EQ(a - b, (Vec2{-2, 6}));
  EXPECT_EQ(a * 2.0, (Vec2{2, 4}));
  EXPECT_EQ(2.0 * a, (Vec2{2, 4}));
}

TEST(Vec2, NormAndDot) {
  Vec2 v{3, 4};
  EXPECT_DOUBLE_EQ(v.norm(), 5.0);
  EXPECT_DOUBLE_EQ(v.norm_sq(), 25.0);
  EXPECT_DOUBLE_EQ(v.dot({1, 1}), 7.0);
}

TEST(Vec2, NormalizedUnitLength) {
  Vec2 n = Vec2{3, 4}.normalized();
  EXPECT_NEAR(n.norm(), 1.0, 1e-12);
  EXPECT_NEAR(n.x, 0.6, 1e-12);
}

TEST(Vec2, NormalizedZeroIsZero) {
  EXPECT_EQ(Vec2{}.normalized(), Vec2{});
}

// ---------- Rect ----------

TEST(Rect, Accessors) {
  Rect r{10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(r.right(), 40);
  EXPECT_DOUBLE_EQ(r.bottom(), 60);
  EXPECT_DOUBLE_EQ(r.area(), 1200);
  EXPECT_EQ(r.center(), (Vec2{25, 40}));
}

TEST(Rect, FromCorners) {
  Rect r = Rect::from_corners({1, 2}, {5, 8});
  EXPECT_EQ(r, (Rect{1, 2, 4, 6}));
}

TEST(Rect, OverlapsStrict) {
  Rect a{0, 0, 10, 10};
  EXPECT_TRUE(a.overlaps({5, 5, 10, 10}));
  EXPECT_FALSE(a.overlaps({10, 0, 5, 5}));  // edge touch: no positive area
  EXPECT_FALSE(a.overlaps({0, 10, 5, 5}));
  EXPECT_FALSE(a.overlaps({20, 20, 5, 5}));
}

TEST(Rect, OverlapAreaMatchesEq6) {
  Rect vp{0, 0, 100, 100};
  Rect obj{50, 60, 100, 100};
  // Eq. (6): [min(160,100)-max(60,0)] * [min(150,100)-max(50,0)] = 40*50.
  EXPECT_DOUBLE_EQ(vp.overlap_area(obj), 2000.0);
  EXPECT_DOUBLE_EQ(obj.overlap_area(vp), 2000.0);  // symmetric
}

TEST(Rect, OverlapAreaDisjointIsZero) {
  Rect a{0, 0, 10, 10};
  EXPECT_DOUBLE_EQ(a.overlap_area({100, 100, 5, 5}), 0.0);
  EXPECT_DOUBLE_EQ(a.overlap_area({10, 0, 5, 5}), 0.0);  // touching
}

TEST(Rect, ContainedOverlapAreaIsInnerArea) {
  Rect outer{0, 0, 100, 100};
  Rect inner{10, 10, 20, 30};
  EXPECT_DOUBLE_EQ(outer.overlap_area(inner), inner.area());
}

TEST(Rect, ContainsPointAndRect) {
  Rect r{0, 0, 10, 10};
  EXPECT_TRUE(r.contains(Vec2{5, 5}));
  EXPECT_TRUE(r.contains(Vec2{0, 0}));   // boundary inclusive
  EXPECT_TRUE(r.contains(Vec2{10, 10}));
  EXPECT_FALSE(r.contains(Vec2{10.01, 5}));
  EXPECT_TRUE(r.contains(Rect{1, 1, 8, 8}));
  EXPECT_FALSE(r.contains(Rect{5, 5, 10, 10}));
}

TEST(Rect, TranslatedAndInflated) {
  Rect r{0, 0, 10, 10};
  EXPECT_EQ(r.translated({5, -5}), (Rect{5, -5, 10, 10}));
  EXPECT_EQ(r.inflated(2), (Rect{-2, -2, 14, 14}));
  EXPECT_EQ(r.inflated(-2), (Rect{2, 2, 6, 6}));
}

// ---------- SweptRegion ----------

TEST(SweptRegion, AreaFormula) {
  SweptRegion s{Rect{0, 0, 100, 200}, Vec2{50, 80}};
  // w*h + w*|Dy| + h*|Dx| = 20000 + 8000 + 10000.
  EXPECT_DOUBLE_EQ(s.area(), 38000.0);
}

TEST(SweptRegion, AreaZeroDisplacementIsViewportArea) {
  SweptRegion s{Rect{0, 0, 100, 200}, Vec2{0, 0}};
  EXPECT_DOUBLE_EQ(s.area(), 20000.0);
}

TEST(SweptRegion, AreaNegativeDisplacementSymmetric) {
  SweptRegion pos{Rect{0, 0, 100, 200}, Vec2{50, 80}};
  SweptRegion neg{Rect{0, 0, 100, 200}, Vec2{-50, -80}};
  EXPECT_DOUBLE_EQ(pos.area(), neg.area());
}

TEST(SweptRegion, ViewportAtFraction) {
  SweptRegion s{Rect{0, 0, 10, 10}, Vec2{100, 50}};
  EXPECT_EQ(s.at(0.0), (Rect{0, 0, 10, 10}));
  EXPECT_EQ(s.at(0.5), (Rect{50, 25, 10, 10}));
  EXPECT_EQ(s.final_viewport(), (Rect{100, 50, 10, 10}));
}

TEST(SweptRegion, InitialViewportObjectIsInvolved) {
  SweptRegion s{Rect{0, 0, 100, 100}, Vec2{500, 0}};
  EXPECT_TRUE(intersects_swept_region(s, Rect{10, 10, 20, 20}));
}

TEST(SweptRegion, FinalViewportObjectIsInvolved) {
  SweptRegion s{Rect{0, 0, 100, 100}, Vec2{500, 0}};
  EXPECT_TRUE(intersects_swept_region(s, Rect{510, 10, 20, 20}));
}

TEST(SweptRegion, MidPathObjectIsInvolved) {
  SweptRegion s{Rect{0, 0, 100, 100}, Vec2{500, 500}};
  // On the diagonal path but in neither endpoint viewport.
  EXPECT_TRUE(intersects_swept_region(s, Rect{250, 250, 20, 20}));
}

TEST(SweptRegion, OffCorridorObjectNotInvolved) {
  SweptRegion s{Rect{0, 0, 100, 100}, Vec2{500, 500}};
  // Inside the bounding box of the sweep but outside the hexagon corridor.
  EXPECT_FALSE(intersects_swept_region(s, Rect{450, 10, 20, 20}));
  EXPECT_FALSE(intersects_swept_region(s, Rect{10, 450, 20, 20}));
}

TEST(SweptRegion, EdgeTouchingDoesNotCount) {
  SweptRegion s{Rect{0, 0, 100, 100}, Vec2{0, 500}};
  // Object exactly abutting the right edge of the swept column.
  EXPECT_FALSE(intersects_swept_region(s, Rect{100, 200, 50, 50}));
  // One pixel in: counts.
  EXPECT_TRUE(intersects_swept_region(s, Rect{99, 200, 50, 50}));
}

TEST(SweptRegion, NegativeDisplacementQuadrants) {
  Rect vp{1000, 1000, 100, 100};
  EXPECT_TRUE(intersects_swept_region({vp, {-500, 0}}, Rect{600, 1010, 50, 50}));
  EXPECT_TRUE(intersects_swept_region({vp, {0, -500}}, Rect{1010, 600, 50, 50}));
  EXPECT_TRUE(intersects_swept_region({vp, {-500, -500}}, Rect{700, 700, 50, 50}));
  EXPECT_FALSE(intersects_swept_region({vp, {-500, -500}}, Rect{1300, 700, 50, 50}));
}

TEST(SweptRegion, ZeroDisplacementReducesToOverlap) {
  SweptRegion s{Rect{0, 0, 100, 100}, Vec2{0, 0}};
  EXPECT_TRUE(intersects_swept_region(s, Rect{50, 50, 10, 10}));
  EXPECT_FALSE(intersects_swept_region(s, Rect{200, 200, 10, 10}));
}

TEST(SweptRegion, EmptyObjectNeverInvolved) {
  SweptRegion s{Rect{0, 0, 100, 100}, Vec2{100, 100}};
  EXPECT_FALSE(intersects_swept_region(s, Rect{50, 50, 0, 0}));
}

TEST(SweptRegion, FirstOverlapFractionEndpoints) {
  SweptRegion s{Rect{0, 0, 100, 100}, Vec2{1000, 0}};
  // Already overlapping at start.
  EXPECT_DOUBLE_EQ(first_overlap_fraction(s, Rect{50, 50, 10, 10}), 0.0);
  // Enters when viewport right edge passes x=600: t = (600-100)/1000 = 0.5.
  EXPECT_NEAR(first_overlap_fraction(s, Rect{600, 50, 10, 10}), 0.5, 1e-9);
  // Never involved.
  EXPECT_LT(first_overlap_fraction(s, Rect{600, 500, 10, 10}), 0.0);
}

TEST(SweptRegion, FirstOverlapFractionDiagonal) {
  SweptRegion s{Rect{0, 0, 100, 100}, Vec2{400, 400}};
  double f = first_overlap_fraction(s, Rect{300, 300, 50, 50});
  ASSERT_GE(f, 0.0);
  // At fraction f the viewport must just reach the object.
  Rect at_f = s.at(f);
  EXPECT_LE(at_f.overlap_area(Rect{300, 300, 50, 50}), 1e-6);
  Rect just_after = s.at(std::min(1.0, f + 0.01));
  EXPECT_GT(just_after.overlap_area(Rect{300, 300, 50, 50}), 0.0);
}

// Ground-truth oracle: does the object overlap the viewport at any of many
// sampled sweep fractions?
bool sampled_involvement(const SweptRegion& s, const Rect& obj, int samples = 2000) {
  for (int k = 0; k <= samples; ++k) {
    double t = static_cast<double>(k) / samples;
    if (s.at(t).overlaps(obj)) return true;
  }
  return false;
}

class SweptRegionProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SweptRegionProperty, SlabTestMatchesSampledOracle) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 300; ++iter) {
    SweptRegion s{Rect{rng.uniform(-500, 500), rng.uniform(-500, 500),
                       rng.uniform(50, 400), rng.uniform(50, 400)},
                  Vec2{rng.uniform(-800, 800), rng.uniform(-800, 800)}};
    Rect obj{rng.uniform(-1500, 1500), rng.uniform(-1500, 1500),
             rng.uniform(10, 300), rng.uniform(10, 300)};
    bool fast = intersects_swept_region(s, obj);
    bool slow = sampled_involvement(s, obj);
    // The sampled oracle can only miss sub-sample grazing contacts, so it
    // implies fast; in the other direction allow grazing-width slack by
    // shrinking the object slightly.
    if (slow) {
      EXPECT_TRUE(fast) << "oracle found overlap the slab test missed";
    }
    if (!fast) {
      EXPECT_FALSE(sampled_involvement(s, obj.inflated(-1.0)));
    }
  }
}

TEST_P(SweptRegionProperty, PaperConditionsMatchSlabTestInQuadrant1) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 500; ++iter) {
    SweptRegion s{Rect{rng.uniform(-200, 200), rng.uniform(-200, 200),
                       rng.uniform(50, 300), rng.uniform(50, 300)},
                  Vec2{rng.uniform(1, 900), rng.uniform(1, 900)}};
    Rect obj{rng.uniform(-1200, 1500), rng.uniform(-1200, 1500),
             rng.uniform(10, 250), rng.uniform(10, 250)};
    EXPECT_EQ(paper_conditions_q1(s, obj), intersects_swept_region(s, obj))
        << "disagreement at viewport(" << s.viewport.x << "," << s.viewport.y
        << ") D(" << s.displacement.x << "," << s.displacement.y << ") obj("
        << obj.x << "," << obj.y << "," << obj.w << "," << obj.h << ")";
  }
}

TEST_P(SweptRegionProperty, FirstOverlapFractionIsEarliest) {
  Rng rng(GetParam() + 17);
  for (int iter = 0; iter < 200; ++iter) {
    SweptRegion s{Rect{0, 0, rng.uniform(50, 300), rng.uniform(50, 300)},
                  Vec2{rng.uniform(-700, 700), rng.uniform(-700, 700)}};
    Rect obj{rng.uniform(-900, 900), rng.uniform(-900, 900), rng.uniform(20, 200),
             rng.uniform(20, 200)};
    double f = first_overlap_fraction(s, obj);
    if (f < 0) continue;
    // No overlap strictly before f (minus numerical slack).
    for (double t = 0; t < f - 1e-6; t += f / 20 + 1e-9)
      EXPECT_DOUBLE_EQ(s.at(t).overlap_area(obj), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SweptRegionProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

}  // namespace
}  // namespace mfhttp
