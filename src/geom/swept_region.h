// The region covered by a viewport sweeping along a straight displacement —
// §3.3.3 of the paper.
//
// When the viewport (a w_p × h_p rectangle at (x_p, y_p)) scrolls by a total
// displacement (D_x, D_y), the union of all its intermediate positions is a
// hexagon (the Minkowski sum of the viewport rectangle and the displacement
// segment). The paper spells out the 6 boundary segments and a 3-condition
// membership test for the D_x > 0, D_y > 0 quadrant and notes the other
// quadrants are symmetric. We implement:
//
//   * `intersects_swept_region` — a quadrant-agnostic segment-vs-slab test:
//     object i overlaps the viewport translated by t·(D_x, D_y) for some
//     t ∈ [0,1] iff the segment from (0,0) to (D_x, D_y) passes through the
//     open box of displacements at which the two rectangles overlap.
//   * `paper_conditions_q1` — the literal 3-condition test from the paper
//     (valid for D_x > 0, D_y > 0), kept as a cross-check oracle for tests.
#pragma once

#include "geom/rect.h"
#include "geom/vec2.h"

namespace mfhttp {

struct SweptRegion {
  Rect viewport;      // position at scroll start
  Vec2 displacement;  // total viewport displacement (D_x, D_y); any sign

  // Viewport position after fraction t in [0, 1] of the displacement.
  Rect at(double t) const { return viewport.translated(displacement * t); }

  Rect final_viewport() const { return at(1.0); }

  // Area of the hexagonal covered region.
  double area() const;
};

// True iff `object` shares positive area with the swept region, i.e. the
// object appears in the viewport at some instant of the scroll.
bool intersects_swept_region(const SweptRegion& sweep, const Rect& object);

// If the object intersects the sweep, the earliest sweep fraction t ∈ [0,1]
// at which it overlaps the viewport; returns t, or a negative value if the
// object never appears. Exact (interval intersection), not sampled.
double first_overlap_fraction(const SweptRegion& sweep, const Rect& object);

// The paper's literal conditions (1)-(3) from §3.3.3; requires
// displacement.x > 0 and displacement.y > 0.
bool paper_conditions_q1(const SweptRegion& sweep, const Rect& object);

}  // namespace mfhttp
