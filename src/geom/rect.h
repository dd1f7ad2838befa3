// Axis-aligned rectangle in screen coordinates (left-top origin, y down),
// the shape of both viewports and media objects in the paper (§3.3.3).
#pragma once

#include "geom/vec2.h"

namespace mfhttp {

struct Rect {
  double x = 0;  // left
  double y = 0;  // top
  double w = 0;
  double h = 0;

  constexpr Rect() = default;
  constexpr Rect(double x_, double y_, double w_, double h_)
      : x(x_), y(y_), w(w_), h(h_) {}

  static constexpr Rect from_corners(Vec2 top_left, Vec2 bottom_right) {
    return {top_left.x, top_left.y, bottom_right.x - top_left.x,
            bottom_right.y - top_left.y};
  }

  constexpr bool operator==(const Rect&) const = default;

  constexpr double left() const { return x; }
  constexpr double top() const { return y; }
  constexpr double right() const { return x + w; }
  constexpr double bottom() const { return y + h; }
  constexpr Vec2 top_left() const { return {x, y}; }
  constexpr Vec2 center() const { return {x + w / 2, y + h / 2}; }
  constexpr double area() const { return w * h; }
  constexpr bool empty() const { return w <= 0 || h <= 0; }

  constexpr Rect translated(Vec2 d) const { return {x + d.x, y + d.y, w, h}; }

  // Expand by m on every side (negative m shrinks).
  constexpr Rect inflated(double m) const { return {x - m, y - m, w + 2 * m, h + 2 * m}; }

  constexpr bool contains(Vec2 p) const {
    return p.x >= x && p.x <= right() && p.y >= y && p.y <= bottom();
  }

  constexpr bool contains(const Rect& o) const {
    return o.x >= x && o.right() <= right() && o.y >= y && o.bottom() <= bottom();
  }

  // True iff the rectangles share positive area (touching edges do not count;
  // matches the strict inequalities in the paper's in-viewport conditions).
  bool overlaps(const Rect& o) const;

  // Overlap area — Eq. (6) of the paper when applied to object vs viewport.
  double overlap_area(const Rect& o) const;
};

}  // namespace mfhttp
