#include "geom/rect.h"

#include <algorithm>

namespace mfhttp {

bool Rect::overlaps(const Rect& o) const {
  return x < o.right() && o.x < right() && y < o.bottom() && o.y < bottom();
}

double Rect::overlap_area(const Rect& o) const {
  // Eq. (6): [min(y_i+h_i, y_p+h_p) - max(y_i, y_p)] *
  //          [min(x_i+w_i, x_p+w_p) - max(x_i, x_p)], clamped at 0.
  double dy = std::min(bottom(), o.bottom()) - std::max(y, o.y);
  double dx = std::min(right(), o.right()) - std::max(x, o.x);
  if (dx <= 0 || dy <= 0) return 0;
  return dx * dy;
}

}  // namespace mfhttp
