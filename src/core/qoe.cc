#include "core/qoe.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace mfhttp {

CostFunction linear_cost() {
  return [](Bytes f) { return static_cast<double>(f); };
}

CostFunction capped_cost(Bytes cap, double overage_factor) {
  MFHTTP_CHECK(cap >= 0);
  MFHTTP_CHECK(overage_factor >= 1.0);
  return [cap, overage_factor](Bytes f) {
    if (f <= cap) return static_cast<double>(f);
    return static_cast<double>(cap) +
           overage_factor * static_cast<double>(f - cap);
  };
}

double q1_coverage(const ObjectCoverage& coverage, double viewport_area,
                   double duration_ms, double resolution, double top_resolution) {
  MFHTTP_CHECK(viewport_area > 0);
  MFHTTP_CHECK(top_resolution > 0);
  if (duration_ms <= 0) return 0;
  double q1 = coverage.coverage_integral / (duration_ms * viewport_area) *
              (resolution / top_resolution);
  // The integrand is bounded by S, so q1 is in [0, r_j/r_m] ⊆ [0, 1];
  // numerical integration can overshoot by a hair.
  return std::clamp(q1, 0.0, 1.0);
}

double q2_final_viewport(const ObjectCoverage& coverage) {
  return coverage.final_coverage > 0 ? 1.0 : 0.0;
}

double qoe_score(const QoEParams& params, const ObjectCoverage& coverage,
                 double viewport_area, double duration_ms, double resolution,
                 double top_resolution) {
  return params.a * q1_coverage(coverage, viewport_area, duration_ms, resolution,
                                top_resolution) +
         params.b * q2_final_viewport(coverage);
}

double max_cost(const CostFunction& cost, const std::vector<MediaObject>& objects,
                const std::vector<std::size_t>& involved,
                const BandwidthTrace& bandwidth, TimeMs scroll_start_ms,
                double duration_ms) {
  Bytes all_top = 0;
  for (std::size_t i : involved) {
    MFHTTP_CHECK(i < objects.size());
    all_top += objects[i].top_version().size;
  }
  double capacity = bandwidth.bytes_between(
      scroll_start_ms,
      scroll_start_ms + static_cast<TimeMs>(std::ceil(duration_ms)));
  auto cap_bytes = static_cast<Bytes>(capacity);
  return cost(std::min(all_top, cap_bytes));
}

}  // namespace mfhttp
