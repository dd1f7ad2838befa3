#include "sim/arrivals.h"

#include <cmath>

#include "util/check.h"

namespace mfhttp {

std::vector<TimeMs> poisson_arrivals(const ArrivalParams& params, Rng& rng) {
  MFHTTP_CHECK(params.rate_per_s > 0);
  const double mean_gap_ms = 1000.0 / params.rate_per_s;
  std::vector<TimeMs> arrivals;
  double t = static_cast<double>(params.start_ms);
  for (;;) {
    // Max one-ms floor keeps timestamps strictly increasing after rounding.
    t += std::max(1.0, rng.exponential(mean_gap_ms));
    const auto at = static_cast<TimeMs>(std::llround(t));
    if (at >= params.horizon_ms) break;
    arrivals.push_back(at);
  }
  return arrivals;
}

}  // namespace mfhttp
