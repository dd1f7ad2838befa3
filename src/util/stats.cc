#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/check.h"

namespace mfhttp {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  return n_ ? m2_ / static_cast<double>(n_) : 0.0;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double Samples::mean() const {
  if (xs_.empty()) return 0.0;
  return std::accumulate(xs_.begin(), xs_.end(), 0.0) / static_cast<double>(xs_.size());
}

double select_percentile(std::vector<double>& xs, double p) {
  MFHTTP_CHECK(p >= 0 && p <= 100);
  if (xs.empty()) return 0.0;
  if (xs.size() == 1) return xs[0];
  double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  auto lo = static_cast<std::size_t>(rank);
  std::size_t hi = std::min(lo + 1, xs.size() - 1);
  double frac = rank - static_cast<double>(lo);
  const auto at_lo = xs.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(xs.begin(), at_lo, xs.end());
  // Nothing after the lo-th order statistic is smaller than it, so the
  // smallest value there is the next one.
  const double lo_value = *at_lo;
  const double hi_value =
      hi == lo ? lo_value : *std::min_element(at_lo + 1, xs.end());
  return lo_value * (1 - frac) + hi_value * frac;
}

double Samples::percentile(double p) const {
  std::vector<double> copy = xs_;
  return select_percentile(copy, p);
}

}  // namespace mfhttp
