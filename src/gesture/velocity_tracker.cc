#include "gesture/velocity_tracker.h"

#include <array>
#include <cmath>
#include <vector>

#include "util/check.h"

namespace mfhttp {

namespace {

// Solve the 3x3 (or smaller) normal equations A x = b by Gaussian elimination
// with partial pivoting. Returns false if (numerically) singular.
template <int N>
bool solve(std::array<std::array<double, N>, N> a, std::array<double, N> b,
           std::array<double, N>& x) {
  for (int col = 0; col < N; ++col) {
    int pivot = col;
    for (int r = col + 1; r < N; ++r)
      if (std::abs(a[r][col]) > std::abs(a[pivot][col])) pivot = r;
    if (std::abs(a[pivot][col]) < 1e-12) return false;
    std::swap(a[pivot], a[col]);
    std::swap(b[pivot], b[col]);
    for (int r = col + 1; r < N; ++r) {
      double f = a[r][col] / a[col][col];
      for (int c = col; c < N; ++c) a[r][c] -= f * a[col][c];
      b[r] -= f * b[col];
    }
  }
  for (int r = N - 1; r >= 0; --r) {
    double s = b[r];
    for (int c = r + 1; c < N; ++c) s -= a[r][c] * x[c];
    x[r] = s / a[r][r];
  }
  return true;
}

// Fit pos = c0 + c1*t + c2*t^2 (degree 2) or c0 + c1*t (degree 1) by least
// squares over (t_i, p_i) and return the derivative at t = 0. Times are
// expressed relative to the newest sample (t <= 0), so the derivative at the
// newest sample is simply c1.
double lsq_derivative_at_latest(const std::vector<std::pair<double, double>>& pts,
                                int degree) {
  MFHTTP_DCHECK(degree == 1 || degree == 2);
  if (degree == 2) {
    std::array<std::array<double, 3>, 3> a{};
    std::array<double, 3> b{};
    for (auto [t, p] : pts) {
      double pw[5] = {1, t, t * t, t * t * t, t * t * t * t};
      for (int r = 0; r < 3; ++r) {
        for (int c = 0; c < 3; ++c) a[r][c] += pw[r + c];
        b[r] += pw[r] * p;
      }
    }
    std::array<double, 3> x{};
    if (solve<3>(a, b, x)) return x[1];
    // Fall through to degree-1 on singular systems (e.g. collinear times).
  }
  std::array<std::array<double, 2>, 2> a{};
  std::array<double, 2> b{};
  for (auto [t, p] : pts) {
    a[0][0] += 1;
    a[0][1] += t;
    a[1][0] += t;
    a[1][1] += t * t;
    b[0] += p;
    b[1] += t * p;
  }
  std::array<double, 2> x{};
  if (solve<2>(a, b, x)) return x[1];
  return 0;
}

}  // namespace

void VelocityTracker::add(const TouchEvent& ev) {
  if (ev.action == TouchAction::kDown) samples_.clear();
  if (!samples_.empty())
    MFHTTP_DCHECK(ev.time_ms >= samples_.back().time_ms);
  samples_.push_back({ev.time_ms, ev.pos});
  drop_stale(ev.time_ms);
}

void VelocityTracker::drop_stale(TimeMs now_ms) {
  while (!samples_.empty() && now_ms - samples_.front().time_ms > horizon_ms_)
    samples_.pop_front();
}

Vec2 VelocityTracker::velocity() const {
  if (samples_.size() < 2) return {};
  const TimeMs newest = samples_.back().time_ms;

  if (strategy_ == VelocityStrategy::kEndpoints) {
    double dt_s = static_cast<double>(newest - samples_.front().time_ms) / 1000.0;
    if (dt_s <= 0) return {};
    Vec2 dp = samples_.back().pos - samples_.front().pos;
    return dp / dt_s;
  }

  int degree = (strategy_ == VelocityStrategy::kLsq2 && samples_.size() >= 3) ? 2 : 1;
  std::vector<std::pair<double, double>> xs, ys;
  xs.reserve(samples_.size());
  ys.reserve(samples_.size());
  for (const Sample& s : samples_) {
    double t_s = static_cast<double>(s.time_ms - newest) / 1000.0;  // <= 0
    xs.emplace_back(t_s, s.pos.x);
    ys.emplace_back(t_s, s.pos.y);
  }
  return {lsq_derivative_at_latest(xs, degree), lsq_derivative_at_latest(ys, degree)};
}

}  // namespace mfhttp
