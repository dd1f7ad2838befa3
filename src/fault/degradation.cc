#include "fault/degradation.h"

#include <utility>

#include "obs/metrics.h"
#include "util/check.h"

namespace mfhttp::fault {

DegradationState::DegradationState(std::string name, Params params)
    : name_(std::move(name)), params_(params) {
  MFHTTP_CHECK(params_.enter_after > 0);
  MFHTTP_CHECK(params_.exit_after > 0);
  // One buffer for the three metric names.
  constexpr std::string_view kPrefix = "fault.degraded.";
  constexpr std::string_view kLongestSuffix = ".entries_total";
  std::string metric;
  metric.reserve(kPrefix.size() + name_.size() + kLongestSuffix.size());
  metric.append(kPrefix).append(name_);
  const std::size_t prefix = metric.size();
  entries_counter_ = &obs::metrics().counter(metric.append(kLongestSuffix));
  metric.resize(prefix);
  exits_counter_ = &obs::metrics().counter(metric.append(".exits_total"));
  metric.resize(prefix);
  active_gauge_ = &obs::metrics().gauge(metric.append(".active"));
}

bool DegradationState::observe_bad() {
  good_streak_ = 0;
  if (degraded_) return false;
  if (++bad_streak_ < params_.enter_after) return false;
  flip(true);
  return true;
}

bool DegradationState::observe_good() {
  bad_streak_ = 0;
  if (!degraded_) return false;
  if (++good_streak_ < params_.exit_after) return false;
  flip(false);
  return true;
}

bool DegradationState::force(bool degraded) {
  bad_streak_ = 0;
  good_streak_ = 0;
  if (degraded == degraded_) return false;
  flip(degraded);
  return true;
}

void DegradationState::flip(bool degraded) {
  degraded_ = degraded;
  bad_streak_ = 0;
  good_streak_ = 0;
  if (degraded_) {
    ++entries_;
    entries_counter_->inc();
    active_gauge_->set(1);
  } else {
    ++exits_;
    exits_counter_->inc();
    active_gauge_->set(0);
  }
}

}  // namespace mfhttp::fault
