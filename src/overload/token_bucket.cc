#include "overload/token_bucket.h"

#include <algorithm>

#include "util/check.h"

namespace mfhttp::overload {

TokenBucket::TokenBucket(double rate_per_s, double burst)
    : rate_per_s_(rate_per_s), burst_(burst), tokens_(burst) {
  MFHTTP_CHECK(rate_per_s <= 0 || burst > 0);
}

void TokenBucket::refill(TimeMs now_ms) {
  if (now_ms <= last_ms_) return;  // time never runs backwards in the sim
  tokens_ = std::min(
      burst_, tokens_ + rate_per_s_ * static_cast<double>(now_ms - last_ms_) / 1000.0);
  last_ms_ = now_ms;
}

bool TokenBucket::try_take(TimeMs now_ms, double cost) {
  if (!enabled()) return true;
  refill(now_ms);
  if (tokens_ < cost) return false;
  tokens_ -= cost;
  return true;
}

bool TokenBucket::full_at(TimeMs now_ms) const {
  if (!enabled()) return true;
  // The same arithmetic refill() would do; min(burst_, x) >= burst_ iff
  // x >= burst_.
  if (now_ms <= last_ms_) return tokens_ >= burst_;
  return tokens_ + rate_per_s_ * static_cast<double>(now_ms - last_ms_) / 1000.0 >=
         burst_;
}

double TokenBucket::level(TimeMs now_ms) {
  if (!enabled()) return burst_;
  refill(now_ms);
  return tokens_;
}

}  // namespace mfhttp::overload
