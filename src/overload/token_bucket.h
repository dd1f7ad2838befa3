// Deterministic token bucket driven by simulated time.
//
// Tokens accrue continuously at `rate_per_s` up to `burst`; a request costs
// one token (or a caller-chosen cost). The bucket never reads a clock — the
// caller passes simulated `now_ms` — so admit/reject traces are exactly as
// reproducible as the simulation driving them. A rate of 0 disables the
// bucket entirely (always admits), which is how the bounded-only protection
// arm runs with queue bounds but no rate limiting.
#pragma once

#include "util/types.h"

namespace mfhttp::overload {

class TokenBucket {
 public:
  // rate_per_s: sustained tokens per second; burst: bucket capacity (also
  // the initial fill). rate_per_s <= 0 disables the bucket.
  TokenBucket(double rate_per_s, double burst);

  bool enabled() const { return rate_per_s_ > 0; }

  // Refill to `now_ms`, then take `cost` tokens if available. Disabled
  // buckets always succeed.
  bool try_take(TimeMs now_ms, double cost = 1.0);

  // Refill to `now_ms` and report the current fill (== burst when disabled).
  double level(TimeMs now_ms);

  // Whether level(now_ms) would report a full bucket, without refilling.
  // A bucket full at now_ms behaves exactly like a fresh one from then on
  // (both answer every later call from a full bucket), so the admission
  // controller may drop it and recreate it lazily. Disabled buckets are
  // always full.
  bool full_at(TimeMs now_ms) const;

  double burst() const { return burst_; }
  double rate_per_s() const { return rate_per_s_; }

 private:
  void refill(TimeMs now_ms);

  double rate_per_s_;
  double burst_;
  double tokens_;
  TimeMs last_ms_ = 0;
};

}  // namespace mfhttp::overload
