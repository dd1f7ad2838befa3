// Seeded arrival-process generators for load experiments.
//
// Overload studies need open-loop traffic: arrivals keep coming whether or
// not earlier requests finished, which is what actually drives a server into
// saturation (closed-loop clients self-throttle and hide the cliff). The
// generators here pre-draw a full arrival schedule from a seeded Rng so a
// sweep arm can be replayed exactly.
#pragma once

#include <vector>

#include "util/rng.h"
#include "util/types.h"

namespace mfhttp {

struct ArrivalParams {
  double rate_per_s = 1.0;  // mean arrival rate
  TimeMs start_ms = 0;      // first arrival no earlier than this
  TimeMs horizon_ms = 0;    // no arrivals at or past this time
};

// Poisson process: exponential i.i.d. gaps with mean 1000/rate_per_s ms.
// Returns strictly increasing timestamps in [start_ms, horizon_ms).
std::vector<TimeMs> poisson_arrivals(const ArrivalParams& params, Rng& rng);

}  // namespace mfhttp
