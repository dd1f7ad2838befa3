// QoE and cost models (§3.4.1).
//
//   Q1(i,j) = (1/T) (1/S) (r_j/r_m) Σ_t s_i(t)   — coverage over the scroll,
//                                                  scaled by resolution (Eq. 7)
//   Q2(i)   = 1[s_i(T) > 0]                      — lands in the final viewport
//                                                  (Eq. 8)
//   Q_{i,j} = a·Q1 + b·Q2, a = b = 1/2           — (Eq. 9)
//   C_{i,j} = c(f_{i,j}) / c_M                   — (Eq. 10), c_M the cost of
//             min(Σ_i f_{i,m}, Σ_t B(t)) — all top versions or all capacity.
#pragma once

#include <functional>

#include "core/media_object.h"
#include "core/scroll_tracker.h"
#include "net/bandwidth_trace.h"

namespace mfhttp {

struct QoEParams {
  double a = 0.5;  // weight of the coverage term Q1
  double b = 0.5;  // weight of the final-viewport indicator Q2
};

// Download cost as a function of bytes transferred. The paper keeps this
// generic; linear (cost == bytes) is the default, and a two-tier "data cap"
// shape is provided for cost-sensitivity experiments.
using CostFunction = std::function<double(Bytes)>;

CostFunction linear_cost();
// Linear up to `cap`, then `overage_factor`x per byte beyond it.
CostFunction capped_cost(Bytes cap, double overage_factor);

// Q1 — Eq. (7). `viewport_area` is S; `duration_ms` is T(v); `resolution` is
// r_j and `top_resolution` r_m. Degenerate scrolls (T <= 0) score 0.
double q1_coverage(const ObjectCoverage& coverage, double viewport_area,
                   double duration_ms, double resolution, double top_resolution);

// Q2 — Eq. (8).
double q2_final_viewport(const ObjectCoverage& coverage);

// Q_{i,j} — Eq. (9).
double qoe_score(const QoEParams& params, const ObjectCoverage& coverage,
                 double viewport_area, double duration_ms, double resolution,
                 double top_resolution);

// c_M — the normalizer of Eq. (10): cost of downloading everything at top
// resolution, or of saturating the bandwidth over the scroll, whichever is
// smaller. `involved` lists the indices of objects taking part in the scroll.
double max_cost(const CostFunction& cost, const std::vector<MediaObject>& objects,
                const std::vector<std::size_t>& involved,
                const BandwidthTrace& bandwidth, TimeMs scroll_start_ms,
                double duration_ms);

}  // namespace mfhttp
