#include "sim/frontdoor_load.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/rng.h"

namespace mfhttp::sim {

namespace {

// All draws below map raw engine output (the std::mt19937_64 sequence,
// whose bits the standard fully specifies; util/rng.h reproduces it
// exactly) through explicit inverse CDFs instead of going
// via std:: distributions, whose algorithms are implementation-defined and
// genuinely differ between libstdc++ and libc++/MSVC. This keeps the
// timeline — which bench_gate compares at tolerance zero against checked-in
// baselines — a pure function of the seed across standard libraries. The
// one residual platform input is last-ulp rounding in std::log/std::pow,
// which the integer quantization downstream (millisecond timestamps, URL
// indices) makes unobservable in practice.

// Uniform double in [0, 1): top 53 engine bits.
double draw_u01(Rng& rng) {
  return static_cast<double>(rng.engine()() >> 11) /
         static_cast<double>(1ULL << 53);
}

// Exponential gap via inverse CDF: -mean * ln(1 - u).
double draw_exponential(Rng& rng, double mean) {
  return -mean * std::log(1.0 - draw_u01(rng));
}

// Uniform integer in [lo, hi] inclusive via modulo over the full 64-bit
// draw (bias over a 1..3 range is ~2^-62: irrelevant, and exact integer
// arithmetic keeps it bit-stable everywhere).
std::uint64_t draw_uniform_int(Rng& rng, std::uint64_t lo, std::uint64_t hi) {
  return lo + rng.engine()() % (hi - lo + 1);
}

// Priority mix: mostly viewport work with a speculative/transient fringe
// and a structural floor — the class weights the overload driver measured.
constexpr double kSpeculativeFraction = 0.20;
constexpr double kTransientFraction = 0.25;
constexpr double kViewportFraction = 0.40;  // remainder is structure

std::uint8_t draw_priority(Rng& rng) {
  const double u = draw_u01(rng);
  if (u < kSpeculativeFraction) return 0;
  if (u < kSpeculativeFraction + kTransientFraction) return 1;
  if (u < kSpeculativeFraction + kTransientFraction + kViewportFraction)
    return 2;
  return 3;
}

}  // namespace

std::vector<TouchEvent> generate_frontdoor_load(
    const FrontDoorLoadConfig& config) {
  MFHTTP_CHECK(config.sessions > 0);
  MFHTTP_CHECK(config.url_universe > 0 && config.url_universe <= 65536);
  MFHTTP_CHECK(config.max_urls_per_touch >= 1 && config.max_urls_per_touch <= 3);
  MFHTTP_CHECK(config.touch_rate_per_s > 0);
  MFHTTP_CHECK(config.session_arrival_per_s > 0);

  std::vector<TouchEvent> events;
  events.reserve(config.sessions * config.touches_per_session);
  const double mean_gap_ms = 1000.0 / config.touch_rate_per_s;
  for (std::size_t s = 0; s < config.sessions; ++s) {
    // The session's whole stream is a pure function of (seed, id).
    Rng rng(splitmix64(config.seed ^
                       splitmix64(static_cast<std::uint64_t>(s) + 1)));
    // Deterministic staggered arrival: session s comes online at s / rate.
    double t_ms =
        static_cast<double>(s) * 1000.0 / config.session_arrival_per_s;
    for (std::size_t k = 0; k < config.touches_per_session; ++k) {
      t_ms += draw_exponential(rng, mean_gap_ms);
      TouchEvent e;
      e.session = static_cast<std::uint32_t>(s);
      e.seq = static_cast<std::uint32_t>(k);
      e.ts_ms = static_cast<std::uint32_t>(t_ms);
      e.priority = draw_priority(rng);
      e.n_urls = static_cast<std::uint8_t>(
          draw_uniform_int(rng, 1, config.max_urls_per_touch));
      for (std::size_t u = 0; u < e.n_urls; ++u) {
        const double draw = draw_u01(rng);
        const double skewed = std::pow(draw, config.skew_exponent);
        auto idx = static_cast<std::size_t>(
            skewed * static_cast<double>(config.url_universe));
        if (idx >= config.url_universe) idx = config.url_universe - 1;
        e.urls[u] = static_cast<std::uint16_t>(idx);
      }
      events.push_back(e);
    }
  }

  std::sort(events.begin(), events.end(),
            [](const TouchEvent& a, const TouchEvent& b) {
              if (a.ts_ms != b.ts_ms) return a.ts_ms < b.ts_ms;
              if (a.session != b.session) return a.session < b.session;
              return a.seq < b.seq;
            });
  return events;
}

Bytes frontdoor_object_bytes(const FrontDoorLoadConfig& config, std::size_t i) {
  // One stable draw per object: map the mixed (seed, index) hash onto
  // [0, 1), square it to skew small, and scale into [2 KiB, 64 KiB).
  const std::uint64_t h =
      splitmix64(config.seed ^ splitmix64(0xf00d0000ULL + i));
  const double u =
      static_cast<double>(h >> 11) / static_cast<double>(1ULL << 53);
  const double sized = 2048.0 + u * u * (65536.0 - 2048.0);
  return static_cast<Bytes>(sized);
}

}  // namespace mfhttp::sim
