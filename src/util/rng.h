// Deterministic random number generator for reproducible experiments.
//
// Every stochastic component (gesture synthesis, page corpus, bandwidth
// traces, viewer head-motion) takes an Rng by reference so that a single
// seed reproduces an entire experiment end to end.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

#include "util/check.h"

namespace mfhttp {

// Fibonacci-hash finalizer (splitmix64). One deterministic 64-bit mix used
// everywhere a stable, well-distributed hash of a small integer is needed:
// per-session load seeds (sim/frontdoor_load.h) and session->shard routing
// in the front door (http/frontdoor.h) both derive from this, so a session
// keeps its seed and its shard across runs, binaries, and platforms.
inline std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 42) : engine_(seed) {}

  // Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    MFHTTP_DCHECK(lo <= hi);
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  // Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    MFHTTP_DCHECK(lo <= hi);
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  // Normal with the given mean/stddev (>= 0; stddev 0 returns the mean).
  // std::normal_distribution requires stddev > 0, so scale a standard normal
  // instead: libstdc++ computes z * stddev + mean the same way, so the result
  // and the engine bits consumed are identical for stddev > 0.
  double normal(double mean, double stddev) {
    MFHTTP_CHECK(stddev >= 0);
    return std::normal_distribution<double>()(engine_) * stddev + mean;
  }

  // Normal truncated to [lo, hi] by resampling (clamps after 64 tries).
  double truncated_normal(double mean, double stddev, double lo, double hi);

  // Exponential with the given mean (> 0).
  double exponential(double mean) {
    MFHTTP_DCHECK(mean > 0);
    return std::exponential_distribution<double>(1.0 / mean)(engine_);
  }

  // Bernoulli with probability p of true.
  bool chance(double p) { return std::bernoulli_distribution(p)(engine_); }

  // Pick an index in [0, weights.size()) proportionally to weights.
  std::size_t weighted_index(const std::vector<double>& weights);

  // Derive an independent child generator (e.g. one per simulated user).
  Rng fork();

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace mfhttp
