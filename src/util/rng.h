// Deterministic random number generator for reproducible experiments.
//
// Every stochastic component (gesture synthesis, page corpus, bandwidth
// traces, viewer head-motion) takes an Rng by reference so that a single
// seed reproduces an entire experiment end to end. Its engine emits the
// std::mt19937_64 sequence bit for bit, seeded and twisted on demand
// (DESIGN.md §25).
#pragma once

#include <cstddef>
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

// The std::mt19937_64 output sequence (the standard fixes it bit for bit),
// with the first block computed on demand. Seeding fills x[i] from x[i-1]
// and the twist rewrites x[k] in place from x[k], x[k+1] and x[k+156 mod
// 312], in index order; so in the first block output k < 156 needs only
// the seeded words up to k+156, and output k >= 156 only words the earlier
// outputs already seeded or twisted. Each first-block draw therefore seeds
// as far as it reads and twists the one word it returns: D draws cost about
// D+156 seeding steps and D twists instead of 312 + 312. From the second
// block on, the whole state twists at once as in the standard engine.
// A UniformRandomBitGenerator, so std:: distributions consume it exactly as
// they consume std::mt19937_64.
class LazyMt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  explicit LazyMt19937_64(result_type seed) { x_[0] = seed; }

  result_type operator()() {
    if (next_ == ready_) twist_next();
    result_type z = x_[next_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    return z ^ (z >> 43);
  }

 private:
  static constexpr std::size_t kN = 312;
  static constexpr std::size_t kM = 156;

  // Makes x_[next_] ready: one word in the first block, a whole block after.
  void twist_next();

  // Zero-filled beyond what has been seeded, so a copy reads no
  // indeterminate word.
  result_type x_[kN] = {};
  std::size_t next_ = 0;   // index of the next output word
  std::size_t ready_ = 0;  // x_[0, ready_) hold this block's twisted words
};
static_assert(std::uniform_random_bit_generator<LazyMt19937_64>);

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

  LazyMt19937_64& engine() { return engine_; }

 private:
  LazyMt19937_64 engine_;
};

}  // namespace mfhttp
