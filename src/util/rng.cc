#include "util/rng.h"

#include <algorithm>
#include <numeric>

namespace mfhttp {

namespace {

constexpr std::uint64_t kUpperMask = ~std::uint64_t{0} << 31;
constexpr std::uint64_t kMatrixA = 0xb5026f5aa96619e9ULL;

// The twist of one word, before the XOR with x[k+156 mod 312].
std::uint64_t twist(std::uint64_t xk, std::uint64_t xk1) {
  const std::uint64_t y = (xk & kUpperMask) | (xk1 & ~kUpperMask);
  return (y >> 1) ^ ((y & 1) ? kMatrixA : 0);
}

// Seeding word i from word i-1.
std::uint64_t seed_word(std::uint64_t prev, std::size_t i) {
  return 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
}

}  // namespace

void LazyMt19937_64::twist_next() {
  if (next_ == kN) {
    // Second block on: the ordinary recurrence over the whole state.
    std::size_t k = 0;
    for (; k < kN - kM; ++k) x_[k] = x_[k + kM] ^ twist(x_[k], x_[k + 1]);
    for (; k < kN - 1; ++k) x_[k] = x_[k + kM - kN] ^ twist(x_[k], x_[k + 1]);
    x_[kN - 1] = x_[kM - 1] ^ twist(x_[kN - 1], x_[0]);
    next_ = 0;
    ready_ = kN;
    return;
  }
  // First block: twist word next_, seeding only as far as it reads.
  const std::size_t k = next_;
  if (k < kN - kM) {
    for (std::size_t i = k == 0 ? 1 : k + kM; i <= k + kM; ++i)
      x_[i] = seed_word(x_[i - 1], i);
    x_[k] = x_[k + kM] ^ twist(x_[k], x_[k + 1]);
  } else if (k < kN - 1) {
    x_[k] = x_[k + kM - kN] ^ twist(x_[k], x_[k + 1]);
  } else {
    x_[k] = x_[kM - 1] ^ twist(x_[k], x_[0]);
  }
  ready_ = k + 1;
}

double Rng::truncated_normal(double mean, double stddev, double lo, double hi) {
  MFHTTP_DCHECK(lo <= hi);
  for (int i = 0; i < 64; ++i) {
    double v = normal(mean, stddev);
    if (v >= lo && v <= hi) return v;
  }
  return std::clamp(mean, lo, hi);
}

std::size_t Rng::weighted_index(const std::vector<double>& weights) {
  MFHTTP_CHECK(!weights.empty());
  double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  MFHTTP_CHECK(total > 0);
  double r = uniform(0.0, total);
  double acc = 0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (r < acc) return i;
  }
  return weights.size() - 1;
}

Rng Rng::fork() { return Rng(engine_()); }

}  // namespace mfhttp
