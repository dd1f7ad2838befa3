// Streaming statistics accumulators used by benchmarks and experiments.
#pragma once

#include <cstddef>
#include <vector>

namespace mfhttp {

// Welford-style running mean/variance plus min/max.
class RunningStats {
 public:
  void add(double x);
  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;  // population variance
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0, m2_ = 0, min_ = 0, max_ = 0, sum_ = 0;
};

// The p-th percentile of `xs` (p in [0,100]), interpolated linearly between
// the closest ranks; 0 when empty. Selects instead of sorting, so it runs in
// linear time and reorders `xs`; the result is bit-identical to sorting
// first, since the two interpolation operands are the same order statistics.
double select_percentile(std::vector<double>& xs, double p);

// Stores all samples; supports exact percentiles.
class Samples {
 public:
  void add(double x) { xs_.push_back(x); }
  std::size_t count() const { return xs_.size(); }
  double mean() const;
  // select_percentile over a copy: values() keeps insertion order.
  double percentile(double p) const;
  double median() const { return percentile(50); }
  double min() const { return percentile(0); }
  double max() const { return percentile(100); }
  const std::vector<double>& values() const { return xs_; }

 private:
  std::vector<double> xs_;
};

}  // namespace mfhttp
