// Shared pieces of mfbench (README.md): run options, the measurement
// window, the metric report, and the output fingerprint. Every timing is
// taken in bench code around calls into public functions of src/.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace mfbench {

class Tracer;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20;  // length of the timed phase
  bool trace = false;   // per-layer run: spans on, alternating with spans off
  bool quick = false;   // smoke size: every code path, a fraction of the work
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// Timed phase of a run. Every unit of a workload replays the same work,
// so units differ only by interference from the rest of the machine. A
// workload runs one untimed warm-up unit, then calls more() before every
// timed unit: at least `min_units` run, then more until `seconds` have
// passed since the phase started.
class Window {
 public:
  Window(double seconds, std::size_t min_units)
      : seconds_(seconds), min_units_(min_units), start_(Clock::now()) {}

  bool more(std::size_t done) const {
    return done < min_units_ || seconds_since(start_) < seconds_;
  }

 private:
  double seconds_;
  std::size_t min_units_;
  Clock::time_point start_;
};

// A timing metric reports its least-interfered unit: the smallest per-unit
// time (or largest rate), as timeit reports its fastest repeat. Slower units
// measure the machine's other tenants, not the code. 0 when empty.
inline double fastest(const std::vector<double>& times_per_unit) {
  return times_per_unit.empty()
             ? 0
             : *std::min_element(times_per_unit.begin(), times_per_unit.end());
}
inline double highest(const std::vector<double>& rates_per_unit) {
  return rates_per_unit.empty()
             ? 0
             : *std::max_element(rates_per_unit.begin(), rates_per_unit.end());
}

// FNV-1a over raw bytes; doubles hash by bit pattern, so the fingerprint
// catches even sub-ulp drift between commits.
struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void bytes(const void* p, std::size_t n) {
    const unsigned char* c = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= c[i];
      h *= 0x100000001b3ull;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// What one workload run reports: its metrics, the operations it attempted
// and failed, the fingerprint of its deterministic outputs, and every
// correctness check that did not hold.
struct Result {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t fingerprint = 0;
  std::vector<std::string> errors;

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
};

// Linear-interpolated percentile (p in [0, 100]) of `xs`; 0 when empty.
double percentile(const std::vector<double>& xs, double p);
inline double median(const std::vector<double>& xs) {
  return percentile(xs, 50);
}

inline double sum(const std::vector<double>& xs) {
  double total = 0;
  for (double x : xs) total += x;
  return total;
}

// Peak resident set size of this process so far, in MiB. Workloads read it
// right after their warm-up unit: set-up plus one unit of work, the same
// amount on every run however many units the timed phase completes.
double peak_rss_mb();

// (traced − untraced) / untraced for one end-to-end number measured on the
// alternating traced and untraced units of a --trace run.
inline double overhead_share(double traced, double untraced) {
  return untraced > 0 ? (traced - untraced) / untraced : 0;
}

Result run_feed_scroll(const Options& options, Tracer& tracer);
Result run_browse_paper(const Options& options, Tracer& tracer);
Result run_frontdoor(const Options& options, Tracer& tracer, bool churn);

}  // namespace mfbench
