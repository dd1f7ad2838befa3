// Process-wide metrics registry: counters, gauges, and fixed-bucket
// histograms, cheap enough for the simulator's inner loops.
//
// Hot-path updates are single relaxed atomic operations; the registry mutex
// guards only name->metric registration (cold). Counters are additionally
// *sharded*: each counter owns kShards cache-line-padded cells and a thread
// increments only the cell its thread-local shard slot maps to, so the
// parallel runner's workers (sim/parallel_runner.h) never bounce one hot
// cache line between workers. value() merges the cells by summation —
// commutative over unsigned integers, so the merged value is deterministic
// no matter which worker incremented which cell. Instrumentation sites look
// a metric up once and cache the reference in a function-local static:
//
//   static obs::Counter& c = obs::metrics().counter("core.flow.policies_total");
//   c.inc();
//
// References returned by the registry are stable for the process lifetime;
// Registry::reset() zeroes values but never invalidates them. Snapshots
// export every registered metric as one JSON document (util/json), the
// format behind the benches' --metrics-json flag.
//
// Naming convention: "<subsystem>.<component>.<metric>", monotonic counters
// suffixed _total, durations suffixed _ms. DESIGN.md "Observability" lists
// every metric the library exports.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace mfhttp {
class JsonWriter;
}

namespace mfhttp::obs {

// Monotonically increasing event count, sharded per worker thread (see the
// file comment). Reads sum every cell; resets zero them all.
class Counter {
 public:
  static constexpr std::size_t kShards = 16;

  void inc(std::uint64_t delta = 1) {
    cells_[this_thread_shard()].value.fetch_add(delta,
                                                std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const Cell& cell : cells_)
      total += cell.value.load(std::memory_order_relaxed);
    return total;
  }
  void reset() {
    for (Cell& cell : cells_) cell.value.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> value{0};
  };

  // Threads are spread over the shards round-robin at first use; the slot is
  // cached thread_local so the hot path is one TLS read + one relaxed add.
  static std::size_t this_thread_shard();

  Cell cells_[kShards];
};

// Instantaneous level (queue depth, buffer occupancy). May go negative only
// through unmatched add/sub pairs — that is a bug at the instrumentation site.
class Gauge {
 public:
  void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  void sub(std::int64_t delta) { value_.fetch_sub(delta, std::memory_order_relaxed); }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

// Fixed-bucket histogram. Bucket i counts observations v <= bounds[i]
// (cumulative "le" semantics, first matching bucket only); one implicit
// overflow bucket at index bounds().size() catches everything larger.
class Histogram {
 public:
  // `bounds` are strictly ascending finite upper bounds; at least one.
  explicit Histogram(std::vector<double> bounds);

  void observe(double v);

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double mean() const;
  // Quantile estimate (q in [0, 1]) by linear interpolation within the
  // containing bucket — the estimator dashboards apply to "le" buckets.
  // Observations in the overflow bucket clamp to the largest bound; 0 when
  // empty. Exact only up to bucket resolution; use util::Samples when an
  // experiment needs exact percentiles.
  double quantile(double q) const;
  const std::vector<double>& bounds() const { return bounds_; }
  // i in [0, bounds().size()]; the last index is the overflow bucket.
  std::uint64_t bucket_count(std::size_t i) const;
  void reset();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;  // bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0};
};

// Thread-local batching front for a Counter. A shard worker that counts an
// event per request would otherwise pay one atomic RMW per event even on
// the sharded cells; a BatchedCounter accumulates in a plain integer owned
// by its thread and flushes the sum into the underlying Counter every
// `batch` increments (and on flush()/destruction), so the global metrics
// snapshot stays one JSON document while the hot path touches no atomics
// at all. NOT thread-safe: one instance per worker thread, by construction
// (the sharded front door owns one set per shard). Readers see the counter
// lag by at most `batch - 1` events until the owning worker flushes.
class BatchedCounter {
 public:
  explicit BatchedCounter(Counter& counter, std::uint64_t batch = 1024)
      : counter_(counter), batch_(batch) {}
  ~BatchedCounter() { flush(); }
  BatchedCounter(const BatchedCounter&) = delete;
  BatchedCounter& operator=(const BatchedCounter&) = delete;

  void inc(std::uint64_t delta = 1) {
    pending_ += delta;
    if (pending_ >= batch_) flush();
  }
  void flush() {
    if (pending_ == 0) return;
    counter_.inc(pending_);
    pending_ = 0;
  }
  std::uint64_t pending() const { return pending_; }

 private:
  Counter& counter_;
  std::uint64_t batch_;
  std::uint64_t pending_ = 0;
};

// Bucket-bound generators: {start, start*factor, ...} / {start, start+width, ...}.
std::vector<double> exponential_bounds(double start, double factor, int count);
std::vector<double> linear_bounds(double start, double width, int count);
// Default bounds for wall-clock latencies: 1 µs .. ~4 s, 4x steps.
const std::vector<double>& latency_ms_bounds();
// Default bounds for supervision stall durations: 1 ms .. ~8 s, 2x steps
// (http.frontdoor.supervisor.stall_ms and friends, DESIGN.md §14).
const std::vector<double>& stall_ms_bounds();

class Registry {
 public:
  // First call registers the metric; later calls with the same name return
  // the same instance. A histogram's bounds are fixed by the first call
  // (later callers may omit them); registering an existing name as a
  // different metric kind aborts.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name, std::vector<double> bounds = {});

  // Zero every value. Registrations — and references already handed out —
  // survive; tests and repeated bench runs use this between iterations.
  void reset();

  // Point-in-time values; 0 if the metric was never registered.
  std::uint64_t counter_value(std::string_view name) const;
  std::int64_t gauge_value(std::string_view name) const;
  const Histogram* find_histogram(std::string_view name) const;

  // {"counters": {name: n, ...}, "gauges": {...}, "histograms": {name:
  // {"count": n, "sum": s, "buckets": [{"le": bound|null, "count": n}...]}}}
  // Keys are sorted; the overflow bucket's "le" is null.
  void write_snapshot(JsonWriter& w) const;
  std::string snapshot_json() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

// The process-wide registry every built-in instrumentation site uses.
Registry& metrics();

// Observes the wall-clock (steady_clock) milliseconds between construction
// and stop()/destruction into a histogram. Simulated time never touches
// this: scoped timers measure the cost of running the middleware itself.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& histogram);
  ~ScopedTimer() { stop(); }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  // Record once; further calls (and destruction) are no-ops.
  void stop();

 private:
  Histogram* histogram_;
  std::uint64_t start_ns_;
};

// Writes metrics().snapshot_json() to `path`; false (with a log line) on
// I/O failure. The "--metrics-json" flag that names the path is handled by
// cli::StandardOptions (util/cli_options.h does the argv surgery).
bool write_snapshot_file(const std::string& path);

}  // namespace mfhttp::obs
