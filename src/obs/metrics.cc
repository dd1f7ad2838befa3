#include "obs/metrics.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

#include "util/check.h"
#include "util/json.h"
#include "util/logging.h"

namespace mfhttp::obs {

std::size_t Counter::this_thread_shard() {
  static std::atomic<std::size_t> next_slot{0};
  thread_local const std::size_t shard =
      next_slot.fetch_add(1, std::memory_order_relaxed) % kShards;
  return shard;
}

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  MFHTTP_CHECK_MSG(!bounds_.empty(), "histogram needs at least one bucket bound");
  MFHTTP_CHECK_MSG(std::is_sorted(bounds_.begin(), bounds_.end(),
                                  [](double a, double b) { return a <= b; }),
                   "histogram bounds must be strictly ascending");
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i] = 0;
}

void Histogram::observe(double v) {
  // First bound >= v; everything beyond the last bound lands in the
  // overflow bucket at index bounds_.size().
  std::size_t i = static_cast<std::size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin());
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  // fetch_add on atomic<double> needs C++20 library support; a CAS loop is
  // portable and the histogram path is not contended in practice.
  double expected = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(expected, expected + v,
                                     std::memory_order_relaxed)) {
  }
}

double Histogram::mean() const {
  std::uint64_t n = count();
  return n > 0 ? sum() / static_cast<double>(n) : 0.0;
}

double Histogram::quantile(double q) const {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  // Rank of the target observation (1-based); walk buckets until the running
  // count reaches it, then interpolate linearly inside that bucket.
  const double rank = q * static_cast<double>(n);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    const std::uint64_t in_bucket = buckets_[i].load(std::memory_order_relaxed);
    if (in_bucket == 0) continue;
    if (static_cast<double>(cumulative + in_bucket) >= rank) {
      if (i == bounds_.size()) return bounds_.back();  // overflow: clamp
      const double lo = i == 0 ? 0.0 : bounds_[i - 1];
      const double hi = bounds_[i];
      const double within =
          (rank - static_cast<double>(cumulative)) / static_cast<double>(in_bucket);
      return lo + (hi - lo) * std::min(1.0, std::max(0.0, within));
    }
    cumulative += in_bucket;
  }
  return bounds_.back();
}

std::uint64_t Histogram::bucket_count(std::size_t i) const {
  MFHTTP_CHECK(i <= bounds_.size());
  return buckets_[i].load(std::memory_order_relaxed);
}

void Histogram::reset() {
  for (std::size_t i = 0; i <= bounds_.size(); ++i)
    buckets_[i].store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

std::vector<double> exponential_bounds(double start, double factor, int count) {
  MFHTTP_CHECK(start > 0 && factor > 1 && count >= 1);
  std::vector<double> bounds;
  bounds.reserve(static_cast<std::size_t>(count));
  double b = start;
  for (int i = 0; i < count; ++i, b *= factor) bounds.push_back(b);
  return bounds;
}

std::vector<double> linear_bounds(double start, double width, int count) {
  MFHTTP_CHECK(width > 0 && count >= 1);
  std::vector<double> bounds;
  bounds.reserve(static_cast<std::size_t>(count));
  double b = start;
  for (int i = 0; i < count; ++i, b += width) bounds.push_back(b);
  return bounds;
}

const std::vector<double>& latency_ms_bounds() {
  static const std::vector<double> bounds = exponential_bounds(0.001, 4.0, 11);
  return bounds;
}

const std::vector<double>& stall_ms_bounds() {
  // Supervision stalls live between a scheduler hiccup (~1 ms) and a dead
  // worker (~multi-second): 1 ms .. ~8 s, 2x steps.
  static const std::vector<double> bounds = exponential_bounds(1.0, 2.0, 14);
  return bounds;
}

Counter& Registry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  MFHTTP_CHECK_MSG(!gauges_.contains(name) &&
                       !histograms_.contains(name),
                   "metric name already registered with a different kind");
  auto it = counters_.find(name);
  if (it == counters_.end())
    it = counters_.emplace(std::string(name), std::make_unique<Counter>()).first;
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  MFHTTP_CHECK_MSG(!counters_.contains(name) &&
                       !histograms_.contains(name),
                   "metric name already registered with a different kind");
  auto it = gauges_.find(name);
  if (it == gauges_.end())
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name, std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  MFHTTP_CHECK_MSG(!counters_.contains(name) &&
                       !gauges_.contains(name),
                   "metric name already registered with a different kind");
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    MFHTTP_CHECK_MSG(!bounds.empty(),
                     "first registration of a histogram must supply bounds");
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<Histogram>(std::move(bounds)))
             .first;
  }
  return *it->second;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

std::uint64_t Registry::counter_value(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  return it != counters_.end() ? it->second->value() : 0;
}

std::int64_t Registry::gauge_value(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  return it != gauges_.end() ? it->second->value() : 0;
}

const Histogram* Registry::find_histogram(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  return it != histograms_.end() ? it->second.get() : nullptr;
}

void Registry::write_snapshot(JsonWriter& w) const {
  // Lock-scope rule (DESIGN.md §12): mu_ guards only the name->metric maps.
  // Collect stable metric pointers under the lock, then release it before
  // reading values and formatting JSON — snapshotting a registry must never
  // stall worker threads that are registering (or looking up) metrics.
  std::vector<std::pair<std::string, const Counter*>> counters;
  std::vector<std::pair<std::string, const Gauge*>> gauges;
  std::vector<std::pair<std::string, const Histogram*>> histograms;
  {
    std::lock_guard<std::mutex> lock(mu_);
    counters.reserve(counters_.size());
    for (const auto& [name, c] : counters_) counters.emplace_back(name, c.get());
    gauges.reserve(gauges_.size());
    for (const auto& [name, g] : gauges_) gauges.emplace_back(name, g.get());
    histograms.reserve(histograms_.size());
    for (const auto& [name, h] : histograms_)
      histograms.emplace_back(name, h.get());
  }
  w.begin_object();
  w.key("counters").begin_object();
  for (const auto& [name, c] : counters) w.key(name).value(c->value());
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& [name, g] : gauges)
    w.key(name).value(static_cast<long long>(g->value()));
  w.end_object();
  w.key("histograms").begin_object();
  for (const auto& [name, h] : histograms) {
    w.key(name).begin_object();
    w.key("count").value(h->count());
    w.key("sum").value(h->sum());
    w.key("buckets").begin_array();
    for (std::size_t i = 0; i <= h->bounds().size(); ++i) {
      w.begin_object();
      w.key("le");
      if (i < h->bounds().size())
        w.value(h->bounds()[i]);
      else
        w.null();  // overflow bucket
      w.key("count").value(h->bucket_count(i));
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_object();
  w.end_object();
}

std::string Registry::snapshot_json() const {
  JsonWriter w;
  write_snapshot(w);
  return w.str();
}

Registry& metrics() {
  static Registry* registry = new Registry();  // never destroyed: references
  return *registry;                            // stay valid through exit paths
}

ScopedTimer::ScopedTimer(Histogram& histogram)
    : histogram_(&histogram),
      start_ns_(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now().time_since_epoch())
              .count())) {}

void ScopedTimer::stop() {
  if (histogram_ == nullptr) return;
  auto now_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
  histogram_->observe(static_cast<double>(now_ns - start_ns_) / 1e6);
  histogram_ = nullptr;
}

bool write_snapshot_file(const std::string& path) {
  std::string doc = metrics().snapshot_json();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    MFHTTP_ERROR << "metrics: cannot open " << path << " for writing";
    return false;
  }
  bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  ok = std::fputc('\n', f) != EOF && ok;
  ok = std::fclose(f) == 0 && ok;
  if (ok)
    MFHTTP_INFO << "metrics: snapshot written to " << path;
  else
    MFHTTP_ERROR << "metrics: short write to " << path;
  return ok;
}

}  // namespace mfhttp::obs
