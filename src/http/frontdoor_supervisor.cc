#include "http/frontdoor_supervisor.h"

#include <chrono>

#include "obs/metrics.h"
#include "util/check.h"

namespace mfhttp {

namespace {

std::uint64_t wall_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

FrontDoorSupervisor::FrontDoorSupervisor(SupervisorParams params,
                                         std::size_t shards)
    : params_(params),
      health_(std::make_unique<std::atomic<std::uint8_t>[]>(shards)),
      wedged_counter_(
          &obs::metrics().counter("http.frontdoor.supervisor.wedged_total")),
      recovered_counter_(
          &obs::metrics().counter("http.frontdoor.supervisor.recovered_total")),
      healthy_gauge_(
          &obs::metrics().gauge("http.frontdoor.supervisor.healthy_shards")),
      stall_histogram_(&obs::metrics().histogram(
          "http.frontdoor.supervisor.stall_ms", obs::stall_ms_bounds())) {
  MFHTTP_CHECK(shards >= 1 && shards <= 64);
  MFHTTP_CHECK(params_.check_interval_ms > 0);
  MFHTTP_CHECK(params_.slow_after_ms > 0 &&
               params_.wedged_after_ms >= params_.slow_after_ms);
  tracked_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    tracked_.emplace_back("frontdoor.shard" + std::to_string(i),
                          params_.hysteresis);
    health_[i].store(static_cast<std::uint8_t>(ShardHealth::kHealthy),
                     std::memory_order_relaxed);
  }
  const std::uint64_t all = shards == 64 ? ~0ULL : (1ULL << shards) - 1;
  mask_.store(all, std::memory_order_release);
  healthy_gauge_->set(static_cast<std::int64_t>(shards));
}

FrontDoorSupervisor::~FrontDoorSupervisor() { stop(); }

void FrontDoorSupervisor::attach(std::size_t shard, ShardHeartbeat* heartbeat,
                                 DepthFn depth) {
  MFHTTP_CHECK(shard < tracked_.size() && heartbeat != nullptr);
  tracked_[shard].heartbeat = heartbeat;
  tracked_[shard].depth = std::move(depth);
}

void FrontDoorSupervisor::set_on_mask_change(MaskChangeFn fn) {
  on_mask_change_ = std::move(fn);
}

void FrontDoorSupervisor::publish_mask_change(std::uint64_t mask) {
  mask_.store(mask, std::memory_order_release);
  epoch_.fetch_add(1, std::memory_order_release);
  const std::size_t healthy = healthy_count();
  healthy_gauge_->set(static_cast<std::int64_t>(healthy));
  if (on_mask_change_) on_mask_change_(mask, healthy);
}

void FrontDoorSupervisor::declare_wedged(std::size_t shard, Tracked& t,
                                         std::uint64_t now_ns,
                                         double stall_ms) {
  ++wedged_total_;
  ++t.spells;
  t.wedged_at_ns = now_ns;
  wedged_counter_->inc();
  stall_histogram_->observe(stall_ms);
  if (t.detect_ms == 0 && t.heartbeat != nullptr) {
    const std::uint64_t onset =
        t.heartbeat->fault_onset_ns.load(std::memory_order_relaxed);
    if (onset != 0 && now_ns > onset)
      t.detect_ms = static_cast<double>(now_ns - onset) / 1e6;
  }
  publish_mask_change(mask_.load(std::memory_order_relaxed) &
                      ~(1ULL << shard));
}

void FrontDoorSupervisor::declare_recovered(std::size_t shard, Tracked& t,
                                            std::uint64_t now_ns) {
  ++recovered_total_;
  recovered_counter_->inc();
  if (t.recover_ms == 0 && t.wedged_at_ns != 0 && now_ns > t.wedged_at_ns)
    t.recover_ms = static_cast<double>(now_ns - t.wedged_at_ns) / 1e6;
  publish_mask_change(mask_.load(std::memory_order_relaxed) |
                      (1ULL << shard));
}

void FrontDoorSupervisor::sample(std::uint64_t now_ns) {
  for (std::size_t i = 0; i < tracked_.size(); ++i) {
    Tracked& t = tracked_[i];
    if (t.heartbeat == nullptr) continue;
    const std::uint64_t progress =
        t.heartbeat->progress.load(std::memory_order_acquire);
    const bool serving = t.heartbeat->serving.load(std::memory_order_relaxed);
    if (t.last_change_ns == 0) {
      // First look at this shard: arm the stall clock, classify next time.
      t.last_change_ns = now_ns;
      t.last_progress = progress;
      continue;
    }

    bool progressing = false;
    if (progress != t.last_progress) {
      t.last_progress = progress;
      t.last_change_ns = now_ns;
      progressing = true;
    } else if (serving && !t.heartbeat->busy.load(std::memory_order_relaxed) &&
               (!t.depth || t.depth() == 0)) {
      // Idle, not stuck: nothing queued, worker between events. The stall
      // clock re-arms so a later burst is judged from its own start.
      t.last_change_ns = now_ns;
      progressing = true;
    }
    const double stall_ms =
        static_cast<double>(now_ns - t.last_change_ns) / 1e6;

    if (!serving) {
      // Crash fast path: the worker self-reported, skip the hysteresis.
      if (!t.wedge.degraded()) {
        t.wedge.force(true);
        declare_wedged(i, t, now_ns, stall_ms);
      }
    } else if (progressing) {
      // Fed even when healthy: a progressing sample must reset the bad
      // streak, or two stall blips separated by real work would add up to
      // a wedged declaration ("consecutive" is the whole contract).
      if (t.wedge.observe_good()) declare_recovered(i, t, now_ns);
    } else if (stall_ms >= static_cast<double>(params_.wedged_after_ms)) {
      if (!t.wedge.degraded() && t.wedge.observe_bad())
        declare_wedged(i, t, now_ns, stall_ms);
    }
    // Stalls between the two thresholds feed the hysteresis nothing: the
    // machine holds whichever state it is in (that IS the hysteresis band).

    ShardHealth health = ShardHealth::kHealthy;
    if (t.wedge.degraded())
      health = ShardHealth::kWedged;
    else if (!progressing &&
             stall_ms >= static_cast<double>(params_.slow_after_ms))
      health = ShardHealth::kSlow;
    health_[i].store(static_cast<std::uint8_t>(health),
                     std::memory_order_release);
  }
}

void FrontDoorSupervisor::start() {
  MFHTTP_CHECK(!running_);
  running_ = true;
  stop_.store(false, std::memory_order_release);
  watchdog_ = std::thread([this] {
    const auto interval =
        std::chrono::milliseconds(params_.check_interval_ms);
    while (!stop_.load(std::memory_order_acquire)) {
      sample(wall_ns());
      std::this_thread::sleep_for(interval);
    }
  });
}

void FrontDoorSupervisor::stop() {
  if (!running_) return;
  stop_.store(true, std::memory_order_release);
  if (watchdog_.joinable()) watchdog_.join();
  running_ = false;
}

ShardHealth FrontDoorSupervisor::health(std::size_t shard) const {
  MFHTTP_CHECK(shard < tracked_.size());
  return static_cast<ShardHealth>(
      health_[shard].load(std::memory_order_acquire));
}

std::size_t FrontDoorSupervisor::healthy_count() const {
  std::uint64_t mask = mask_.load(std::memory_order_acquire);
  std::size_t n = 0;
  while (mask != 0) {
    mask &= mask - 1;
    ++n;
  }
  return n;
}

FrontDoorSupervisor::ShardStats FrontDoorSupervisor::shard_stats(
    std::size_t shard) const {
  MFHTTP_CHECK(shard < tracked_.size());
  const Tracked& t = tracked_[shard];
  ShardStats s;
  s.final_health = static_cast<ShardHealth>(
      health_[shard].load(std::memory_order_acquire));
  s.wedged_spells = t.spells;
  s.time_to_detect_ms = t.detect_ms;
  s.time_to_recover_ms = t.recover_ms;
  return s;
}

}  // namespace mfhttp
