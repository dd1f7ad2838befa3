#include "scenario/wiring.h"

#include <algorithm>

#include "util/rng.h"

namespace mfhttp::scenario {

namespace {

// Trace horizon for random-walk network profiles: long enough to cover any
// session the runners schedule (browsing sessions run 60 s).
constexpr TimeMs kTraceHorizonMs = 120'000;

// Derives the client-hop trace for one session. Constant profiles return
// the same trace regardless of `session_seed` (byte-identity with the
// hand-wired constant-bandwidth configs); variable profiles fold the
// session seed in so repeats see different — but reproducible — weather.
std::optional<BandwidthTrace> session_trace(const ScenarioSpec& spec,
                                            std::uint64_t session_seed) {
  if (spec.network.client_bandwidth_stddev <= 0) return std::nullopt;
  return spec.network.client_trace(splitmix64(spec.seed ^ session_seed),
                                   kTraceHorizonMs);
}

}  // namespace

BrowsingSessionConfig browsing_config(const ScenarioSpec& spec,
                                      const WebPage& page, int repeat,
                                      const fault::FaultPlan* plan) {
  BrowsingSessionConfig cfg;
  cfg.device = spec.device.profile;
  cfg.fling_friction_scale = spec.device.fling_friction_scale;
  cfg.enable_mfhttp = spec.workload.kind != WorkloadKind::kClientOnly;

  cfg.client_bandwidth = spec.network.client_bandwidth;
  cfg.client_latency_ms = spec.network.client_latency_ms;
  cfg.server_bandwidth = spec.network.server_bandwidth;
  cfg.server_latency_ms = spec.network.server_latency_ms;

  // The historical fig6/fig7 session seed was
  //   1000 + site.size() + session * 7919
  // — written as 999 + spec.seed + ... so the paper-default spec (seed 1)
  // reproduces it exactly and other spec seeds decorrelate every session.
  cfg.seed = 999 + spec.seed + static_cast<std::uint64_t>(page.site.size()) +
             static_cast<std::uint64_t>(repeat) * 7919;
  cfg.swipe_speed_px_s = spec.device.swipe_speed_base_px_s +
                         spec.device.swipe_speed_step_px_s * repeat;
  cfg.fill_sample_ms = 0;  // matrix cells score analytically, not by timeline

  cfg.client_bandwidth_trace = session_trace(spec, cfg.seed);
  cfg.fault_plan = plan;
  if (spec.cache.has_value()) {
    cfg.enable_cache = true;
    cfg.cache = spec.cache->cache;
    cfg.enable_prefetch = spec.cache->prefetch_enabled;
  }
  if (spec.overload.has_value()) cfg.admission = spec.overload->admission;
  return cfg;
}

FeedSpec feed_spec(const ScenarioSpec& spec) {
  FeedSpec fs;
  fs.post_count = spec.workload.feed_posts;
  return fs;
}

FeedSessionConfig feed_config(const ScenarioSpec& spec, int repeat,
                              const fault::FaultPlan* plan) {
  FeedSessionConfig cfg;
  cfg.device = spec.device.profile;
  cfg.fling_friction_scale = spec.device.fling_friction_scale;

  cfg.client_bandwidth = spec.network.client_bandwidth;
  cfg.client_latency_ms = spec.network.client_latency_ms;
  cfg.server_bandwidth = spec.network.server_bandwidth;
  cfg.server_latency_ms = spec.network.server_latency_ms;

  cfg.seed = spec.seed + static_cast<std::uint64_t>(repeat) * 7919;
  cfg.fling_count = spec.workload.feed_flings;
  // 2.5x the browsing swipe speed, capped at the device's max_speed_px_s.
  // Every registered device class reaches the cap from repeat 1 on, so
  // repeats after the first fling at the same speed and differ only in
  // their seed.
  cfg.fling_speed_px_s = 2.5 * (spec.device.swipe_speed_base_px_s +
                                spec.device.swipe_speed_step_px_s * repeat);
  cfg.fling_speed_px_s =
      std::min(cfg.fling_speed_px_s, spec.device.max_speed_px_s);

  if (spec.workload.append_posts_per_fling > 0) {
    // Dynamic feed: reserve one append batch per fling; the session opens
    // with whatever prefix remains (at least a couple of screens).
    int reserved = spec.workload.append_posts_per_fling *
                   spec.workload.feed_flings;
    cfg.initial_posts = std::max(8, spec.workload.feed_posts - reserved);
    cfg.append_posts_per_fling = spec.workload.append_posts_per_fling;
  }

  cfg.client_bandwidth_trace = session_trace(spec, cfg.seed);
  cfg.fault_plan = plan;
  if (spec.cache.has_value()) {
    cfg.enable_cache = true;
    cfg.cache = spec.cache->cache;
  }
  if (spec.overload.has_value()) cfg.admission = spec.overload->admission;
  return cfg;
}

}  // namespace mfhttp::scenario
