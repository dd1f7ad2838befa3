#include "sim/session_world.h"

#include <chrono>
#include <utility>

#include "core/middleware.h"
#include "gesture/synthetic.h"
#include "net/bandwidth_trace.h"
#include "obs/metrics.h"
#include "scroll/device_profile.h"
#include "util/check.h"
#include "util/fnv.h"
#include "util/json.h"
#include "util/rng.h"
#include "web/corpus.h"

namespace mfhttp::sim {

namespace {

// Expand the corpus's single-version images to `versions` ascending
// resolutions, so the flow controller's knapsack chooses quality levels the
// way §3.4 intends (the corpus's single file becomes the middle version).
std::vector<MediaObject> expand_versions(std::vector<MediaObject> images,
                                         std::size_t versions) {
  if (versions <= 1) return images;
  static const double kSizeFactor[] = {0.25, 1.0, 2.5, 5.0, 9.0};
  static const double kResolution[] = {360, 720, 1080, 1440, 2160};
  const std::size_t m =
      versions < std::size(kSizeFactor) ? versions : std::size(kSizeFactor);
  for (MediaObject& obj : images) {
    MFHTTP_CHECK(!obj.versions.empty());
    const MediaVersion base = obj.versions.front();
    obj.versions.clear();
    for (std::size_t j = 0; j < m; ++j) {
      MediaVersion v;
      v.resolution = kResolution[j];
      v.size = static_cast<Bytes>(static_cast<double>(base.size) * kSizeFactor[j]);
      if (v.size < 1) v.size = 1;
      v.url = base.url + "?v=" + std::to_string(j);
      obj.versions.push_back(std::move(v));
    }
  }
  return images;
}

}  // namespace

std::uint64_t session_seed(std::uint64_t seed, std::size_t id) {
  return splitmix64(seed ^ splitmix64(static_cast<std::uint64_t>(id) + 1));
}

ScaleSessionResult run_scale_session(const ScaleSessionConfig& config,
                                     std::size_t id) {
  const auto wall_start = std::chrono::steady_clock::now();
  ScaleSessionResult r;
  r.session_id = id;
  r.seed = session_seed(config.seed, id);

  // Every stochastic input forks off this one generator, in a fixed order —
  // the whole world is a pure function of r.seed.
  Rng master(r.seed);
  Rng page_rng = master.fork();
  Rng bw_rng = master.fork();
  Rng gesture_rng = master.fork();

  const DeviceProfile& device = config.device;
  const std::vector<SiteSpec>& specs = alexa25_specs();
  const SiteSpec& spec = specs[id % specs.size()];
  WebPage page = generate_page(spec, device, page_rng);
  std::vector<MediaObject> objects =
      expand_versions(page.images, config.versions_per_object);
  r.site = page.site;
  r.objects = objects.size();

  const double mean_bps = config.mean_bandwidth_mbps * 1e6 / 8.0;
  BandwidthTrace bandwidth = BandwidthTrace::random_walk(
      bw_rng, mean_bps, mean_bps * 0.3, mean_bps * 0.2, mean_bps * 2.0,
      /*slots=*/180);

  Middleware::Params params;
  params.tracker.scroll = ScrollConfig(device);
  params.tracker.scroll.fling.friction *= config.fling_friction_scale;
  params.tracker.content_bounds = page.bounds();
  params.initial_viewport = {0, 0, device.screen_w_px, device.screen_h_px};
  Middleware middleware(std::move(params), std::move(objects),
                        std::move(bandwidth), /*sim=*/nullptr);

  Fnv fp;
  middleware.set_policy_callback(
      [&](const ScrollAnalysis& analysis, const DownloadPolicy& policy) {
        ++r.scrolls;
        r.involved += policy.decisions.size();
        r.planned_bytes += static_cast<std::uint64_t>(policy.total_bytes);
        r.objective_sum += policy.objective;
        fp.u64(policy.decisions.size());
        fp.f64(policy.objective);
        for (const DownloadDecision& d : policy.decisions) {
          if (d.download()) {
            ++r.downloads;
            r.qoe_sum += d.qoe;
          }
          fp.u64(d.object_index);
          fp.i32(d.version);
          fp.f64(d.entry_time_ms);
          fp.f64(d.value);
        }
        fp.f64(analysis.prediction.displacement.y);
        fp.f64(analysis.prediction.duration_ms);
      });

  TouchEventMonitor monitor(
      device, [&](const Gesture& g) { middleware.on_gesture(g); });
  BrowsingGestureSource gestures(device, config.gestures, gesture_rng);

  TimeMs next_down_ms = 0;
  for (std::size_t g = 0; g < config.gestures_per_session; ++g) {
    TouchTrace trace = gestures.next_swipe(next_down_ms);
    MFHTTP_CHECK(!trace.empty());
    const std::size_t scrolls_before = r.scrolls;
    monitor.feed(trace);
    ++r.gestures;
    next_down_ms = trace.back().time_ms;
    if (r.scrolls != scrolls_before)
      r.touch_to_policy_ms.push_back(middleware.last_touch_to_policy_ms());
  }

  r.fingerprint = fp.h;
  r.wall_ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - wall_start)
                  .count();
  return r;
}

ScaleRunResult run_scale_sessions(const ScaleSessionConfig& config) {
  static obs::Counter& sessions_total =
      obs::metrics().counter("sim.scale.sessions_total");
  const auto wall_start = std::chrono::steady_clock::now();

  ScaleRunResult out;
  out.config = config;
  out.sessions.resize(config.sessions);

  // Each task writes only its own slot; the runner guarantees fn(i) runs
  // exactly once. Merging below iterates slots in id order.
  ParallelRunner runner(config.workers);
  out.stats = runner.run(config.sessions, [&](std::size_t i) {
    out.sessions[i] = run_scale_session(config, i);
  });

  for (const ScaleSessionResult& s : out.sessions) {
    out.total_scrolls += s.scrolls;
    out.total_planned_bytes += s.planned_bytes;
    out.total_objective += s.objective_sum;
  }
  sessions_total.inc(config.sessions);
  out.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - wall_start)
                    .count();
  return out;
}

std::string ScaleRunResult::deterministic_json() const {
  // Deliberately excludes wall_ms, touch_to_policy_ms, and stats (worker
  // count, steals): everything here must be identical across runs of the
  // same config at any parallelism.
  JsonWriter w;
  w.begin_object();
  w.key("config").begin_object();
  w.key("seed").value(static_cast<unsigned long long>(config.seed));
  w.key("sessions").value(config.sessions);
  w.key("gestures_per_session").value(config.gestures_per_session);
  w.key("versions_per_object").value(config.versions_per_object);
  w.key("mean_bandwidth_mbps").value(config.mean_bandwidth_mbps);
  w.end_object();
  w.key("totals").begin_object();
  w.key("scrolls").value(total_scrolls);
  w.key("planned_bytes").value(static_cast<unsigned long long>(total_planned_bytes));
  w.key("objective").value(total_objective);
  w.end_object();
  w.key("sessions").begin_array();
  for (const ScaleSessionResult& s : sessions) {
    w.begin_object();
    w.key("id").value(s.session_id);
    w.key("seed").value(static_cast<unsigned long long>(s.seed));
    w.key("site").value(s.site);
    w.key("objects").value(s.objects);
    w.key("gestures").value(s.gestures);
    w.key("scrolls").value(s.scrolls);
    w.key("involved").value(s.involved);
    w.key("downloads").value(s.downloads);
    w.key("planned_bytes").value(static_cast<unsigned long long>(s.planned_bytes));
    w.key("objective_sum").value(s.objective_sum);
    w.key("qoe_sum").value(s.qoe_sum);
    w.key("fingerprint").value(static_cast<unsigned long long>(s.fingerprint));
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

}  // namespace mfhttp::sim
