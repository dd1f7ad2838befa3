// End-to-end browsing session runner (§6.1): one page load plus one random
// scrolling touch, measured with and without MF-HTTP in the path. This is
// the harness behind the Fig. 7/8 benchmarks and the integration tests.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/flow_controller.h"
#include "fault/fault_plan.h"
#include "gesture/synthetic.h"
#include "http/cache.h"
#include "http/resilient_fetcher.h"
#include "net/link.h"
#include "overload/admission.h"
#include "scroll/device_profile.h"
#include "web/page.h"

namespace mfhttp {

struct BrowsingSessionConfig {
  DeviceProfile device = DeviceProfile::nexus6();
  bool enable_mfhttp = true;

  // Network: the paper's campus-WLAN setup — a fast middleware-origin hop
  // and a (comparatively) constrained device hop that all responses share.
  BytesPerSec client_bandwidth = 2.0e6;   // 2 MB/s WLAN share
  TimeMs client_latency_ms = 8;
  // How concurrent responses share the device hop: kFairShare models N
  // parallel connections; kFifo realizes Eq. 13's "schedule the download in
  // the same order that the objects are requested".
  Link::Sharing client_sharing = Link::Sharing::kFairShare;
  BytesPerSec server_bandwidth = 12.5e6;  // ~100 Mbps campus backbone
  TimeMs server_latency_ms = 4;
  // Variable client-hop bandwidth (scenario network profiles); when set it
  // replaces the constant client_bandwidth trace on the link AND as the
  // flow controller's B(t).
  std::optional<BandwidthTrace> client_bandwidth_trace;

  // One scrolling touch per session, fired once the page has had a moment
  // to start rendering.
  TimeMs scroll_at_ms = 1200;
  // Device-class fling calibration (scenario::DeviceClassSpec): multiplies
  // FlingParams::friction for both the ground-truth tracker and the
  // middleware's predictor. 1.0 = stock Android physics, byte-identical.
  double fling_friction_scale = 1.0;
  double swipe_speed_px_s = 5000;   // finger speed (fling intensity)
  bool swipe_up = false;            // finger direction; false = scroll down
  FlowWeights weights{1.0, 0.0};    // paper: q = 0 for web experiments

  TimeMs session_ms = 60'000;
  // Sampling period of the Fig. 8 viewport-fill timeline; 0 disables.
  TimeMs fill_sample_ms = 50;

  std::uint64_t seed = 1;

  // Fault injection & resilience (DESIGN.md §9). nullptr falls back to the
  // ambient fault::global_plan() installed by --scenario; no plan (or an
  // empty one) leaves the whole stack — links, origin, proxy — byte-for-byte
  // identical to the pristine configuration, resilience layer included.
  const fault::FaultPlan* fault_plan = nullptr;
  // With a plan active: retry/breaker layer between proxy and origin, plus
  // the proxy's deferred-queue watchdog. Disable to measure what the faults
  // do to an unprotected stack (the negative arm of the resilience bench).
  bool enable_resilience = true;
  ResilientFetcherParams resilience = default_resilience();
  TimeMs defer_timeout_ms = 15'000;  // watchdog: force-release parked requests

  // Middleware-server cache + corridor warm-up (ISSUE 4). Off by default:
  // a single-session page load re-fetches nothing, so the pristine arms
  // stay byte-identical; the cache arms exist for the cache benches and the
  // repeat-visit / shared-proxy configurations.
  bool enable_cache = false;
  CacheParams cache;
  // With a cache: warm corridor images the optimizer left parked (the
  // BlockListController's prefetch hook). Ignored without enable_cache.
  bool enable_prefetch = false;

  // Overload protection at the proxy (scenario "overload" section). Absent:
  // no admission controller — byte-identical to the historical stack.
  std::optional<overload::AdmissionParams> admission;

  static ResilientFetcherParams default_resilience() {
    ResilientFetcherParams p;
    p.attempt_timeout_ms = 8000;  // per-attempt deadline inside the session
    return p;
  }
};

struct BrowsingSessionResult {
  // Viewport load time (Fig. 7 metric): all structural resources plus every
  // image overlapping the *default* (initial) viewport are complete.
  TimeMs initial_viewport_load_ms = -1;
  // Same for the post-scroll resting viewport, measured from session start.
  TimeMs final_viewport_load_ms = -1;

  Bytes bytes_downloaded = 0;       // over the client link
  Bytes total_image_bytes = 0;      // what a download-everything client wants
  std::size_t images_total = 0;
  std::size_t images_completed = 0;
  std::size_t images_avoided = 0;   // never transferred (parked or refused)

  // Proxy-side accounting for the scenario matrix columns: every request
  // the proxy saw, the subset bounced by admission (429/503) or shed by
  // brownout, and the middleware-cache hit/miss split (0/0 without a cache).
  std::size_t requests_total = 0;
  std::size_t requests_rejected = 0;
  std::size_t requests_shed = 0;
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;

  // Requests still parked at the proxy when the session ended. In a pristine
  // run this is ordinary parked speculation (the mf-http savings). With a
  // fault plan active it is always 0 when the resilience layer is on (the
  // watchdog releases them); the unprotected stack under faults strands
  // whatever the stale policy never released.
  std::size_t stranded_deferred = 0;

  // (time_ms, fraction of current-viewport image bytes present) — Fig. 8.
  std::vector<std::pair<TimeMs, double>> fill_timeline;

  Rect initial_viewport;
  Rect final_viewport;

  // Machine-readable export (util/json.h) for analysis pipelines.
  std::string to_json() const;
};

BrowsingSessionResult run_browsing_session(const WebPage& page,
                                           const BrowsingSessionConfig& config);

}  // namespace mfhttp
