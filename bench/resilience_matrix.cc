// Resilience matrix — what faults cost, and what the resilience layer buys
// back (ISSUE 2 acceptance scenario).
//
// Browsing sessions run under the lossy-cellular fault plan (repeated 3-s
// link outages, 10% origin 5xx/429, abrupt closes, transfer stalls) with the
// resilience stack (retries + per-origin breaker + deferred-queue watchdog +
// blocklist degradation) on and off, for both the MF-HTTP and baseline arms.
// The `stranded` column is the negative result: with resilience off, the
// MF-HTTP arm leaves deferred requests parked at the proxy forever.
//
// A second table shows the 360°-video schedulers under sustained bandwidth
// collapses: tile scheduling keeps playback alive where whole-frame DASH
// stalls, and hysteretic survival mode stops spending on invisible tiles
// for as long as the collapse lasts.
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>

#include "fault/fault_plan.h"
#include "cli/standard_options.h"
#include "gesture/recognizer.h"
#include "gesture/synthetic.h"
#include "obs/metrics.h"
#include "video/session.h"
#include "web/corpus.h"
#include "web/experiment.h"

namespace {

using namespace mfhttp;

// Per-run deltas of the fault/resilience counters (the registry accumulates
// across the whole process).
struct FaultCounters {
  std::uint64_t retries, timeouts, breaker_opened, fast_fails, defer_timeouts,
      origin_errors, degraded_entries, proxy_failed;

  static std::uint64_t get(const char* name) {
    return obs::metrics().counter(name).value();
  }
  static FaultCounters snapshot() {
    return {get("http.resilient.retries_total"),
            get("http.resilient.timeouts_total"),
            get("http.breaker.opened_total"),
            get("http.resilient.fast_fails_total"),
            get("http.proxy.defer_timeouts_total"),
            get("fault.origin.errors_total"),
            get("fault.degraded.web.blocklist.entries_total"),
            get("http.proxy.failed_total")};
  }
  FaultCounters delta(const FaultCounters& before) const {
    return {retries - before.retries,
            timeouts - before.timeouts,
            breaker_opened - before.breaker_opened,
            fast_fails - before.fast_fails,
            defer_timeouts - before.defer_timeouts,
            origin_errors - before.origin_errors,
            degraded_entries - before.degraded_entries,
            proxy_failed - before.proxy_failed};
  }
};

void browsing_table(const WebPage& page, const fault::FaultPlan* plan) {
  std::printf("%-10s %-10s %8s %8s %8s %9s %9s %7s %7s %7s %7s %7s\n", "arm",
              "resil.", "init ms", "final ms", "MB", "imgs", "stranded",
              "retry", "tmo", "brk", "wdog", "5xx");
  for (bool enable_mfhttp : {false, true}) {
    for (bool resilience : {false, true}) {
      BrowsingSessionConfig config;
      config.enable_mfhttp = enable_mfhttp;
      config.fault_plan = plan;
      config.enable_resilience = resilience;
      config.fill_sample_ms = 0;
      const FaultCounters before = FaultCounters::snapshot();
      BrowsingSessionResult r = run_browsing_session(page, config);
      const FaultCounters d = FaultCounters::snapshot().delta(before);
      std::printf("%-10s %-10s %8lld %8lld %8.2f %6zu/%-2zu %9zu %7llu %7llu "
                  "%7llu %7llu %7llu\n",
                  enable_mfhttp ? "mf-http" : "baseline",
                  resilience ? "on" : "off",
                  static_cast<long long>(r.initial_viewport_load_ms),
                  static_cast<long long>(r.final_viewport_load_ms),
                  static_cast<double>(r.bytes_downloaded) / 1e6,
                  r.images_completed, r.images_total, r.stranded_deferred,
                  static_cast<unsigned long long>(d.retries),
                  static_cast<unsigned long long>(d.timeouts),
                  static_cast<unsigned long long>(d.breaker_opened),
                  static_cast<unsigned long long>(d.defer_timeouts),
                  static_cast<unsigned long long>(d.origin_errors));
    }
  }
}

void video_table() {
  const DeviceProfile device = DeviceProfile::nexus6();
  VideoAsset::Params vp;
  vp.name = "video1";
  vp.duration_s = 60;
  VideoAsset video(vp);

  // One volunteer's drag-heavy viewing session (same as the Fig. 9 bench).
  ViewportTrace::Params tp;
  tp.device = device;
  ViewportTrace trace(tp);
  VideoDragSource source(device, {}, Rng(17));
  GestureRecognizer recognizer(device);
  TimeMs now = 0;
  while (now < 60'000) {
    TouchTrace t = source.next_gesture(now);
    now = t.back().time_ms;
    for (const TouchEvent& ev : t)
      if (auto g = recognizer.on_touch_event(ev)) trace.add_gesture(*g);
  }

  // Long bandwidth collapses (to 5% of nominal) carve the trace: deeper than
  // the player's 1-s carry buffer can bridge, but shallow enough that a
  // visible-tiles-only survival plan still fits where full-frame plans
  // cannot. Sharp outages are less interesting here — nothing fits during
  // dead air, and budgets refill the second they end.
  fault::FaultPlan vplan;
  vplan.name = "cellular-collapse";
  fault::LinkFaultWindow collapse;
  collapse.kind = fault::LinkFaultWindow::Kind::kCollapse;
  collapse.at_ms = 5000;
  collapse.duration_ms = 10'000;
  collapse.repeat = 3;
  collapse.period_ms = 15'000;
  collapse.factor = 0.03;
  vplan.link.push_back(collapse);
  BandwidthTrace faulted = vplan.shape(BandwidthTrace::constant(kb_per_sec(1000)));

  GreedyDashScheduler greedy;
  MfHttpTileScheduler tiles;
  struct Row {
    const char* label;
    const TileScheduler* scheduler;
    int degrade_after_na;
  };
  const Row rows[] = {
      {"greedy whole-frame", &greedy, 0},
      {"mf-http tiles", &tiles, 0},
      {"mf-http + survival", &tiles, 2},
  };

  std::printf("%-22s %8s %8s %10s %8s\n", "policy", "NA s", "degr s", "MB",
              "mean q");
  for (const Row& row : rows) {
    StreamingSessionParams params;
    params.carry_cap_s = 0.25;  // small player buffer — can't ride out 10 s
    params.degrade_after_na = row.degrade_after_na;
    params.recover_after = 4;  // don't pop back to full-frame mid-collapse
    StreamingSessionResult r =
        run_streaming_session(video, trace, faulted, *row.scheduler, params);
    int degraded_s = 0;
    for (const SegmentRecord& s : r.segments) degraded_s += s.degraded ? 1 : 0;
    std::map<int, int> quality = r.seconds_at_quality();
    auto na = quality.find(-1);
    std::printf("%-22s %8d %8d %10.2f %8.2f\n", row.label,
                na != quality.end() ? na->second : 0, degraded_s,
                static_cast<double>(r.total_bytes) / 1e6,
                r.mean_resolution(video));
  }
  std::printf("\n(the tile scheduler's viewport-only fallback keeps playback alive\n"
              " where whole-frame DASH stalls; hysteretic survival mode additionally\n"
              " stops spending on invisible tiles while the collapse lasts)\n");
}

}  // namespace

int main(int argc, char** argv) {
  mfhttp::cli::StandardOptions standard_options(argc, argv);
  const DeviceProfile device = DeviceProfile::nexus6();
  Rng rng(42);
  WebPage page;
  for (const SiteSpec& spec : alexa25_specs()) {
    Rng r = rng.fork();
    if (spec.name == "qq") page = generate_page(spec, device, r);
  }

  // A --scenario with a "fault" section swaps in its plan; default is the
  // canonical lossy-cellular stress plan.
  const fault::FaultPlan plan = fault::global_plan() != nullptr
                                    ? *fault::global_plan()
                                    : fault::FaultPlan::lossy_cellular();

  std::printf("=== Resilience matrix: browsing under '%s' ===\n", plan.name.c_str());
  std::printf("(repeated 3-s outages, 10%% origin 5xx/429, stalls, abrupt closes;\n"
              " wdog = deferred-queue watchdog firings; stranded = requests still\n"
              " parked at session end — the cost of running without resilience)\n\n");
  browsing_table(page, &plan);

  // An explicit empty plan, not nullptr: nullptr would fall back to the
  // ambient global_plan() and silently fault the control rows.
  const fault::FaultPlan no_faults;
  std::printf("\n=== Control: same sessions, no faults ===\n\n");
  browsing_table(page, &no_faults);

  std::printf("\n=== 360-video survival mode under bandwidth collapses ===\n\n");
  video_table();
  return 0;
}
