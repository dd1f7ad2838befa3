// Quickstart: the MF-HTTP pipeline in one page.
//
// 1. Raw touch events  -> TouchEventMonitor  -> a recognized fling.
// 2. The fling         -> ScrollTracker      -> the whole predetermined
//                                               viewport trajectory.
// 3. Page objects      -> coverage analysis  -> who enters the viewport, when,
//                                               and how much of it they cover.
// 4. Bandwidth + QoE   -> FlowController     -> the optimal download policy.
//
// Device physics and the bandwidth trace come from a scenario::ScenarioSpec:
// the paper default (Nexus 6 on the campus WLAN) unless --scenario points at
// another spec — try bench/scenarios/cellular_handover.json to watch the
// same fling optimized for a 3G link.
//
// Build & run:  ./build/examples/quickstart [--scenario spec.json]
#include <cstdio>

#include "core/flow_controller.h"
#include "core/middleware.h"
#include "gesture/synthetic.h"
#include "cli/standard_options.h"
#include "obs/metrics.h"
#include "scenario/scenario_spec.h"

using namespace mfhttp;

int main(int argc, char** argv) {
  mfhttp::cli::StandardOptions standard_options(argc, argv);
  const scenario::ScenarioSpec spec = standard_options.has_scenario()
                                          ? standard_options.scenario()
                                          : scenario::ScenarioSpec::paper_default();
  // The simulated device — paper default: a Nexus 6, the paper's test phone.
  const DeviceProfile device = spec.device.profile;
  const Rect viewport{0, 0, device.screen_w_px, device.screen_h_px};
  std::printf("scenario: %s (%s x %s)\n\n", spec.name.c_str(),
              spec.device.name.c_str(), spec.network.name.c_str());

  // A tall page with one 800x400 image every 600 px.
  std::vector<MediaObject> images;
  for (int i = 0; i < 40; ++i) {
    images.push_back(make_single_version_object(
        "img-" + std::to_string(i), Rect{100, i * 600.0, 800, 400},
        /*size=*/60'000, "http://site.example/img/" + std::to_string(i) + ".jpg"));
  }

  // --- 1. Touch events -> gesture -------------------------------------------
  Gesture fling;
  TouchEventMonitor monitor(device, [&](const Gesture& g) { fling = g; });
  SwipeSpec swipe;
  swipe.start = {700, 1900};       // finger down near the bottom of the screen
  swipe.direction = {0, -1};       // swiping up...
  swipe.speed_px_s = 9000;         // ...fast: this will be a fling
  monitor.feed(synthesize_swipe(swipe));
  std::printf("gesture: %s, release velocity (%.0f, %.0f) px/s\n",
              to_string(fling.kind), fling.release_velocity.x,
              fling.release_velocity.y);

  // --- 2. Gesture -> full scroll prediction (Eqs. 1-5) ----------------------
  // The device class calibrates the fling physics: a low-end phone's
  // heavier friction shortens the very same finger motion.
  ScrollTracker::Params tracker_params;
  tracker_params.scroll = ScrollConfig(device);
  tracker_params.scroll.fling.friction *= spec.device.fling_friction_scale;
  ScrollTracker tracker(tracker_params);
  ScrollPrediction prediction = tracker.predict(fling, viewport);
  std::printf("predicted scroll: %.0f px over %.0f ms (viewport %0.f -> %.0f)\n",
              prediction.displacement.norm(), prediction.duration_ms,
              prediction.viewport0.y, prediction.final_viewport().y);

  // --- 3. Which images does the scroll involve? -----------------------------
  ScrollAnalysis analysis = tracker.analyze(prediction, images);
  std::printf("\n%-8s %10s %12s %10s %8s\n", "image", "entry(ms)", "coverage",
              "in-final", "involved");
  for (const ObjectCoverage& cov : analysis.listed) {  // in entry order
    if (!cov.involved) continue;
    std::printf("%-8zu %10.0f %11.1f%% %10s %8s\n", cov.object_index,
                cov.entry_time_ms,
                100.0 * cov.coverage_integral /
                    (viewport.area() * prediction.duration_ms),
                cov.in_final_viewport ? "yes" : "no", "yes");
  }

  // --- 4. Optimal download policy on the scenario's client hop --------------
  FlowController::Params flow_params;
  flow_params.weights = {1.0, 1.0};  // p = q = 1: balance QoE against cost
  FlowController flow(flow_params);
  BandwidthTrace bandwidth =
      spec.network.client_trace(spec.seed, /*horizon_ms=*/60'000);
  DownloadPolicy policy = flow.optimize(analysis, images, bandwidth);

  std::printf("\ndownload policy (objective %.3f, %lld bytes):\n", policy.objective,
              static_cast<long long>(policy.total_bytes));
  for (const DownloadDecision& d : policy.decisions) {
    std::printf("  img-%zu: %s  (QoE %.3f, cost %.3f)\n", d.object_index,
                d.download() ? "DOWNLOAD" : "skip", d.qoe, d.cost);
  }
  return 0;
}
