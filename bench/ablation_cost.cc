// Ablation — the generic cost function c(f) of §3.4.1, instantiated three
// ways, and the Eq. 13 transfer-scheduling discipline.
//
//   (a) Cost model: byte-linear vs data-capped vs LTE radio energy. Each
//       shifts what the optimizer downloads for the same scroll: linear
//       prunes big objects, capped prunes beyond-quota bytes, and energy's
//       fixed per-fetch charge prunes *many small* objects.
//   (b) Scheduling: Eq. 13 hints that selected objects download in viewport
//       entry order (FIFO); parallel connections (fair share) are what
//       browsers actually do. Measured on viewport load time.
#include <algorithm>
#include <cstdio>

#include "core/energy.h"
#include "core/flow_controller.h"
#include "core/middleware.h"
#include "cli/standard_options.h"
#include "obs/metrics.h"
#include "web/corpus.h"
#include "web/experiment.h"

namespace {

using namespace mfhttp;

const DeviceProfile kDevice = DeviceProfile::nexus6();

struct PolicySummary {
  std::size_t downloads = 0;
  Bytes bytes = 0;
};

PolicySummary summarize(const DownloadPolicy& policy) {
  PolicySummary out;
  for (const DownloadDecision& d : policy.decisions)
    if (d.download()) ++out.downloads;
  out.bytes = policy.total_bytes;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  mfhttp::cli::StandardOptions standard_options(argc, argv);
  Rng rng(42);
  WebPage page;
  for (const SiteSpec& spec : alexa25_specs()) {
    Rng r = rng.fork();
    if (spec.name == "qq") page = generate_page(spec, kDevice, r);
  }

  // One strong fling over the qq-like page.
  ScrollTracker::Params tp;
  tp.scroll = ScrollConfig(kDevice);
  tp.coverage_step_ms = 4.0;
  tp.content_bounds = page.bounds();
  ScrollTracker tracker(tp);
  Gesture g;
  g.kind = GestureKind::kFling;
  g.down_time_ms = 0;
  g.up_time_ms = 150;
  g.release_velocity = {0, -16000};
  ScrollPrediction pred =
      tracker.predict(g, {0, 0, kDevice.screen_w_px, kDevice.screen_h_px});
  ScrollAnalysis analysis = tracker.analyze(pred, page.images);

  std::printf("=== Ablation (a): cost models over one 16k px/s fling (qq-like) ===\n");
  std::printf("(p = 1, q = 0.1; %zu images involved)\n\n",
              static_cast<std::size_t>(
                  std::ranges::count(analysis.listed, true, &ObjectCoverage::involved)));
  std::printf("%-22s %12s %14s\n", "cost model", "downloads", "bytes (KB)");

  struct Model {
    const char* name;
    CostFunction cost;
  } models[] = {
      {"linear (bytes)", linear_cost()},
      {"capped @300KB, 4x", capped_cost(300'000, 4.0)},
      {"LTE radio energy", radio_energy_cost(RadioEnergyParams::lte())},
      {"WiFi radio energy", radio_energy_cost(RadioEnergyParams::wifi())},
  };
  auto bw = BandwidthTrace::constant(2e6);
  for (const Model& m : models) {
    FlowController::Params params;
    params.weights = {1.0, 0.1};
    params.ignore_bandwidth_constraint = true;
    params.cost = m.cost;
    DownloadPolicy policy = FlowController(params).optimize(analysis, page.images, bw);
    PolicySummary s = summarize(policy);
    std::printf("%-22s %12zu %14.1f\n", m.name, s.downloads,
                static_cast<double>(s.bytes) / 1000.0);
  }

  std::printf("\n=== Ablation (b): client-hop scheduling discipline ===\n");
  std::printf("(sohu-like page, MF-HTTP on; Eq. 13 in-order FIFO vs parallel"
              " fair share)\n\n");
  Rng rng2(42);
  WebPage sohu;
  for (const SiteSpec& spec : alexa25_specs()) {
    Rng r = rng2.fork();
    if (spec.name == "sohu") sohu = generate_page(spec, kDevice, r);
  }
  std::printf("%-12s %-14s %18s %18s\n", "arm", "discipline",
              "initial VLT (ms)", "final VLT (ms)");
  for (bool mfhttp : {false, true}) {
    for (Link::Sharing sharing :
         {Link::Sharing::kFifo, Link::Sharing::kFairShare}) {
      BrowsingSessionConfig cfg;
      cfg.enable_mfhttp = mfhttp;
      cfg.fill_sample_ms = 0;
      cfg.seed = 7;
      cfg.client_bandwidth = 800e3;  // constrained: discipline matters
      cfg.client_sharing = sharing;
      BrowsingSessionResult r = run_browsing_session(sohu, cfg);
      std::printf("%-12s %-14s %18lld %18lld\n", mfhttp ? "mf-http" : "baseline",
                  sharing == Link::Sharing::kFifo ? "fifo (Eq.13)" : "fair-share",
                  static_cast<long long>(r.initial_viewport_load_ms),
                  static_cast<long long>(r.final_viewport_load_ms));
    }
  }
  std::printf(
      "\n(under contention the priority-less baseline collapses either way:\n"
      " its css->script chain queues behind ~70 images, and the viewport\n"
      " cannot finish before the page does. MF-HTTP's block list plus its\n"
      " structure > viewport > transient link priorities keep the critical\n"
      " path in front under both disciplines)\n");
  return 0;
}
