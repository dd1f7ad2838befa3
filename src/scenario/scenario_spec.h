// Unified scenario description (DESIGN.md §16): one JSON document that
// composes everything a run needs —
//
//   * a device class: screen geometry + fling-physics calibration feeding
//     scroll/fling, and per-class swipe speeds with a fling cap
//     (ScrollTest's finding that scrolling speed and accuracy differ
//     systematically across device classes),
//   * a network profile: client/server link rates and latencies, optional
//     bandwidth variability (net::BandwidthTrace random walk), and cellular
//     handover gaps that compile into fault::FaultPlan link outages,
//   * a workload: the paper's 25-page corpus, the client-only speculative-
//     loading baseline arm ("How Far Can Client-Only Solutions Go for
//     Mobile Browser Speed?"), an infinite-scroll social feed with
//     dynamically appended objects, or the tiled 360° video case,
//   * the existing fault / cache / overload sections, embedded verbatim
//     (fault::FaultPlan, prefetch::CacheConfig, overload::OverloadConfig
//     all parse through util/json_config — one parse path, one line/column
//     diagnostic style).
//
// Schema (every section and field optional; absent fields keep defaults):
//
//   {
//     "name": "paper_default", "seed": 1,
//     "device":   {"class": "phone_flagship", ...field overrides},
//     "network":  {"profile": "wlan", ...field overrides},
//     "workload": {"kind": "paper_corpus", "repeats": 3, ...},
//     "fault":    {...fault/fault_plan.h schema...},
//     "cache":    {...prefetch/cache_config.h schema...},
//     "overload": {...overload/config.h schema...}
//   }
//
// Device classes: phone_flagship (Nexus 6, the paper's test device),
// phone_midrange (Nexus 5), phone_lowend, tablet10. Network profiles:
// wlan (the paper's campus setup), lte, umts3g, nr5g. Workloads:
// paper_corpus, client_only, social_feed, tiled_video.
//
// `paper_default()` — phone_flagship × wlan × paper_corpus, no fault/cache/
// overload sections — reproduces the fig6/fig7 harness byte for byte when
// run through scenario/wiring.h (asserted by bench/scenario_matrix).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "fault/fault_plan.h"
#include "net/bandwidth_trace.h"
#include "overload/config.h"
#include "prefetch/cache_config.h"
#include "scroll/device_profile.h"

namespace mfhttp::scenario {

// Device class: screen + fling calibration + swipe speeds.
struct DeviceClassSpec {
  std::string name = "phone_flagship";
  DeviceProfile profile = DeviceProfile::nexus6();
  // Multiplies FlingParams::friction (0.015 baseline). ScrollTest-style
  // calibration: heavier friction = flings die sooner on that device class.
  double fling_friction_scale = 1.0;

  // Fastest fling the class produces: caps the feed workload's fling ramp.
  double max_speed_px_s = 12000;

  // Deterministic per-repeat swipe ramp for the browsing workloads: repeat r
  // swipes at base + step * r (the fig7 harness's 3000 + 2500 * session).
  double swipe_speed_base_px_s = 3000;
  double swipe_speed_step_px_s = 2500;

  // Registry lookup; nullopt for an unknown class name.
  static std::optional<DeviceClassSpec> named(std::string_view name);
};

// Network profile: link shape + optional variability + handover gaps.
struct NetworkProfileSpec {
  std::string name = "wlan";
  BytesPerSec client_bandwidth = 2.0e6;
  TimeMs client_latency_ms = 8;
  BytesPerSec server_bandwidth = 12.5e6;
  TimeMs server_latency_ms = 4;
  // > 0: the client trace becomes a seeded mean-reverting random walk with
  // this stddev (clamped to [0.1, 2] x mean); 0 keeps it constant.
  BytesPerSec client_bandwidth_stddev = 0;

  // Cellular handover gaps: `count` repeated link outages of `gap_ms`,
  // `period_ms` apart, starting at `first_ms` — compiled into the
  // scenario's fault plan as kOutage windows. period 0 disables.
  TimeMs handover_period_ms = 0;
  TimeMs handover_gap_ms = 0;
  int handover_count = 0;
  TimeMs handover_first_ms = 5000;

  static std::optional<NetworkProfileSpec> named(std::string_view name);

  bool has_handover() const {
    return handover_period_ms > 0 && handover_gap_ms > 0 && handover_count > 0;
  }
  // Client-hop bandwidth trace; `horizon_ms` bounds the random-walk length.
  BandwidthTrace client_trace(std::uint64_t seed, TimeMs horizon_ms) const;
};

enum class WorkloadKind {
  kPaperCorpus,  // 25-page corpus through the MF-HTTP arm (fig7 treatment)
  kClientOnly,   // same corpus, speculative download-everything baseline
  kSocialFeed,   // infinite-scroll feed with dynamically appended objects
  kTiledVideo,   // tiled 360° video session + HTTP replay
};

const char* workload_kind_name(WorkloadKind kind);
std::optional<WorkloadKind> workload_kind_from_name(std::string_view name);

struct WorkloadSpec {
  WorkloadKind kind = WorkloadKind::kPaperCorpus;
  // Browsing: sessions per corpus site. Feed: independent feed sessions.
  // Video: independent streaming sessions.
  int repeats = 3;
  // Browsing workloads: restrict to the first N corpus sites (0 = all 25).
  // The CI smoke grid uses this to keep the sweep short.
  int corpus_sites = 0;

  // social_feed knobs.
  int feed_posts = 60;
  int feed_flings = 4;
  // > 0: the feed reveals this many posts per fling (dynamic appends
  // stressing the incremental knapsack's prefix reuse); 0 = static feed.
  int append_posts_per_fling = 12;

  // tiled_video knobs.
  int video_segments = 30;
};

struct ScenarioSpec {
  std::string name = "paper_default";
  std::uint64_t seed = 1;
  DeviceClassSpec device;
  NetworkProfileSpec network;
  WorkloadSpec workload;
  // Optional embedded sections (absent = feature off / defaults).
  std::optional<fault::FaultPlan> fault;
  std::optional<prefetch::CacheConfig> cache;
  std::optional<overload::OverloadConfig> overload;

  // The paper's configuration: phone_flagship x wlan x paper_corpus.
  static ScenarioSpec paper_default();

  static std::optional<ScenarioSpec> from_json(std::string_view json,
                                               std::string* error = nullptr);
  static std::optional<ScenarioSpec> from_value(const JsonValue& doc,
                                                std::string* error = nullptr);
  static std::optional<ScenarioSpec> load(const std::string& path,
                                          std::string* error = nullptr);
  std::string to_json() const;

  // The plan the pipeline actually runs under: the "fault" section merged
  // with the network profile's handover outage windows. nullopt when both
  // are empty (the stack stays pristine — byte-identical to no plan).
  std::optional<fault::FaultPlan> compiled_fault_plan() const;
};

}  // namespace mfhttp::scenario
