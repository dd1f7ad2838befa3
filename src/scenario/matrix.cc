#include "scenario/matrix.h"

#include <algorithm>
#include <chrono>
#include <optional>

#include "feed/feed_experiment.h"
#include "gesture/recognizer.h"
#include "gesture/synthetic.h"
#include "scenario/wiring.h"
#include "util/check.h"
#include "util/fnv.h"
#include "util/json.h"
#include "util/rng.h"
#include "video/scheduler.h"
#include "video/session.h"
#include "video/viewport_trace.h"
#include "web/corpus.h"
#include "web/experiment.h"

namespace mfhttp::scenario {

namespace {

TimeMs p99(std::vector<TimeMs> samples) {
  if (samples.empty()) return -1;
  std::sort(samples.begin(), samples.end());
  std::size_t idx = (samples.size() * 99 + 99) / 100;  // ceil(0.99 n)
  if (idx > samples.size()) idx = samples.size();
  return samples[idx - 1];
}

// Shared accumulator for the proxy-side columns.
struct ProxyTally {
  std::size_t requests = 0, rejected = 0, shed = 0, hits = 0, misses = 0;
  template <typename R>
  void add(const R& r) {
    requests += r.requests_total;
    rejected += r.requests_rejected;
    shed += r.requests_shed;
    hits += r.cache_hits;
    misses += r.cache_misses;
  }
  void finish(MatrixCellResult* out) const {
    out->shed_rate =
        requests > 0 ? static_cast<double>(rejected + shed) / requests : 0;
    out->cache_hit_ratio =
        hits + misses > 0 ? static_cast<double>(hits) / (hits + misses) : 0;
  }
};

void run_browsing_cell(const ScenarioSpec& spec, MatrixCellResult* out) {
  Rng corpus_rng(42);
  std::vector<WebPage> corpus =
      generate_corpus(spec.device.profile, corpus_rng);
  if (spec.workload.corpus_sites > 0 &&
      static_cast<std::size_t>(spec.workload.corpus_sites) < corpus.size())
    corpus.resize(spec.workload.corpus_sites);
  const std::optional<fault::FaultPlan> plan = spec.compiled_fault_plan();

  Fnv fp;
  ProxyTally tally;
  std::vector<TimeMs> load_times;
  double qoe_sum = 0;
  Bytes total_bytes = 0;
  TimeMs total_sim_ms = 0;
  for (const WebPage& page : corpus) {
    for (int repeat = 0; repeat < spec.workload.repeats; ++repeat) {
      BrowsingSessionConfig cfg =
          browsing_config(spec, page, repeat, plan ? &*plan : nullptr);
      BrowsingSessionResult r = run_browsing_session(page, cfg);
      ++out->sessions;
      load_times.push_back(r.initial_viewport_load_ms);
      qoe_sum += r.initial_viewport_load_ms >= 0
                     ? 1000.0 / (1000.0 + r.initial_viewport_load_ms)
                     : 0.0;
      total_bytes += r.bytes_downloaded;
      total_sim_ms += cfg.session_ms;
      tally.add(r);
      fp.u64(static_cast<std::uint64_t>(r.initial_viewport_load_ms));
      fp.u64(static_cast<std::uint64_t>(r.final_viewport_load_ms));
      fp.u64(static_cast<std::uint64_t>(r.bytes_downloaded));
      fp.u64(r.images_completed);
      fp.u64(r.stranded_deferred);
    }
  }
  out->qoe = out->sessions > 0 ? qoe_sum / out->sessions : 0;
  out->viewport_p99_ms = p99(std::move(load_times));
  out->goodput_bytes_per_s =
      total_sim_ms > 0 ? total_bytes * 1000.0 / total_sim_ms : 0;
  tally.finish(out);
  out->fingerprint = fp.h;
}

void run_feed_cell(const ScenarioSpec& spec, MatrixCellResult* out) {
  Rng feed_rng(42 + spec.seed);
  Feed feed = generate_feed(feed_spec(spec), spec.device.profile, feed_rng);
  const std::optional<fault::FaultPlan> plan = spec.compiled_fault_plan();

  Fnv fp;
  ProxyTally tally;
  double qoe_sum = 0;
  Bytes total_bytes = 0;
  TimeMs total_sim_ms = 0;
  for (int repeat = 0; repeat < spec.workload.repeats; ++repeat) {
    FeedSessionConfig cfg = feed_config(spec, repeat, plan ? &*plan : nullptr);
    FeedSessionResult r = run_feed_session(feed, cfg);
    ++out->sessions;
    qoe_sum += r.instant_play_rate;
    total_bytes += r.bytes_downloaded;
    total_sim_ms += cfg.session_ms;
    tally.add(r);
    fp.u64(r.clips_settled);
    fp.u64(r.clips_instant);
    fp.u64(static_cast<std::uint64_t>(r.bytes_downloaded));
    fp.u64(r.thumbs_substituted);
    fp.u64(r.media_avoided);
  }
  out->qoe = out->sessions > 0 ? qoe_sum / out->sessions : 0;
  out->viewport_p99_ms = -1;  // the feed has no viewport-load notion
  out->goodput_bytes_per_s =
      total_sim_ms > 0 ? total_bytes * 1000.0 / total_sim_ms : 0;
  tally.finish(out);
  out->fingerprint = fp.h;
}

ViewportTrace viewer_trace(const DeviceProfile& device, std::uint64_t seed,
                           TimeMs duration_ms) {
  ViewportTrace::Params tp;
  tp.device = device;
  ViewportTrace trace(tp);
  VideoDragSource source(device, {}, Rng(seed));
  GestureRecognizer recognizer(device);
  TimeMs now = 0;
  while (now < duration_ms) {
    TouchTrace t = source.next_gesture(now);
    now = t.back().time_ms;
    for (const TouchEvent& ev : t)
      if (auto g = recognizer.on_touch_event(ev)) trace.add_gesture(*g);
  }
  return trace;
}

void run_video_cell(const ScenarioSpec& spec, MatrixCellResult* out) {
  VideoAsset::Params vp;
  vp.duration_s = spec.workload.video_segments;
  vp.seed = 6 + spec.seed;  // paper-default seed 1 keeps the stock asset
  VideoAsset video(vp);
  const double top_resolution = video.params().ladder.back().resolution;
  MfHttpTileScheduler scheduler;
  StreamingSessionParams params;

  Fnv fp;
  std::vector<TimeMs> completion_times;
  double qoe_sum = 0;
  Bytes total_bytes = 0;
  for (int viewer = 0; viewer < spec.workload.repeats; ++viewer) {
    const std::uint64_t viewer_seed =
        splitmix64(spec.seed ^ (100 + static_cast<std::uint64_t>(viewer)));
    ViewportTrace trace = viewer_trace(
        spec.device.profile, viewer_seed,
        static_cast<TimeMs>(vp.duration_s) * 1000);
    BandwidthTrace bandwidth = spec.network.client_trace(
        viewer_seed, static_cast<TimeMs>(vp.duration_s) * 1000);
    StreamingSessionResult r =
        run_streaming_session(video, trace, bandwidth, scheduler, params);
    std::vector<TimeMs> replay =
        replay_session_over_http(video, r, bandwidth);
    ++out->sessions;
    qoe_sum += top_resolution > 0 ? r.mean_resolution(video) / top_resolution
                                  : 0;
    total_bytes += r.total_bytes;
    for (TimeMs t : replay) completion_times.push_back(t);
    fp.u64(static_cast<std::uint64_t>(r.total_bytes));
    fp.f64(r.mean_resolution(video));
    for (TimeMs t : replay) fp.u64(static_cast<std::uint64_t>(t));
  }
  out->qoe = out->sessions > 0 ? qoe_sum / out->sessions : 0;
  out->viewport_p99_ms = p99(std::move(completion_times));
  out->goodput_bytes_per_s =
      total_bytes /
      (static_cast<double>(vp.duration_s) *
       std::max(1, spec.workload.repeats));
  out->shed_rate = 0;
  out->cache_hit_ratio = 0;
  out->fingerprint = fp.h;
}

}  // namespace

ScenarioSpec cell_spec(const ScenarioSpec& base, const std::string& device,
                       const std::string& network,
                       const std::string& workload) {
  ScenarioSpec spec = base;
  auto d = DeviceClassSpec::named(device);
  MFHTTP_CHECK_MSG(d.has_value(), "unknown device class in matrix grid");
  spec.device = *d;
  auto n = NetworkProfileSpec::named(network);
  MFHTTP_CHECK_MSG(n.has_value(), "unknown network profile in matrix grid");
  spec.network = *n;
  auto k = workload_kind_from_name(workload);
  MFHTTP_CHECK_MSG(k.has_value(), "unknown workload kind in matrix grid");
  spec.workload.kind = *k;  // knobs (repeats, posts, ...) kept from base
  spec.name = base.name + "/" + device + "/" + network + "/" + workload;
  return spec;
}

ScenarioSpec grid_stress_spec() {
  std::string error;
  const std::optional<ScenarioSpec> parsed = ScenarioSpec::from_json(R"json({
    "name": "grid_stress",
    "seed": 1,
    "cache": {
      "cache": {"capacity_bytes": 4000000, "default_ttl_ms": 8000},
      "prefetch": {"enabled": true, "max_bytes_per_plan": 400000}
    },
    "overload": {
      "admission": {
        "global_rate_per_s": 60, "global_burst": 24,
        "session_rate_per_s": 60, "session_burst": 24,
        "max_inflight_upstream": 12, "max_dispatch_queue": 48
      }
    }
  })json", &error);
  MFHTTP_CHECK_MSG(parsed.has_value(), "built-in grid_stress spec is invalid");
  return *parsed;
}

std::vector<ScenarioSpec> grid_cells(const ScenarioSpec& base,
                                     const GridAxes& axes) {
  std::vector<ScenarioSpec> cells;
  for (const std::string& d : axes.devices)
    for (const std::string& n : axes.networks)
      for (const std::string& w : axes.workloads)
        cells.push_back(cell_spec(base, d, n, w));
  ScenarioSpec paper = ScenarioSpec::paper_default();
  paper.workload.corpus_sites = base.workload.corpus_sites;
  paper.workload.repeats = base.workload.repeats;
  cells.push_back(cell_spec(paper, "phone_flagship", "wlan", "paper_corpus"));
  cells.push_back(cell_spec(paper, "phone_flagship", "wlan", "client_only"));
  return cells;
}

MatrixCellResult run_matrix_cell(const ScenarioSpec& spec) {
  const auto wall_start = std::chrono::steady_clock::now();
  MatrixCellResult out;
  out.scenario = spec.name;
  out.device = spec.device.name;
  out.network = spec.network.name;
  out.workload = workload_kind_name(spec.workload.kind);
  switch (spec.workload.kind) {
    case WorkloadKind::kPaperCorpus:
    case WorkloadKind::kClientOnly:
      run_browsing_cell(spec, &out);
      break;
    case WorkloadKind::kSocialFeed:
      run_feed_cell(spec, &out);
      break;
    case WorkloadKind::kTiledVideo:
      run_video_cell(spec, &out);
      break;
  }
  out.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - wall_start)
                    .count();
  return out;
}

std::string MatrixCellResult::deterministic_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("scenario").value(scenario);
  w.key("device").value(device);
  w.key("network").value(network);
  w.key("workload").value(workload);
  w.key("sessions").value(sessions);
  w.key("qoe").value(qoe);
  w.key("viewport_p99_ms").value(static_cast<long long>(viewport_p99_ms));
  w.key("goodput_bytes_per_s").value(goodput_bytes_per_s);
  w.key("shed_rate").value(shed_rate);
  w.key("cache_hit_ratio").value(cache_hit_ratio);
  w.key("fingerprint").value(static_cast<unsigned long long>(fingerprint));
  w.end_object();
  return w.str();
}

}  // namespace mfhttp::scenario
