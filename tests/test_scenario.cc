// Tests for the unified scenario subsystem (DESIGN.md §16): ScenarioSpec
// JSON round-trip and diagnostics, the device/network/workload registries,
// handover compilation into fault plans, paper-default equivalence of the
// scenario wiring with the hand-built fig7 harness, matrix-cell
// determinism across worker counts, scenario_matrix's reduced default grid
// row by row and the subsystems its counters cover, the dynamic-feed append
// path, and the --scenario flag on cli::StandardOptions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cli/standard_options.h"
#include "core/middleware.h"
#include "fault/fault_plan.h"
#include "feed/feed_experiment.h"
#include "gesture/synthetic.h"
#include "obs/metrics.h"
#include "scenario/matrix.h"
#include "scenario/scenario_spec.h"
#include "scenario/wiring.h"
#include "sim/parallel_runner.h"
#include "util/json.h"
#include "util/strings.h"
#include "web/corpus.h"
#include "web/experiment.h"

namespace mfhttp {
namespace {

using scenario::DeviceClassSpec;
using scenario::NetworkProfileSpec;
using scenario::ScenarioSpec;
using scenario::WorkloadKind;

std::string write_temp(const std::string& name, const std::string& body) {
  std::string path = testing::TempDir() + name;
  std::ofstream out(path);
  out << body;
  return path;
}

// ---------- registries ----------

TEST(ScenarioRegistry, AllDeviceClassesResolve) {
  for (const char* name :
       {"phone_flagship", "phone_midrange", "phone_lowend", "tablet10"}) {
    auto d = DeviceClassSpec::named(name);
    ASSERT_TRUE(d.has_value()) << name;
    EXPECT_EQ(d->name, name);
    EXPECT_GT(d->profile.screen_w_px, 0);
    EXPECT_GT(d->max_speed_px_s, d->swipe_speed_base_px_s);
  }
  EXPECT_FALSE(DeviceClassSpec::named("phone_imaginary").has_value());
}

TEST(ScenarioRegistry, AllNetworkProfilesResolve) {
  for (const char* name : {"wlan", "lte", "umts3g", "nr5g"}) {
    auto n = NetworkProfileSpec::named(name);
    ASSERT_TRUE(n.has_value()) << name;
    EXPECT_EQ(n->name, name);
    EXPECT_GT(n->client_bandwidth, 0);
  }
  EXPECT_FALSE(NetworkProfileSpec::named("carrier_pigeon").has_value());
  // The cellular profiles ship handover gaps; wlan must not.
  EXPECT_TRUE(NetworkProfileSpec::named("lte")->has_handover());
  EXPECT_TRUE(NetworkProfileSpec::named("umts3g")->has_handover());
  EXPECT_FALSE(NetworkProfileSpec::named("wlan")->has_handover());
}

TEST(ScenarioRegistry, WorkloadKindNamesRoundTrip) {
  for (WorkloadKind kind :
       {WorkloadKind::kPaperCorpus, WorkloadKind::kClientOnly,
        WorkloadKind::kSocialFeed, WorkloadKind::kTiledVideo}) {
    auto back = scenario::workload_kind_from_name(workload_kind_name(kind));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, kind);
  }
  EXPECT_FALSE(scenario::workload_kind_from_name("mining").has_value());
}

TEST(ScenarioRegistry, ClientTraceIsSeededAndDeterministic) {
  auto lte = NetworkProfileSpec::named("lte");
  ASSERT_TRUE(lte.has_value());
  BandwidthTrace a = lte->client_trace(7, 30'000);
  BandwidthTrace b = lte->client_trace(7, 30'000);
  BandwidthTrace c = lte->client_trace(8, 30'000);
  bool differs_from_other_seed = false;
  for (TimeMs t = 0; t < 30'000; t += 500) {
    EXPECT_DOUBLE_EQ(a.rate_at(t), b.rate_at(t));
    if (a.rate_at(t) != c.rate_at(t)) differs_from_other_seed = true;
  }
  EXPECT_TRUE(differs_from_other_seed);
  // Constant profiles ignore the seed entirely.
  auto wlan = NetworkProfileSpec::named("wlan");
  EXPECT_DOUBLE_EQ(wlan->client_trace(1, 30'000).rate_at(12'345),
                   wlan->client_bandwidth);
}

// ---------- parsing, round-trip, diagnostics ----------

TEST(ScenarioSpecJson, PaperDefaultRoundTrips) {
  ScenarioSpec spec = ScenarioSpec::paper_default();
  std::string error;
  auto back = ScenarioSpec::from_json(spec.to_json(), &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(back->to_json(), spec.to_json());
  EXPECT_EQ(back->name, "paper_default");
  EXPECT_EQ(back->device.name, "phone_flagship");
  EXPECT_EQ(back->network.name, "wlan");
  EXPECT_EQ(back->workload.kind, WorkloadKind::kPaperCorpus);
}

TEST(ScenarioSpecJson, FullyLoadedSpecRoundTrips) {
  const char* doc = R"({
    "name": "kitchen_sink", "seed": 99,
    "device": {"class": "phone_lowend", "fling_friction_scale": 1.5,
               "max_speed_px_s": 8500},
    "network": {"profile": "lte", "client_bandwidth": 900000,
                "handover_period_ms": 9000, "handover_gap_ms": 700,
                "handover_count": 2},
    "workload": {"kind": "social_feed", "repeats": 5, "feed_posts": 80,
                 "append_posts_per_fling": 10},
    "fault": {"seed": 3, "link": [
      {"kind": "outage", "at_ms": 2000, "duration_ms": 300}]},
    "cache": {"cache": {"capacity_bytes": 1000000}},
    "overload": {"admission": {"global_rate_per_s": 50}}
  })";
  std::string error;
  auto spec = ScenarioSpec::from_json(doc, &error);
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_EQ(spec->device.name, "phone_lowend");
  EXPECT_DOUBLE_EQ(spec->device.fling_friction_scale, 1.5);
  EXPECT_DOUBLE_EQ(spec->device.max_speed_px_s, 8500);
  EXPECT_DOUBLE_EQ(spec->network.client_bandwidth, 900000);
  EXPECT_EQ(spec->workload.kind, WorkloadKind::kSocialFeed);
  EXPECT_EQ(spec->workload.feed_posts, 80);
  ASSERT_TRUE(spec->fault.has_value());
  ASSERT_TRUE(spec->cache.has_value());
  EXPECT_EQ(spec->cache->cache.capacity_bytes, 1000000u);
  ASSERT_TRUE(spec->overload.has_value());

  // Round-trip through to_json preserves every section.
  auto back = ScenarioSpec::from_json(spec->to_json(), &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(back->to_json(), spec->to_json());
}

TEST(ScenarioSpecJson, UnknownKeysAreNamedWithTheirSection) {
  std::string error;
  EXPECT_FALSE(ScenarioSpec::from_json(
                   R"({"device": {"class": "tablet10", "flingg": 1}})", &error)
                   .has_value());
  EXPECT_NE(error.find("'device'"), std::string::npos) << error;
  EXPECT_NE(error.find("unknown key 'flingg'"), std::string::npos) << error;

  EXPECT_FALSE(
      ScenarioSpec::from_json(R"({"wokload": {}})", &error).has_value());
  EXPECT_NE(error.find("unknown key 'wokload'"), std::string::npos) << error;

  // Fields the schema no longer has are unknown keys like any other.
  EXPECT_FALSE(ScenarioSpec::from_json(
                   R"({"device": {"mean_speed_px_s": 2500}})", &error)
                   .has_value());
  EXPECT_NE(error.find("unknown key 'mean_speed_px_s'"), std::string::npos)
      << error;
  EXPECT_FALSE(ScenarioSpec::from_json(
                   R"({"workload": {"gestures_per_session": 10}})", &error)
                   .has_value());
  EXPECT_NE(error.find("unknown key 'gestures_per_session'"),
            std::string::npos)
      << error;
}

TEST(ScenarioSpecJson, EmbeddedSectionErrorsKeepTheirDiagnostics) {
  std::string error;
  EXPECT_FALSE(ScenarioSpec::from_json(
                   R"({"cache": {"cache": {"capacity_bytez": 5}}})", &error)
                   .has_value());
  EXPECT_NE(error.find("in 'cache'"), std::string::npos) << error;
  EXPECT_NE(error.find("capacity_bytez"), std::string::npos) << error;
}

TEST(ScenarioSpecJson, MalformedJsonReportsLineAndColumn) {
  std::string error;
  EXPECT_FALSE(ScenarioSpec::from_json("{\n  \"name\": oops\n}", &error)
                   .has_value());
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  EXPECT_NE(error.find("column"), std::string::npos) << error;
}

TEST(ScenarioSpecJson, UnknownRegistryNamesFail) {
  std::string error;
  EXPECT_FALSE(
      ScenarioSpec::from_json(R"({"device": {"class": "vr_headset"}})", &error)
          .has_value());
  EXPECT_NE(error.find("vr_headset"), std::string::npos) << error;
  EXPECT_FALSE(
      ScenarioSpec::from_json(R"({"network": {"profile": "dialup"}})", &error)
          .has_value());
  EXPECT_NE(error.find("dialup"), std::string::npos) << error;
  EXPECT_FALSE(
      ScenarioSpec::from_json(R"({"workload": {"kind": "crypto"}})", &error)
          .has_value());
  EXPECT_NE(error.find("crypto"), std::string::npos) << error;
}

// ---------- handover compilation ----------

TEST(ScenarioFaultPlan, NoSectionsMeansNoPlan) {
  EXPECT_FALSE(ScenarioSpec::paper_default().compiled_fault_plan().has_value());
}

TEST(ScenarioFaultPlan, HandoverCompilesToRepeatedOutage) {
  ScenarioSpec spec = ScenarioSpec::paper_default();
  spec.network = *NetworkProfileSpec::named("umts3g");
  auto plan = spec.compiled_fault_plan();
  ASSERT_TRUE(plan.has_value());
  ASSERT_EQ(plan->link.size(), 1u);
  const fault::LinkFaultWindow& w = plan->link[0];
  EXPECT_EQ(w.kind, fault::LinkFaultWindow::Kind::kOutage);
  EXPECT_EQ(w.at_ms, spec.network.handover_first_ms);
  EXPECT_EQ(w.duration_ms, spec.network.handover_gap_ms);
  EXPECT_EQ(w.repeat, spec.network.handover_count);
  EXPECT_EQ(w.period_ms, spec.network.handover_period_ms);
  // The outage really is an outage at its first occurrence.
  EXPECT_TRUE(plan->in_outage(spec.network.handover_first_ms + 1));
}

TEST(ScenarioFaultPlan, HandoverMergesIntoExplicitFaultSection) {
  std::string error;
  auto spec = ScenarioSpec::from_json(
      R"({"network": {"profile": "lte"},
          "fault": {"seed": 5, "link": [
            {"kind": "latency_spike", "at_ms": 100, "duration_ms": 50,
             "extra_latency_ms": 20}]}})",
      &error);
  ASSERT_TRUE(spec.has_value()) << error;
  auto plan = spec->compiled_fault_plan();
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->seed, 5u);  // the explicit section keeps its seed
  ASSERT_EQ(plan->link.size(), 2u);
  EXPECT_EQ(plan->link[1].kind, fault::LinkFaultWindow::Kind::kOutage);
}

// ---------- scenario wiring ----------

TEST(ScenarioWiring, PaperDefaultBrowsingConfigMatchesFig7Harness) {
  const ScenarioSpec spec = ScenarioSpec::paper_default();
  const DeviceProfile device = DeviceProfile::nexus6();
  Rng rng(42);
  auto corpus = generate_corpus(device, rng);
  ASSERT_GE(corpus.size(), 2u);

  for (std::size_t p = 0; p < 2; ++p) {
    const WebPage& page = corpus[p];
    for (int session = 0; session < 2; ++session) {
      // The hand-built fig7 config (bench/fig7_viewport_load_time.cc).
      BrowsingSessionConfig hand;
      hand.device = device;
      hand.fill_sample_ms = 0;
      hand.seed = 1000 + static_cast<std::uint64_t>(page.site.size()) +
                  static_cast<std::uint64_t>(session) * 7919;
      hand.swipe_speed_px_s = 3000 + 2500 * session;

      BrowsingSessionConfig wired =
          scenario::browsing_config(spec, page, session);
      EXPECT_EQ(wired.seed, hand.seed);
      EXPECT_DOUBLE_EQ(wired.swipe_speed_px_s, hand.swipe_speed_px_s);
      EXPECT_DOUBLE_EQ(wired.client_bandwidth, hand.client_bandwidth);
      EXPECT_EQ(wired.client_latency_ms, hand.client_latency_ms);
      EXPECT_DOUBLE_EQ(wired.server_bandwidth, hand.server_bandwidth);
      EXPECT_EQ(wired.fill_sample_ms, hand.fill_sample_ms);
      EXPECT_TRUE(wired.enable_mfhttp);
      EXPECT_FALSE(wired.client_bandwidth_trace.has_value());
      EXPECT_FALSE(wired.enable_cache);

      // And the sessions they drive are byte-identical.
      BrowsingSessionResult a = run_browsing_session(page, hand);
      BrowsingSessionResult b = run_browsing_session(page, wired);
      EXPECT_EQ(a.initial_viewport_load_ms, b.initial_viewport_load_ms);
      EXPECT_EQ(a.final_viewport_load_ms, b.final_viewport_load_ms);
      EXPECT_EQ(a.bytes_downloaded, b.bytes_downloaded);
      EXPECT_EQ(a.images_completed, b.images_completed);
    }
  }
}

TEST(ScenarioWiring, ClientOnlyWorkloadDisablesMfhttp) {
  ScenarioSpec spec = ScenarioSpec::paper_default();
  spec.workload.kind = WorkloadKind::kClientOnly;
  const DeviceProfile device = DeviceProfile::nexus6();
  Rng rng(42);
  auto corpus = generate_corpus(device, rng);
  EXPECT_FALSE(scenario::browsing_config(spec, corpus[0], 0).enable_mfhttp);
}

TEST(ScenarioWiring, FeedFlingSpeedCapsAtDeviceMax) {
  for (const char* name :
       {"phone_flagship", "phone_midrange", "phone_lowend", "tablet10"}) {
    ScenarioSpec spec = ScenarioSpec::paper_default();
    spec.device = *DeviceClassSpec::named(name);
    const double base = 2.5 * spec.device.swipe_speed_base_px_s;
    ASSERT_LT(base, spec.device.max_speed_px_s) << name;
    EXPECT_DOUBLE_EQ(scenario::feed_config(spec, 0, nullptr).fling_speed_px_s,
                     base)
        << name;
    for (int repeat : {1, 2, 5})
      EXPECT_DOUBLE_EQ(
          scenario::feed_config(spec, repeat, nullptr).fling_speed_px_s,
          spec.device.max_speed_px_s)
          << name << " repeat " << repeat;
  }
}

// ---------- matrix cells ----------

ScenarioSpec tiny_cell(const std::string& workload,
                       const std::string& device = "phone_flagship") {
  ScenarioSpec base = ScenarioSpec::paper_default();
  base.workload.repeats = 1;
  base.workload.corpus_sites = 2;
  base.workload.feed_posts = 24;
  base.workload.feed_flings = 2;
  base.workload.append_posts_per_fling = 6;
  base.workload.video_segments = 8;
  return scenario::cell_spec(base, device, "wlan", workload);
}

TEST(ScenarioMatrix, CellSpecStampsIdentityAndKeepsKnobs) {
  ScenarioSpec cell = tiny_cell("social_feed");
  EXPECT_EQ(cell.device.name, "phone_flagship");
  EXPECT_EQ(cell.network.name, "wlan");
  EXPECT_EQ(cell.workload.kind, WorkloadKind::kSocialFeed);
  EXPECT_EQ(cell.workload.feed_posts, 24);  // base knobs survive the swap
  EXPECT_NE(cell.name.find("social_feed"), std::string::npos);
}

TEST(ScenarioMatrix, CellsAreDeterministicAcrossWorkerCounts) {
  // Eight cells, so that at 8 workers every worker runs one at once.
  std::vector<ScenarioSpec> cells;
  for (const char* device :
       {"phone_flagship", "phone_midrange", "phone_lowend", "tablet10"})
    for (const char* workload : {"paper_corpus", "social_feed"})
      cells.push_back(tiny_cell(workload, device));
  std::string serial;
  for (std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    std::vector<scenario::MatrixCellResult> results(cells.size());
    sim::ParallelRunner runner(workers);
    runner.run(cells.size(), [&](std::size_t i) {
      results[i] = scenario::run_matrix_cell(cells[i]);
    });
    std::string doc;
    for (const auto& r : results) doc += r.deterministic_json();
    if (workers == 1) serial = doc;
    EXPECT_EQ(doc, serial) << "workers " << workers;
  }
  EXPECT_FALSE(serial.empty());
}

TEST(ScenarioMatrix, VideoCellProducesLoadTimes) {
  scenario::MatrixCellResult r =
      scenario::run_matrix_cell(tiny_cell("tiled_video"));
  EXPECT_EQ(r.sessions, 1u);
  EXPECT_GT(r.qoe, 0);
  EXPECT_LE(r.qoe, 1.0);
  EXPECT_GT(r.viewport_p99_ms, 0);
  EXPECT_GT(r.goodput_bytes_per_s, 0);
  EXPECT_NE(r.fingerprint, 0u);
}

// ---------- scenario_matrix's reduced default grid ----------

// One row per cell of `scenario_matrix --sites 6 --repeats 1` over the
// built-in grid_stress base: scenario, sessions, viewport P99 (ms),
// fingerprint, then QoE, goodput (B/s), shed rate and cache hit ratio at
// %.12g. Every column is a pure function of the spec.
constexpr const char* kReducedGridGolden = R"(
grid_stress/phone_flagship/wlan/paper_corpus 6 312 8113602749657646811 0.771048132382 7190.83055556 0 0
grid_stress/phone_flagship/wlan/client_only 6 312 8113602749657646811 0.771048132382 7190.83055556 0 0
grid_stress/phone_flagship/wlan/social_feed 1 -1 13114934225118867430 0.6 275435.033333 0 0
grid_stress/phone_flagship/wlan/tiled_video 1 4370 6381267270318175689 1 290261.733333 0 0
grid_stress/phone_flagship/lte/paper_corpus 6 510 16076784328218734039 0.683123756063 7190.83055556 0 0
grid_stress/phone_flagship/lte/client_only 6 510 16076784328218734039 0.683123756063 7190.83055556 0 0
grid_stress/phone_flagship/lte/social_feed 1 -1 3683278333260613808 0.2 275435.033333 0 0
grid_stress/phone_flagship/lte/tiled_video 1 5975 18089418855539703605 1 290261.733333 0 0
grid_stress/phone_flagship/umts3g/paper_corpus 6 2560 18276942535754289287 0.326073709391 7190.83055556 0 0
grid_stress/phone_flagship/umts3g/client_only 6 2560 18276942535754289287 0.326073709391 7190.83055556 0 0
grid_stress/phone_flagship/umts3g/social_feed 1 -1 12611344243064190490 0 236552.133333 0 0
grid_stress/phone_flagship/umts3g/tiled_video 1 29955 7269846754837751595 0.688888888889 199664.333333 0 0
grid_stress/phone_lowend/wlan/paper_corpus 6 312 8113602749657646811 0.771048132382 7190.83055556 0 0
grid_stress/phone_lowend/wlan/client_only 6 312 8113602749657646811 0.771048132382 7190.83055556 0 0
grid_stress/phone_lowend/wlan/social_feed 1 -1 1370205750749034408 1 213582.166667 0 0
grid_stress/phone_lowend/wlan/tiled_video 1 4470 12130842955864167740 1 296790.733333 0 0
grid_stress/phone_lowend/lte/paper_corpus 6 510 16076784328218734039 0.683123756063 7190.83055556 0 0
grid_stress/phone_lowend/lte/client_only 6 510 16076784328218734039 0.683123756063 7190.83055556 0 0
grid_stress/phone_lowend/lte/social_feed 1 -1 12774882726741544630 0 213582.166667 0 0
grid_stress/phone_lowend/lte/tiled_video 1 6085 12094099473874475253 1 296790.733333 0 0
grid_stress/phone_lowend/umts3g/paper_corpus 6 2560 18276942535754289287 0.326073709391 7190.83055556 0 0
grid_stress/phone_lowend/umts3g/client_only 6 2560 18276942535754289287 0.326073709391 7190.83055556 0 0
grid_stress/phone_lowend/umts3g/social_feed 1 -1 9344351336187837251 0 200760.433333 0 0
grid_stress/phone_lowend/umts3g/tiled_video 1 29820 10836094118425487382 0.689655172414 198723.3 0 0
grid_stress/tablet10/wlan/paper_corpus 6 312 8113602749657646811 0.771048132382 7190.83055556 0 0
grid_stress/tablet10/wlan/client_only 6 312 8113602749657646811 0.771048132382 7190.83055556 0 0
grid_stress/tablet10/wlan/social_feed 1 -1 7609776871508891647 1 368113.266667 0 0
grid_stress/tablet10/wlan/tiled_video 1 4325 16426188092599890246 1 287082.2 0 0
grid_stress/tablet10/lte/paper_corpus 6 510 16076784328218734039 0.683123756063 7190.83055556 0 0
grid_stress/tablet10/lte/client_only 6 510 16076784328218734039 0.683123756063 7190.83055556 0 0
grid_stress/tablet10/lte/social_feed 1 -1 15383419967003743974 0.25 368113.266667 0 0
grid_stress/tablet10/lte/tiled_video 1 5930 17352409626589189351 1 287082.2 0 0
grid_stress/tablet10/umts3g/paper_corpus 6 2560 18276942535754289287 0.326073709391 7190.83055556 0 0
grid_stress/tablet10/umts3g/client_only 6 2560 18276942535754289287 0.326073709391 7190.83055556 0 0
grid_stress/tablet10/umts3g/social_feed 1 -1 12443807450847858570 0 236552.133333 0 0
grid_stress/tablet10/umts3g/tiled_video 1 29820 6581644917055685478 0.708812260536 198717.8 0 0
paper_default/phone_flagship/wlan/paper_corpus 6 312 8113602749657646811 0.771048132382 7190.83055556 0 0
paper_default/phone_flagship/wlan/client_only 6 312 8113602749657646811 0.771048132382 7190.83055556 0 0
)";

std::string golden_line(const scenario::MatrixCellResult& r) {
  return strformat("%s %zu %lld %llu %.12g %.12g %.12g %.12g", r.scenario.c_str(),
                   r.sessions, static_cast<long long>(r.viewport_p99_ms),
                   static_cast<unsigned long long>(r.fingerprint), r.qoe,
                   r.goodput_bytes_per_s, r.shed_rate, r.cache_hit_ratio);
}

TEST(ScenarioMatrixGolden, ReducedGridRowsUnchanged) {
  ScenarioSpec base = scenario::grid_stress_spec();
  base.workload.repeats = 1;
  base.workload.corpus_sites = 6;
  const std::vector<ScenarioSpec> cells = scenario::grid_cells(base);

  std::istringstream golden(kReducedGridGolden);
  std::vector<std::string> want;
  for (std::string line; std::getline(golden, line);)
    if (!line.empty()) want.push_back(line);
  ASSERT_EQ(cells.size(), want.size());
  for (std::size_t i = 0; i < cells.size(); ++i)
    EXPECT_EQ(golden_line(scenario::run_matrix_cell(cells[i])), want[i]);
}

// Every subsystem the grid drives exports counters. The web ones are the
// block-list's, which a grid cell registers but never increments.
TEST(ScenarioMatrix, MetricsCoverEverySubsystem) {
  for (const char* workload : {"paper_corpus", "social_feed", "tiled_video"})
    scenario::run_matrix_cell(tiny_cell(workload));

  const std::optional<JsonValue> snapshot =
      parse_json(obs::metrics().snapshot_json());
  ASSERT_TRUE(snapshot.has_value());
  const JsonValue* counters = snapshot->find("counters");
  ASSERT_NE(counters, nullptr);
  std::set<std::string> subsystems;
  for (const auto& entry : counters->object_value)
    subsystems.insert(entry.first.substr(0, entry.first.find('.')));
  for (const char* want : {"core", "http", "net", "video", "web"})
    EXPECT_EQ(subsystems.count(want), 1u) << "no counter from " << want;
}

// ---------- dynamic feed appends ----------

TEST(MiddlewareAppend, AppendedObjectsJoinTheNextAnalysis) {
  const DeviceProfile device = DeviceProfile::nexus6();
  std::vector<MediaObject> objects;
  for (int i = 0; i < 4; ++i)
    objects.push_back(make_single_version_object(
        "img-" + std::to_string(i), Rect{100, i * 900.0, 800, 600}, 50'000,
        "http://feed.example/" + std::to_string(i) + ".jpg"));

  Middleware::Params mp;
  mp.tracker.scroll = ScrollConfig(device);
  mp.tracker.content_bounds = Rect{0, 0, 1440, 9 * 900.0};
  mp.initial_viewport = Rect{0, 0, device.screen_w_px, device.screen_h_px};
  Middleware middleware(mp, objects, BandwidthTrace::constant(2e6),
                        /*sim=*/nullptr);

  std::size_t last_max_listed = 0;  // highest object index the analysis lists
  middleware.set_policy_callback(
      [&](const ScrollAnalysis& analysis, const DownloadPolicy&) {
        last_max_listed = 0;
        for (const ObjectCoverage& c : analysis.listed)
          last_max_listed = std::max(last_max_listed, c.object_index);
      });

  Gesture fling;
  TouchEventMonitor monitor(device, [&](const Gesture& g) { fling = g; });
  SwipeSpec swipe;
  swipe.start = {700, 2000};
  swipe.direction = {0, -1};
  swipe.speed_px_s = 8000;
  monitor.feed(synthesize_swipe(swipe));

  middleware.on_gesture(fling);
  EXPECT_EQ(last_max_listed, 3u);

  // Grow the feed mid-scroll: existing indices must be untouched and the
  // appended tail must be analyzed from the very next gesture.
  // The middleware borrows `objects`: grow it, then say from where.
  for (int i = 4; i < 9; ++i)
    objects.push_back(make_single_version_object(
        "img-" + std::to_string(i), Rect{100, i * 900.0, 800, 600}, 50'000,
        "http://feed.example/" + std::to_string(i) + ".jpg"));
  middleware.append_objects(4);
  ASSERT_EQ(middleware.objects().size(), 9u);
  EXPECT_EQ(middleware.objects()[3].id, "img-3");
  EXPECT_EQ(middleware.objects()[8].id, "img-8");

  SwipeSpec swipe2 = swipe;
  monitor.feed(synthesize_swipe(swipe2));
  middleware.on_gesture(fling);
  EXPECT_GE(last_max_listed, 4u);  // an appended object took part
}

TEST(DynamicFeed, AppendingSessionIsDeterministicAndDownloads) {
  const DeviceProfile device = DeviceProfile::nexus6();
  FeedSpec fs;
  fs.post_count = 30;
  Rng rng(9);
  Feed feed = generate_feed(fs, device, rng);

  FeedSessionConfig cfg;
  cfg.device = device;
  cfg.seed = 3;
  cfg.fling_count = 3;
  cfg.initial_posts = 12;
  cfg.append_posts_per_fling = 6;

  FeedSessionResult a = run_feed_session(feed, cfg);
  FeedSessionResult b = run_feed_session(feed, cfg);
  EXPECT_EQ(a.bytes_downloaded, b.bytes_downloaded);
  EXPECT_EQ(a.clips_settled, b.clips_settled);
  EXPECT_EQ(a.clips_instant, b.clips_instant);
  EXPECT_GT(a.bytes_downloaded, 0u);
  // The dynamic session still scores settles — the appended posts were
  // reachable by later flings.
  EXPECT_GT(a.clips_settled, 0u);

  // A static run over the same feed moves at least as many bytes: the
  // dynamic arm can only see a subset of posts at each fling.
  FeedSessionConfig all = cfg;
  all.initial_posts = 0;
  all.append_posts_per_fling = 0;
  FeedSessionResult full = run_feed_session(feed, all);
  EXPECT_GE(full.bytes_downloaded, a.bytes_downloaded);
}

// ---------- cli::StandardOptions --scenario ----------

TEST(StandardOptionsScenario, LoadsSpecAndInstallsHandoverPlan) {
  const std::string path = write_temp(
      "scenario_opts.json",
      R"({"name": "cli_test", "network": {"profile": "umts3g"},
          "cache": {"cache": {"capacity_bytes": 777000}}})");
  std::string arg0 = "test", arg1 = "--scenario", arg2 = path;
  char* argv[] = {arg0.data(), arg1.data(), arg2.data(), nullptr};
  int argc = 3;
  {
    cli::StandardOptions opts(argc, argv);
    ASSERT_TRUE(opts.has_scenario());
    EXPECT_EQ(opts.scenario().name, "cli_test");
    EXPECT_EQ(opts.scenario().network.name, "umts3g");
    // The cache section becomes the effective cache config.
    EXPECT_TRUE(opts.has_cache_config());
    EXPECT_EQ(opts.cache_config().cache.capacity_bytes, 777000u);
    // The handover gaps became the ambient fault plan.
    ASSERT_NE(fault::global_plan(), nullptr);
    EXPECT_FALSE(fault::global_plan()->link.empty());
  }
  // RAII: the plan is uninstalled when the options object dies.
  EXPECT_EQ(fault::global_plan(), nullptr);
}

TEST(StandardOptionsScenario, UnknownFlagsExitTwo) {
  // The removed --fault-plan/--cache-config aliases and a misspelled
  // --metrics-json must stop the run, not fall through to a default one.
  for (const char* flag : {"--fault-plan", "--cache-config", "--metric-json"}) {
    std::string arg0 = "test", arg1 = flag, arg2 = "x";
    char* argv[] = {arg0.data(), arg1.data(), arg2.data(), nullptr};
    int argc = 3;
    EXPECT_EXIT({ cli::StandardOptions opts(argc, argv); },
                testing::ExitedWithCode(2),
                std::string("error: ") + flag + ": unknown flag");
  }
}

TEST(StandardOptionsScenario, PositionalArgumentSurvives) {
  std::string arg0 = "test", arg1 = "--transport", arg2 = "sim", arg3 = "sohu";
  char* argv[] = {arg0.data(), arg1.data(), arg2.data(), arg3.data(), nullptr};
  int argc = 4;
  cli::StandardOptions opts(argc, argv);
  ASSERT_EQ(argc, 2);
  EXPECT_STREQ(argv[1], "sohu");
  EXPECT_EQ(argv[2], nullptr);
}

TEST(StandardOptionsScenario, LossyCellularScenarioCompilesToBuiltinPlan) {
  // ctest's resilience_matrix_smoke runs resilience_matrix under this spec;
  // its ambient plan must be the canonical FaultPlan::lossy_cellular().
  std::string why;
  const auto spec = ScenarioSpec::load(
      std::string(MFHTTP_SOURCE_DIR) + "/bench/scenarios/lossy_cellular.json", &why);
  ASSERT_TRUE(spec.has_value()) << why;
  const std::optional<fault::FaultPlan> plan = spec->compiled_fault_plan();
  ASSERT_TRUE(plan.has_value());
  const fault::FaultPlan want = fault::FaultPlan::lossy_cellular();
  EXPECT_EQ(plan->name, want.name);
  EXPECT_EQ(plan->seed, want.seed);
  ASSERT_EQ(plan->link.size(), want.link.size());
  for (std::size_t i = 0; i < want.link.size(); ++i) {
    EXPECT_EQ(plan->link[i].kind, want.link[i].kind);
    EXPECT_EQ(plan->link[i].at_ms, want.link[i].at_ms);
    EXPECT_EQ(plan->link[i].duration_ms, want.link[i].duration_ms);
    EXPECT_EQ(plan->link[i].repeat, want.link[i].repeat);
    EXPECT_EQ(plan->link[i].period_ms, want.link[i].period_ms);
    EXPECT_EQ(plan->link[i].factor, want.link[i].factor);
    EXPECT_EQ(plan->link[i].extra_latency_ms, want.link[i].extra_latency_ms);
  }
  EXPECT_EQ(plan->transfer.stall_rate, want.transfer.stall_rate);
  EXPECT_EQ(plan->transfer.stall_ms, want.transfer.stall_ms);
  EXPECT_EQ(plan->transfer.stall_fraction, want.transfer.stall_fraction);
  EXPECT_EQ(plan->transfer.truncate_rate, want.transfer.truncate_rate);
  EXPECT_EQ(plan->transfer.truncate_fraction, want.transfer.truncate_fraction);
  EXPECT_EQ(plan->origin.error_rate, want.origin.error_rate);
  EXPECT_EQ(plan->origin.error_statuses, want.origin.error_statuses);
  EXPECT_EQ(plan->origin.error_delay_ms, want.origin.error_delay_ms);
  EXPECT_EQ(plan->origin.error_body_size, want.origin.error_body_size);
  EXPECT_EQ(plan->origin.abrupt_close_rate, want.origin.abrupt_close_rate);
  EXPECT_EQ(plan->origin.abrupt_close_fraction, want.origin.abrupt_close_fraction);
  // Everything else (front-door and socket sections) via the serializer.
  EXPECT_EQ(plan->to_json(), want.to_json());
}

}  // namespace
}  // namespace mfhttp
