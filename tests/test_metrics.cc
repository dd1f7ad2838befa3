// Tests for the obs metrics registry: counter/gauge/histogram semantics,
// bucket boundaries, snapshot JSON shape, the shared CLI flag extraction
// (--metrics-json via util/cli_options.h), and the instrumentation wired
// through the Middleware assembly.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/middleware.h"
#include "gesture/synthetic.h"
#include "obs/metrics.h"
#include "util/cli_options.h"
#include "util/json.h"

namespace mfhttp {
namespace {

// The registry is process-global; every test starts from zeroed values.
class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::metrics().reset(); }
};

// ---------- Counter / Gauge ----------

TEST_F(MetricsTest, CounterIncrementsAndResets) {
  obs::Counter& c = obs::metrics().counter("test.counter");
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  EXPECT_EQ(obs::metrics().counter_value("test.counter"), 42u);
  obs::metrics().reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST_F(MetricsTest, CounterReferenceIsStableAcrossLookups) {
  obs::Counter& a = obs::metrics().counter("test.stable");
  obs::Counter& b = obs::metrics().counter("test.stable");
  EXPECT_EQ(&a, &b);
  a.inc();
  EXPECT_EQ(b.value(), 1u);
}

TEST_F(MetricsTest, GaugeTracksLevel) {
  obs::Gauge& g = obs::metrics().gauge("test.gauge");
  g.add(5);
  g.sub(2);
  EXPECT_EQ(g.value(), 3);
  g.set(-7);
  EXPECT_EQ(g.value(), -7);
  EXPECT_EQ(obs::metrics().gauge_value("test.gauge"), -7);
}

TEST_F(MetricsTest, UnregisteredNamesReadZero) {
  EXPECT_EQ(obs::metrics().counter_value("test.never_registered"), 0u);
  EXPECT_EQ(obs::metrics().gauge_value("test.never_registered"), 0);
  EXPECT_EQ(obs::metrics().find_histogram("test.never_registered"), nullptr);
}

// ---------- Histogram ----------

TEST_F(MetricsTest, HistogramBucketBoundariesAreInclusive) {
  obs::Histogram& h =
      obs::metrics().histogram("test.hist", std::vector<double>{1.0, 10.0, 100.0});
  // "le" semantics: each observation lands in the first bucket with v <= bound.
  h.observe(0.5);    // bucket 0
  h.observe(1.0);    // bucket 0 (boundary is inclusive)
  h.observe(1.001);  // bucket 1
  h.observe(10.0);   // bucket 1
  h.observe(100.0);  // bucket 2
  h.observe(100.1);  // overflow
  h.observe(1e9);    // overflow
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 2u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 2u);  // overflow bucket at bounds().size()
  EXPECT_EQ(h.count(), 7u);
  EXPECT_NEAR(h.sum(), 0.5 + 1.0 + 1.001 + 10.0 + 100.0 + 100.1 + 1e9, 1e-6);
  EXPECT_NEAR(h.mean(), h.sum() / 7.0, 1e-9);
}

TEST_F(MetricsTest, HistogramResetZeroesBucketsAndSum) {
  obs::Histogram& h =
      obs::metrics().histogram("test.hist_reset", std::vector<double>{1.0});
  h.observe(0.5);
  h.observe(2.0);
  obs::metrics().reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0.0);
  EXPECT_EQ(h.bucket_count(0), 0u);
  EXPECT_EQ(h.bucket_count(1), 0u);
  // Bounds survive a reset; only values are zeroed.
  EXPECT_EQ(h.bounds(), std::vector<double>{1.0});
}

TEST_F(MetricsTest, HistogramBoundsFixedByFirstRegistration) {
  obs::Histogram& a =
      obs::metrics().histogram("test.hist_bounds", std::vector<double>{1.0, 2.0});
  obs::Histogram& b = obs::metrics().histogram("test.hist_bounds");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.bounds(), (std::vector<double>{1.0, 2.0}));
}

TEST_F(MetricsTest, BoundGenerators) {
  EXPECT_EQ(obs::exponential_bounds(1.0, 2.0, 4),
            (std::vector<double>{1.0, 2.0, 4.0, 8.0}));
  EXPECT_EQ(obs::linear_bounds(0.0, 1.0, 3), (std::vector<double>{0.0, 1.0, 2.0}));
  // Default latency bounds are strictly ascending (valid histogram bounds).
  const std::vector<double>& lat = obs::latency_ms_bounds();
  ASSERT_GT(lat.size(), 1u);
  for (std::size_t i = 1; i < lat.size(); ++i) EXPECT_LT(lat[i - 1], lat[i]);
}

// ---------- Snapshot JSON ----------

TEST_F(MetricsTest, SnapshotJsonShape) {
  obs::metrics().counter("test.snap_counter").inc(3);
  obs::metrics().gauge("test.snap_gauge").set(-2);
  obs::Histogram& h =
      obs::metrics().histogram("test.snap_hist", std::vector<double>{1.0, 2.0});
  h.observe(0.5);
  h.observe(99.0);

  const std::string json = obs::metrics().snapshot_json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"test.snap_counter\":3"), std::string::npos);
  EXPECT_NE(json.find("\"test.snap_gauge\":-2"), std::string::npos);
  // Histogram entry carries count, sum, and per-bucket "le" bounds; the
  // overflow bucket's bound serializes as null.
  EXPECT_NE(json.find("\"test.snap_hist\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":2"), std::string::npos);
  EXPECT_NE(json.find("\"le\":null"), std::string::npos);
}

TEST_F(MetricsTest, SnapshotMatchesHandWrittenWriter) {
  // write_snapshot into a caller-supplied writer == snapshot_json round-trip.
  obs::metrics().counter("test.rt").inc(7);
  JsonWriter w;
  obs::metrics().write_snapshot(w);
  EXPECT_EQ(w.str(), obs::metrics().snapshot_json());
}

// ---------- --metrics-json flag extraction ----------

// argv must be mutable (main()'s is); build it from owned strings.
struct Argv {
  explicit Argv(std::vector<std::string> args) : storage(std::move(args)) {
    for (std::string& a : storage) ptrs.push_back(a.data());
    ptrs.push_back(nullptr);
    argc = static_cast<int>(storage.size());
  }
  char** data() { return ptrs.data(); }
  std::vector<std::string> storage;
  std::vector<char*> ptrs;
  int argc = 0;
};

TEST_F(MetricsTest, ExtractFlagWithSeparateValue) {
  Argv a({"prog", "--foo", "--metrics-json", "/tmp/m.json", "bar"});
  std::string path;
  CliOptions options("prog");
  options.add_string("--metrics-json", "path", "snapshot path", &path);
  ASSERT_TRUE(options.parse(a.argc, a.data()));
  EXPECT_EQ(path, "/tmp/m.json");
  ASSERT_EQ(a.argc, 3);
  EXPECT_STREQ(a.data()[0], "prog");
  EXPECT_STREQ(a.data()[1], "--foo");
  EXPECT_STREQ(a.data()[2], "bar");
}

TEST_F(MetricsTest, ExtractFlagWithEqualsValue) {
  Argv a({"prog", "--metrics-json=/tmp/m.json"});
  std::string path;
  CliOptions options("prog");
  options.add_string("--metrics-json", "path", "snapshot path", &path);
  ASSERT_TRUE(options.parse(a.argc, a.data()));
  EXPECT_EQ(path, "/tmp/m.json");
  EXPECT_EQ(a.argc, 1);
}

TEST_F(MetricsTest, ExtractFlagAbsentLeavesArgvAlone) {
  Argv a({"prog", "--unregistered=all"});
  std::string path;
  CliOptions options("prog");
  options.add_string("--metrics-json", "path", "snapshot path", &path);
  ASSERT_TRUE(options.parse(a.argc, a.data()));
  EXPECT_EQ(path, "");
  EXPECT_EQ(a.argc, 2);
}

TEST(CliOptions, PositiveSizeParsesCountsAndLists) {
  EXPECT_EQ(CliOptions::positive_size("--sessions", "1"), 1u);
  EXPECT_EQ(CliOptions::positive_size("--sessions", "16"), 16u);
  EXPECT_EQ(CliOptions::positive_size_list("--workers", "1,2,4"),
            (std::vector<std::size_t>{1, 2, 4}));
  EXPECT_EQ(CliOptions::positive_size_list("--workers", "3"),
            (std::vector<std::size_t>{3}));
}

// strtoul would take "-1" as SIZE_MAX and clamp overflow with only errno
// set; both, and zero, empty input and an empty list element, exit 2.
TEST(CliOptionsDeathTest, PositiveSizeRejectsBadCounts) {
  for (const char* bad : {"-1", "0", "18446744073709551616", "3,", ""}) {
    EXPECT_EXIT(CliOptions::positive_size("--sessions", bad),
                testing::ExitedWithCode(2), "error: --sessions");
    EXPECT_EXIT(CliOptions::positive_size_list("--workers", bad),
                testing::ExitedWithCode(2), "error: --workers");
  }
}

// ---------- Middleware integration ----------

TEST_F(MetricsTest, MiddlewareGestureIncrementsPipelineCounters) {
  const DeviceProfile device = DeviceProfile::nexus6();
  const Rect viewport{0, 0, 1440, 2560};
  Middleware::Params params;
  params.tracker.scroll = ScrollConfig(device);
  params.tracker.coverage_step_ms = 4.0;
  params.tracker.content_bounds = Rect{0, 0, 1440, 40'000};
  params.initial_viewport = viewport;

  std::vector<MediaObject> objects;
  for (int i = 0; i < 20; ++i)
    objects.push_back(make_single_version_object(
        "o" + std::to_string(i), Rect{100, i * 600.0, 800, 400}, 50'000, "u"));
  Middleware mw(params, objects, BandwidthTrace::constant(1e6),
                nullptr);

  Gesture g;
  g.kind = GestureKind::kFling;
  g.down_time_ms = 850;
  g.up_time_ms = 1000;
  g.down_pos = {700, 1800};
  g.up_pos = {700, 1800};
  g.release_velocity = {0, -4000};
  mw.on_gesture(g);

  // One gesture walks the whole pipeline: monitor -> tracker -> optimizer.
  obs::Registry& reg = obs::metrics();
  EXPECT_EQ(reg.counter_value("core.middleware.gestures_total"), 1u);
  EXPECT_EQ(reg.counter_value("core.middleware.scrolls_total"), 1u);
  EXPECT_EQ(reg.counter_value("core.tracker.predictions_total"), 1u);
  EXPECT_EQ(reg.counter_value("core.tracker.analyses_total"), 1u);
  EXPECT_EQ(reg.counter_value("core.flow.policies_total"), 1u);
  EXPECT_GT(reg.counter_value("core.flow.objects_allowed_total"), 0u);
  const obs::Histogram* solve = reg.find_histogram("core.flow.solve_ms");
  ASSERT_NE(solve, nullptr);
  EXPECT_EQ(solve->count(), 1u);

  // A second fling mid-animation inherits flywheel velocity.
  Gesture g2 = g;
  g2.down_time_ms = 1150;
  g2.up_time_ms = 1300;
  mw.on_gesture(g2);
  EXPECT_EQ(reg.counter_value("core.middleware.gestures_total"), 2u);
  EXPECT_EQ(reg.counter_value("core.middleware.flywheel_inherits_total"), 1u);
}

}  // namespace
}  // namespace mfhttp
