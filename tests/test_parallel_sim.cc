// Tests for the parallel runner and the touch-to-policy hot-path
// optimizations (DESIGN.md §12):
//
//   * ParallelRunner — every task runs exactly once at any worker count,
//     workers=1 executes inline in index order, exceptions propagate;
//   * incremental knapsack — bit-identical to the base DP under random
//     instance mutations, with prefix/full reuse actually occurring;
//   * interval-indexed scroll analysis — field-identical to the linear scan;
//   * FlowController::replan — bit-identical to optimize();
//   * touch-to-policy golden folds — coverage, analysis and replan on the
//     densest corpus page reproduce their recorded fingerprints (§17.4);
//   * sharded obs counters — exact totals under concurrent increment;
//   * multi-session shards — per-session metrics sum to the batch totals
//     and repeat runs are byte-identical.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/flow_controller.h"
#include "core/knapsack.h"
#include "core/middleware.h"
#include "core/scroll_tracker.h"
#include "geom/swept_region.h"
#include "obs/metrics.h"
#include "scenario/scenario_spec.h"
#include "sim/multi_session.h"
#include "sim/parallel_runner.h"
#include "util/fnv.h"
#include "util/rng.h"
#include "web/corpus.h"

namespace mfhttp {
namespace {

// ---------- ParallelRunner ----------

TEST(ParallelRunner, RunsEveryTaskExactlyOnce) {
  for (std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    sim::ParallelRunner runner(workers);
    std::vector<std::atomic<int>> hits(100);
    for (auto& h : hits) h.store(0);
    runner.run(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i)
      EXPECT_EQ(hits[i].load(), 1) << "task " << i << " workers " << workers;
  }
}

TEST(ParallelRunner, SerialBaselineRunsInlineInIndexOrder) {
  sim::ParallelRunner runner(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  runner.run(16, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  ASSERT_EQ(order.size(), 16u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ParallelRunner, MoreWorkersThanTasksClampsCleanly) {
  sim::ParallelRunner runner(8);
  std::mutex mu;
  std::set<std::thread::id> threads;
  std::atomic<int> ran{0};
  runner.run(3, [&](std::size_t) {
    ran.fetch_add(1);
    std::lock_guard<std::mutex> lock(mu);
    threads.insert(std::this_thread::get_id());
  });
  EXPECT_EQ(ran.load(), 3);
  EXPECT_LE(threads.size(), 3u);
}

TEST(ParallelRunner, ZeroTasksIsANoop) {
  sim::ParallelRunner runner(4);
  runner.run(0, [&](std::size_t) { FAIL() << "no task should run"; });
}

TEST(ParallelRunner, StealingDrainsAnImbalancedBatch) {
  // One task (index 0) is much slower than the rest; with 2 workers the
  // other worker takes every remaining index from the shared counter while
  // the first is still busy.
  sim::ParallelRunner runner(2);
  std::vector<std::atomic<int>> hits(64);
  for (auto& h : hits) h.store(0);
  runner.run(hits.size(), [&](std::size_t i) {
    if (i == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ParallelRunner, FirstExceptionPropagatesToCaller) {
  for (std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    sim::ParallelRunner runner(workers);
    EXPECT_THROW(runner.run(8,
                            [&](std::size_t i) {
                              if (i == 3) throw std::runtime_error("boom");
                            }),
                 std::runtime_error)
        << "workers " << workers;
  }
}

// ---------- Incremental knapsack ----------

std::vector<KnapsackItem> random_instance(Rng& rng, int n, int m) {
  std::vector<KnapsackItem> items;
  Bytes cap = 0;
  for (int i = 0; i < n; ++i) {
    cap += rng.uniform_int(0, 4000);  // nondecreasing capacities
    KnapsackItem it;
    it.capacity = cap;
    Bytes w = rng.uniform_int(1, 3000);
    double v = rng.uniform(-0.3, 1.0);
    for (int j = 0; j < m; ++j) {
      it.weights.push_back(w);
      it.values.push_back(v);
      w += rng.uniform_int(1, 2500);
      v += rng.uniform(-0.2, 0.5);
    }
    items.push_back(std::move(it));
  }
  return items;
}

void expect_same_solution(const KnapsackSolution& a, const KnapsackSolution& b) {
  ASSERT_EQ(a.chosen.size(), b.chosen.size());
  for (std::size_t i = 0; i < a.chosen.size(); ++i)
    EXPECT_EQ(a.chosen[i], b.chosen[i]) << "item " << i;
  EXPECT_EQ(a.total_value, b.total_value);  // bit-identical, not just near
  EXPECT_EQ(a.total_weight, b.total_weight);
}

TEST(IncrementalKnapsack, MatchesBaseDpAcrossMutations) {
  Rng rng(11);
  KnapsackScratch scratch;
  const Bytes unit = 64;
  std::vector<KnapsackItem> items = random_instance(rng, 12, 3);
  for (int iter = 0; iter < 60; ++iter) {
    expect_same_solution(solve_prefix_knapsack_incremental(items, unit, &scratch),
                         solve_prefix_knapsack(items, unit));
    // Mutate: usually the tail (the touch-to-touch pattern), sometimes the
    // head or the whole instance.
    const double kind = rng.uniform(0, 1);
    if (kind < 0.5 && !items.empty()) {
      KnapsackItem& last = items.back();
      last.capacity += rng.uniform_int(0, 2000);
      last.values.back() += rng.uniform(-0.1, 0.3);
    } else if (kind < 0.7) {
      items = random_instance(rng, static_cast<int>(rng.uniform_int(1, 14)), 3);
    } else if (kind < 0.85 && items.size() > 1) {
      items.pop_back();
    } else {
      items.front().values.front() += rng.uniform(-0.2, 0.2);
    }
  }
}

TEST(IncrementalKnapsack, MatchesBruteforceOnSmallInstances) {
  Rng rng(13);
  KnapsackScratch scratch;
  for (int iter = 0; iter < 30; ++iter) {
    std::vector<KnapsackItem> items =
        random_instance(rng, static_cast<int>(rng.uniform_int(1, 6)), 2);
    KnapsackSolution inc = solve_prefix_knapsack_incremental(items, 1, &scratch);
    KnapsackSolution bf = solve_prefix_knapsack_bruteforce(items);
    EXPECT_NEAR(inc.total_value, bf.total_value, 1e-9) << "iter " << iter;
    KnapsackSolution check;
    ASSERT_TRUE(evaluate_selection(items, inc.chosen, &check));
  }
}

TEST(IncrementalKnapsack, UnchangedInstanceIsAFullReuse) {
  Rng rng(17);
  std::vector<KnapsackItem> items = random_instance(rng, 8, 3);
  KnapsackScratch scratch;
  KnapsackSolution first = solve_prefix_knapsack_incremental(items, 32, &scratch);
  EXPECT_EQ(scratch.full_reuses, 0u);
  KnapsackSolution second = solve_prefix_knapsack_incremental(items, 32, &scratch);
  EXPECT_EQ(scratch.full_reuses, 1u);
  expect_same_solution(first, second);
}

TEST(IncrementalKnapsack, TailChangeReusesPrefixRows) {
  Rng rng(19);
  std::vector<KnapsackItem> items = random_instance(rng, 10, 3);
  KnapsackScratch scratch;
  solve_prefix_knapsack_incremental(items, 32, &scratch);
  const std::uint64_t computed_before = scratch.rows_computed;
  items.back().values.back() += 0.25;  // only item n-1 changes
  expect_same_solution(solve_prefix_knapsack_incremental(items, 32, &scratch),
                       solve_prefix_knapsack(items, 32));
  EXPECT_GT(scratch.rows_reused, 0u);
  // The re-solve recomputed exactly one row, not the whole table.
  EXPECT_EQ(scratch.rows_computed, computed_before + 1);
}

TEST(IncrementalKnapsack, UnitChangeInvalidatesScratch) {
  Rng rng(23);
  std::vector<KnapsackItem> items = random_instance(rng, 6, 2);
  KnapsackScratch scratch;
  solve_prefix_knapsack_incremental(items, 16, &scratch);
  expect_same_solution(solve_prefix_knapsack_incremental(items, 64, &scratch),
                       solve_prefix_knapsack(items, 64));
  EXPECT_EQ(scratch.full_reuses, 0u);
}

// ---------- Interval-indexed scroll analysis ----------

std::vector<MediaObject> random_page_objects(Rng& rng, int count, double page_h) {
  std::vector<MediaObject> objects;
  for (int i = 0; i < count; ++i) {
    Rect r{rng.uniform(0, 1200), rng.uniform(0, page_h), rng.uniform(40, 900),
           rng.uniform(40, 1400)};
    objects.push_back(make_single_version_object(
        "img" + std::to_string(i), r,
        static_cast<Bytes>(rng.uniform_int(5'000, 200'000)),
        "http://t/" + std::to_string(i)));
  }
  return objects;
}

Gesture fling(double vy, TimeMs start_ms = 0) {
  Gesture g;
  g.kind = GestureKind::kFling;
  g.down_time_ms = start_ms;
  g.up_time_ms = start_ms + 120;
  g.down_pos = {700, 1800};
  g.up_pos = {700, 1800 - 300};
  g.release_velocity = {0, vy};
  return g;
}

TEST(IntervalIndex, QueryReturnsExactlyTheOverlappingSpans) {
  Rng rng(29);
  std::vector<MediaObject> objects = random_page_objects(rng, 200, 30'000);
  ObjectIntervalIndex index(objects);
  std::vector<std::size_t> got;
  for (int iter = 0; iter < 50; ++iter) {
    double lo = rng.uniform(-1000, 31'000);
    double hi = lo + rng.uniform(0, 8000);
    index.query(lo, hi, got);
    std::vector<bool> in_got(objects.size(), false);
    for (std::size_t i : got) in_got[i] = true;
    for (std::size_t i = 0; i < objects.size(); ++i) {
      const Rect& r = objects[i].rect;
      const bool expect = r.top() <= hi && r.bottom() >= lo;
      EXPECT_EQ(in_got[i], expect) << "object " << i << " window [" << lo
                                   << ", " << hi << "]";
    }
  }
}

TEST(IntervalIndex, IndexedAnalyzeIsFieldIdenticalToLinearScan) {
  Rng rng(31);
  ScrollTracker::Params params;
  params.content_bounds = Rect{0, 0, 1440, 40'000};
  ScrollTracker tracker(params);
  std::vector<MediaObject> objects = random_page_objects(rng, 150, 40'000);
  ObjectIntervalIndex index(objects);

  for (int iter = 0; iter < 20; ++iter) {
    const double vy = rng.uniform(-9000, -800) * (rng.chance(0.15) ? -1 : 1);
    const Rect viewport{0, rng.uniform(0, 35'000), 1440, 2560};
    ScrollPrediction pred = tracker.predict(fling(vy), viewport);
    ScrollAnalysis linear = tracker.analyze(pred, objects);
    ScrollAnalysis indexed = tracker.analyze(pred, objects, index);
    ASSERT_EQ(indexed.listed.size(), linear.listed.size());
    for (std::size_t i = 0; i < linear.listed.size(); ++i) {
      const ObjectCoverage& a = linear.listed[i];
      const ObjectCoverage& b = indexed.listed[i];
      EXPECT_EQ(b.object_index, a.object_index);
      EXPECT_EQ(b.involved, a.involved) << "listed " << i;
      EXPECT_EQ(b.entry_time_ms, a.entry_time_ms);
      EXPECT_EQ(b.coverage_integral, a.coverage_integral);
      EXPECT_EQ(b.final_coverage, a.final_coverage);
      EXPECT_EQ(b.in_initial_viewport, a.in_initial_viewport);
      EXPECT_EQ(b.in_final_viewport, a.in_final_viewport);
    }
  }
}

TEST(IntervalIndex, StaleIndexIsRejected) {
  // Re-exec style: robust when earlier tests in this binary spawned threads
  // (and under ThreadSanitizer, which dislikes fork-after-threads).
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  Rng rng(37);
  ScrollTracker tracker({});
  std::vector<MediaObject> objects = random_page_objects(rng, 10, 10'000);
  ObjectIntervalIndex index(objects);
  objects.push_back(make_single_version_object("late", {0, 0, 10, 10}, 100, "u"));
  ScrollPrediction pred = tracker.predict(fling(-3000), {0, 0, 1440, 2560});
  EXPECT_DEATH(tracker.analyze(pred, objects, index), "stale");
}

// ---------- FlowController::replan ----------

void expect_policy_eq(const DownloadPolicy& got, const DownloadPolicy& want) {
  EXPECT_EQ(got.objective, want.objective);
  EXPECT_EQ(got.total_bytes, want.total_bytes);
  ASSERT_EQ(got.decisions.size(), want.decisions.size());
  for (std::size_t i = 0; i < want.decisions.size(); ++i) {
    const DownloadDecision& a = got.decisions[i];
    const DownloadDecision& b = want.decisions[i];
    EXPECT_EQ(a.object_index, b.object_index) << "decision " << i;
    EXPECT_EQ(a.version, b.version) << "decision " << i;
    EXPECT_EQ(a.entry_time_ms, b.entry_time_ms) << "decision " << i;
    EXPECT_EQ(a.qoe, b.qoe) << "decision " << i;
    EXPECT_EQ(a.cost, b.cost) << "decision " << i;
    EXPECT_EQ(a.value, b.value) << "decision " << i;
  }
}

TEST(Replan, BitIdenticalToOptimizeAcrossAGestureSequence) {
  Rng rng(41);
  ScrollTracker::Params tparams;
  tparams.content_bounds = Rect{0, 0, 1440, 30'000};
  ScrollTracker tracker(tparams);
  std::vector<MediaObject> objects = random_page_objects(rng, 60, 30'000);
  // Give objects multiple versions so the knapsack has real choices.
  for (MediaObject& obj : objects) {
    MediaVersion base = obj.versions.front();
    obj.versions = {{360, base.size / 3 + 1, base.url + "?s"},
                    {720, base.size, base.url},
                    {1080, base.size * 2, base.url + "?l"}};
  }
  BandwidthTrace bandwidth = BandwidthTrace::constant(2'000'000);

  FlowController::Params fparams;
  FlowController stateless(fparams);
  FlowController stateful(fparams);

  for (int iter = 0; iter < 12; ++iter) {
    const Rect viewport{0, rng.uniform(0, 27'000), 1440, 2560};
    ScrollPrediction pred =
        tracker.predict(fling(rng.uniform(-8000, -1000)), viewport);
    ScrollAnalysis analysis = tracker.analyze(pred, objects);
    expect_policy_eq(stateful.replan(analysis, objects, bandwidth),
                     stateless.optimize(analysis, objects, bandwidth));
  }
  EXPECT_EQ(stateful.replan_scratch().solves, 12u);
}

// The fig7 corpus on the low-end device class: one stateful controller per
// page sees the device's swipe ramp, an upward scroll and a diagonal at three
// bandwidths in turn, so the scratch carries state across both gesture and
// bandwidth changes.
TEST(Replan, MatchesOptimizeAcrossLowEndCorpusAndBandwidths) {
  FlowController::Params fparams;
  FlowController stateless(fparams);
  const auto device = scenario::DeviceClassSpec::named("phone_lowend");
  ASSERT_TRUE(device.has_value());
  ScrollTracker::Params lowend_params;
  lowend_params.scroll = ScrollConfig(device->profile);
  lowend_params.coverage_step_ms = 4.0;
  const ScrollTracker lowend(lowend_params);
  const Rect screen{0, 0, device->profile.screen_w_px, device->profile.screen_h_px};
  std::vector<double> vys;
  for (int r = 0; r < 3; ++r)
    vys.push_back(-(device->swipe_speed_base_px_s + device->swipe_speed_step_px_s * r));
  vys.push_back(device->swipe_speed_base_px_s);
  Rng corpus_rng(0xA23Au ^ static_cast<std::uint64_t>(device->profile.screen_w_px));
  for (const WebPage& page : generate_corpus(device->profile, corpus_rng)) {
    FlowController page_stateful(fparams);
    for (BytesPerSec rate : {120'000, 250'000, 1'000'000}) {
      const BandwidthTrace trace = BandwidthTrace::constant(rate);
      for (std::size_t k = 0; k <= vys.size(); ++k) {
        Gesture g = fling(k < vys.size() ? vys[k] : -device->swipe_speed_base_px_s);
        if (k == vys.size()) g.release_velocity.x = -400;  // slight diagonal
        ScrollAnalysis analysis =
            lowend.analyze(lowend.predict(g, screen), page.images);
        SCOPED_TRACE(::testing::Message() << page.site << " @" << rate << " B/s gesture " << k);
        expect_policy_eq(page_stateful.replan(analysis, page.images, trace),
                         stateless.optimize(analysis, page.images, trace));
      }
    }
  }
}

TEST(Replan, RepeatedIdenticalScrollHitsTheFullReusePath) {
  Rng rng(43);
  ScrollTracker tracker({});
  std::vector<MediaObject> objects = random_page_objects(rng, 30, 20'000);
  BandwidthTrace bandwidth = BandwidthTrace::constant(1'000'000);
  FlowController controller(FlowController::Params{});
  ScrollPrediction pred = tracker.predict(fling(-4000), {0, 0, 1440, 2560});
  ScrollAnalysis analysis = tracker.analyze(pred, objects);
  DownloadPolicy first = controller.replan(analysis, objects, bandwidth);
  DownloadPolicy second = controller.replan(analysis, objects, bandwidth);
  EXPECT_EQ(controller.replan_scratch().full_reuses, 1u);
  EXPECT_EQ(second.objective, first.objective);
  EXPECT_EQ(second.total_bytes, first.total_bytes);
}

// ---------- Touch-to-policy golden folds ----------
//
// The per-touch stages on the densest page of the seed-1 fig7 corpus (sohu,
// 70 objects) under three flings at 3,000, 5,500 and 8,000 px/s, each folded
// into one FNV-1a fingerprint. The constants were recorded by the retired
// micro-benchmark matrix (DESIGN.md §17.4); any change to a coverage,
// analysis or policy bit moves them.

// The recorded folds start from this basis, not util/fnv.h's standard one.
Fnv golden_fnv() {
  Fnv f;
  f.h = 1469598103934665603ull;
  return f;
}

Gesture release_fling(Vec2 v) {
  Gesture g;
  g.kind = GestureKind::kFling;
  g.down_time_ms = -150;
  g.up_time_ms = 0;
  g.down_pos = {700, 1800};
  g.up_pos = g.down_pos + v * 0.15;
  g.release_velocity = v;
  return g;
}

ScrollTracker::Params golden_tracker_params(const DeviceProfile& device) {
  ScrollTracker::Params params;
  params.scroll = ScrollConfig(device);
  params.coverage_step_ms = 4.0;
  return params;
}

class TouchGolden : public ::testing::Test {
 protected:
  TouchGolden() : tracker_(golden_tracker_params(device_)) {
    Rng rng(1);
    corpus_ = generate_corpus(device_, rng);
    page_ = &corpus_.front();
    for (const WebPage& p : corpus_)
      if (p.images.size() > page_->images.size()) page_ = &p;
    const Rect viewport{0, 0, device_.screen_w_px, device_.screen_h_px};
    for (int r = 0; r < 3; ++r)
      preds_.push_back(tracker_.predict(
          release_fling({0, -(3000.0 + 2500.0 * r)}), viewport));
  }

  const std::vector<MediaObject>& objects() const { return page_->images; }

  const DeviceProfile device_ = DeviceProfile::nexus6();
  const ScrollTracker tracker_;
  std::vector<WebPage> corpus_;
  const WebPage* page_ = nullptr;
  std::vector<ScrollPrediction> preds_;
};

TEST_F(TouchGolden, CoverageFoldMatchesRecordedFingerprint) {
  ASSERT_EQ(page_->site, "sohu");
  ASSERT_EQ(objects().size(), 70u);
  Fnv f = golden_fnv();
  for (const ScrollPrediction& pred : preds_) {
    const SweptRegion sweep = pred.sweep();
    for (const MediaObject& obj : objects())
      f.f64(first_overlap_fraction(sweep, obj.rect));
  }
  EXPECT_EQ(f.h, 0x3268c71313292452ull);
}

// Folds one coverage per object, in object order: the listed fields, or the
// defaults for an unlisted object.
TEST_F(TouchGolden, AnalysisFoldMatchesRecordedFingerprint) {
  Fnv f = golden_fnv();
  for (const ScrollPrediction& pred : preds_) {
    const ScrollAnalysis analysis = tracker_.analyze(pred, objects());
    std::vector<ObjectCoverage> dense(objects().size());
    for (std::size_t i = 0; i < dense.size(); ++i) dense[i].object_index = i;
    for (const ObjectCoverage& c : analysis.listed) dense[c.object_index] = c;
    for (const ObjectCoverage& c : dense) {
      f.u64(c.object_index);
      f.u64((c.involved ? 1u : 0u) | (c.in_initial_viewport ? 2u : 0u) |
            (c.in_final_viewport ? 4u : 0u));
      f.f64(c.entry_time_ms);
      f.f64(c.coverage_integral);
      f.f64(c.final_coverage);
    }
  }
  EXPECT_EQ(f.h, 0x905bd15d67e6ab42ull);
}

// The per-touch production path, analyze then replan, on a controller that
// has already planned each fling once.
TEST_F(TouchGolden, ReplanFoldMatchesRecordedFingerprint) {
  const BandwidthTrace bandwidth = BandwidthTrace::constant(500'000);
  FlowController controller{FlowController::Params{}};
  for (const ScrollPrediction& pred : preds_)
    controller.replan(tracker_.analyze(pred, objects()), objects(), bandwidth);
  Fnv f = golden_fnv();
  for (const ScrollPrediction& pred : preds_) {
    const DownloadPolicy policy = controller.replan(
        tracker_.analyze(pred, objects()), objects(), bandwidth);
    for (const DownloadDecision& d : policy.decisions) {
      f.u64(d.object_index);
      f.u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(d.version)));
      f.f64(d.entry_time_ms);
      f.f64(d.qoe);
      f.f64(d.cost);
      f.f64(d.value);
    }
    f.f64(policy.objective);
    f.u64(static_cast<std::uint64_t>(policy.total_bytes));
  }
  EXPECT_EQ(f.h, 0xd4ed36cd7e99f3caull);
}

// ---------- Sharded counters ----------

TEST(ShardedCounter, ExactTotalUnderConcurrentIncrement) {
  obs::Counter counter;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) counter.inc();
    });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
  counter.reset();
  EXPECT_EQ(counter.value(), 0u);
}

TEST(ShardedCounter, DeltasAndSnapshotsMerge) {
  obs::Counter counter;
  counter.inc(5);
  counter.inc(7);
  EXPECT_EQ(counter.value(), 12u);
}

// ---------- Multi-session shards ----------

TEST(MultiSessionShards, PerSessionMetricsSumToBatchTotals) {
  overload::MultiSessionConfig config;
  config.sessions = 12;
  config.horizon_ms = 2500;
  overload::MultiSessionResult result = run_multi_session(config);
  ASSERT_EQ(result.per_session.size(), 12u);
  std::size_t requests = 0, completed = 0, rejected = 0, failed = 0,
              stranded = 0, on_time = 0;
  for (std::size_t i = 0; i < result.per_session.size(); ++i) {
    const overload::SessionMetrics& s = result.per_session[i];
    EXPECT_EQ(s.session_id, static_cast<int>(i));  // id order, always
    requests += s.requests;
    completed += s.completed;
    rejected += s.rejected;
    failed += s.failed;
    stranded += s.stranded;
    on_time += s.on_time;
  }
  EXPECT_EQ(requests, result.requests);
  EXPECT_EQ(completed, result.completed);
  EXPECT_EQ(rejected, result.rejected + result.shed);  // shed split happens after
  EXPECT_EQ(failed, result.failed);
  EXPECT_EQ(stranded, result.stranded);
  EXPECT_EQ(on_time, result.on_time);
  EXPECT_EQ(stranded, 0u);
}

TEST(MultiSessionShards, RepeatRunIsByteIdentical) {
  overload::MultiSessionConfig config;
  config.sessions = 6;
  config.horizon_ms = 2000;
  const std::string first = run_multi_session(config).to_json();
  const std::string second = run_multi_session(config).to_json();
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace mfhttp
