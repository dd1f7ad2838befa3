// Tests for the parallel scale engine and the touch-to-policy hot-path
// optimizations (DESIGN.md §12):
//
//   * ParallelRunner — every task runs exactly once at any worker count,
//     workers=1 executes inline in index order, exceptions propagate;
//   * session worlds — identical per-session metrics (byte-identical
//     deterministic JSON) at workers 1, 2, and 8;
//   * incremental knapsack — bit-identical to the base DP under random
//     instance mutations, with prefix/full reuse actually occurring;
//   * interval-indexed scroll analysis — field-identical to the linear scan;
//   * FlowController::replan — bit-identical to optimize();
//   * sharded obs counters — exact totals under concurrent increment;
//   * multi-session shards — per-session metrics sum to the batch totals
//     and repeat runs are byte-identical.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/knapsack.h"
#include "core/middleware.h"
#include "core/scroll_tracker.h"
#include "obs/metrics.h"
#include "scenario/scenario_spec.h"
#include "sim/multi_session.h"
#include "sim/parallel_runner.h"
#include "sim/session_world.h"
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
    sim::ParallelRunStats stats =
        runner.run(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
    EXPECT_EQ(stats.tasks, hits.size());
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
  std::atomic<int> ran{0};
  sim::ParallelRunStats stats = runner.run(3, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 3);
  EXPECT_LE(stats.workers, 3u);
}

TEST(ParallelRunner, ZeroTasksIsANoop) {
  sim::ParallelRunner runner(4);
  sim::ParallelRunStats stats =
      runner.run(0, [&](std::size_t) { FAIL() << "no task should run"; });
  EXPECT_EQ(stats.tasks, 0u);
}

TEST(ParallelRunner, StealingDrainsAnImbalancedBatch) {
  // One task (index 0) is much slower than the rest; with 2 workers the
  // second worker must steal across the block boundary to finish.
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

// ---------- Scale session worlds: determinism across worker counts ----------

TEST(ScaleSessions, SessionSeedIsPureAndDecorrelated) {
  EXPECT_EQ(sim::session_seed(1, 0), sim::session_seed(1, 0));
  EXPECT_NE(sim::session_seed(1, 0), sim::session_seed(1, 1));
  EXPECT_NE(sim::session_seed(1, 0), sim::session_seed(2, 0));
}

TEST(ScaleSessions, IdenticalPerSessionMetricsAtWorkers128) {
  sim::ScaleSessionConfig config;
  config.seed = 7;
  config.sessions = 6;
  config.gestures_per_session = 8;

  config.workers = 1;
  sim::ScaleRunResult serial = run_scale_sessions(config);
  ASSERT_EQ(serial.sessions.size(), config.sessions);
  EXPECT_GT(serial.total_scrolls, 0u);

  for (std::size_t workers : {std::size_t{2}, std::size_t{8}}) {
    config.workers = workers;
    sim::ScaleRunResult parallel = run_scale_sessions(config);
    // Byte-identical deterministic document...
    EXPECT_EQ(parallel.deterministic_json(), serial.deterministic_json())
        << "workers " << workers;
    // ...and field-identical shards, including the bit-exact fingerprints.
    ASSERT_EQ(parallel.sessions.size(), serial.sessions.size());
    for (std::size_t i = 0; i < serial.sessions.size(); ++i) {
      const sim::ScaleSessionResult& a = serial.sessions[i];
      const sim::ScaleSessionResult& b = parallel.sessions[i];
      EXPECT_EQ(b.session_id, a.session_id);
      EXPECT_EQ(b.seed, a.seed);
      EXPECT_EQ(b.scrolls, a.scrolls);
      EXPECT_EQ(b.planned_bytes, a.planned_bytes);
      EXPECT_EQ(b.fingerprint, a.fingerprint) << "session " << i;
    }
  }
}

TEST(ScaleSessions, SingleSessionMatchesBatchSlot) {
  sim::ScaleSessionConfig config;
  config.seed = 21;
  config.sessions = 3;
  config.gestures_per_session = 5;
  sim::ScaleRunResult batch = run_scale_sessions(config);
  for (std::size_t id = 0; id < config.sessions; ++id) {
    sim::ScaleSessionResult solo = run_scale_session(config, id);
    EXPECT_EQ(solo.fingerprint, batch.sessions[id].fingerprint);
    EXPECT_EQ(solo.planned_bytes, batch.sessions[id].planned_bytes);
    EXPECT_EQ(solo.scrolls, batch.sessions[id].scrolls);
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
