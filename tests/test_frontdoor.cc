// Tests for the sharded front door (DESIGN.md §13, http/frontdoor.h):
//
//   * MpscQueue — FIFO per producer, exact capacity bound, every element
//     delivered exactly once under concurrent producers;
//   * shard routing — a pure, stable function of (session, shards), with a
//     fingerprint that recomputes identically;
//   * overload::shard_slice — N=1 is byte-identical, budgets split evenly
//     with ceil'd never-zero integer bounds, per-session knobs untouched;
//   * obs::BatchedCounter — exact totals, flush-on-batch and on demand;
//   * the front door itself — shards=1 threaded byte-identical to the
//     unsharded inline path, invariant totals across shard counts,
//     per-shard cache segments isolated but sharing one ghost list,
//     cross-shard counter aggregation summing to the run's totals.
//
// Suite names match the ThreadSanitizer job's -R 'Shard|Mpsc' selection.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "http/cache.h"
#include "http/frontdoor.h"
#include "obs/metrics.h"
#include "overload/admission.h"
#include "sim/frontdoor_load.h"
#include "util/mpsc_queue.h"

namespace mfhttp {
namespace {

// ---------- MpscQueue ----------

TEST(MpscQueue, SingleProducerFifo) {
  MpscQueue<int> q(8);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(q.try_push(i));
  int out = -1;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(q.try_pop(out));
    EXPECT_EQ(out, i);
  }
  EXPECT_FALSE(q.try_pop(out));
}

TEST(MpscQueue, CapacityRoundsUpToPowerOfTwoAndBounds) {
  MpscQueue<int> q(5);
  EXPECT_EQ(q.capacity(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(q.try_push(i));
  EXPECT_FALSE(q.try_push(99));  // full: reject, never overwrite
  int out = -1;
  ASSERT_TRUE(q.try_pop(out));
  EXPECT_EQ(out, 0);
  EXPECT_TRUE(q.try_push(99));  // slot freed, push succeeds again
  EXPECT_EQ(q.approx_size(), 8u);
}

TEST(MpscQueue, PopOnEmptyFailsWithoutSideEffects) {
  MpscQueue<std::string> q(4);
  std::string out = "untouched";
  EXPECT_FALSE(q.try_pop(out));
  EXPECT_EQ(out, "untouched");
  EXPECT_TRUE(q.try_push("x"));
  ASSERT_TRUE(q.try_pop(out));
  EXPECT_EQ(out, "x");
}

TEST(MpscQueue, ConcurrentProducersDeliverEverythingExactlyOnceInOrder) {
  constexpr std::uint64_t kProducers = 4;
  constexpr std::uint64_t kPerProducer = 20000;
  MpscQueue<std::uint64_t> q(256);

  std::vector<std::thread> producers;
  for (std::uint64_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        while (!q.try_push((p << 32) | i)) std::this_thread::yield();
      }
    });
  }

  // Single consumer: per-producer sequences must arrive strictly in order
  // (FIFO holds per producer even while producers interleave).
  std::vector<std::uint64_t> next(kProducers, 0);
  std::uint64_t received = 0;
  while (received < kProducers * kPerProducer) {
    std::uint64_t v = 0;
    if (!q.try_pop(v)) {
      std::this_thread::yield();
      continue;
    }
    const std::uint64_t p = v >> 32;
    const std::uint64_t seq = v & 0xffffffffULL;
    ASSERT_LT(p, kProducers);
    ASSERT_EQ(seq, next[p]) << "producer " << p << " reordered";
    ++next[p];
    ++received;
  }
  for (std::thread& t : producers) t.join();
  std::uint64_t v = 0;
  EXPECT_FALSE(q.try_pop(v));
  for (std::uint64_t p = 0; p < kProducers; ++p) EXPECT_EQ(next[p], kPerProducer);
}

TEST(MpscQueue, TryPushFailureLeavesQueueStateConsistent) {
  MpscQueue<std::string> q(4);
  for (int i = 0; i < 4; ++i)
    ASSERT_TRUE(q.try_push("v" + std::to_string(i)));
  // Repeated failed pushes against a full ring must not disturb any slot,
  // the occupancy, or subsequent FIFO order.
  for (int i = 0; i < 16; ++i) EXPECT_FALSE(q.try_push("overflow"));
  EXPECT_EQ(q.approx_size(), 4u);
  std::string out;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(q.try_pop(out));
    EXPECT_EQ(out, "v" + std::to_string(i));
  }
  EXPECT_FALSE(q.try_pop(out));
  EXPECT_TRUE(q.try_push("after"));
  ASSERT_TRUE(q.try_pop(out));
  EXPECT_EQ(out, "after");
}

TEST(MpscQueue, PushUntilExpiresAtTheDeadlineAndReportsTheWait) {
  MpscQueue<int> q(2);
  ASSERT_TRUE(q.try_push(1));
  ASSERT_TRUE(q.try_push(2));
  // Synthetic clock: each call advances 1 "ns", deadline at tick 10 — the
  // push must give up, report the wait, and leave the ring untouched.
  std::uint64_t tick = 0;
  std::uint64_t blocked = 0;
  EXPECT_FALSE(q.push_until(
      3, 10, [&tick] { return ++tick; }, &blocked));
  EXPECT_GT(blocked, 0u);
  EXPECT_EQ(q.approx_size(), 2u);
  int out = 0;
  ASSERT_TRUE(q.try_pop(out));
  EXPECT_EQ(out, 1);
}

TEST(MpscQueue, PushUntilSucceedsOnceTheConsumerFreesASlot) {
  MpscQueue<int> q(2);
  ASSERT_TRUE(q.try_push(1));
  ASSERT_TRUE(q.try_push(2));
  // The consumer thread frees one slot after a few spins; the blocked push
  // must land in it and account the wait it endured. Deadline 0 = no
  // deadline (the legacy block-forever producer path).
  std::thread consumer([&q] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    int out = 0;
    ASSERT_TRUE(q.try_pop(out));
  });
  std::uint64_t blocked = 0;
  const auto now_ns = [] {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  };
  EXPECT_TRUE(q.push_until(3, 0, now_ns, &blocked));
  consumer.join();
  EXPECT_GT(blocked, 0u);
  int out = 0;
  ASSERT_TRUE(q.try_pop(out));
  EXPECT_EQ(out, 2);
  ASSERT_TRUE(q.try_pop(out));
  EXPECT_EQ(out, 3);
}

TEST(MpscQueue, WraparoundLapsKeepExactlyOnceWithSlowConsumerAtCapacity) {
  // A deliberately tiny ring laps thousands of times while a slow consumer
  // holds it at capacity: the sequence-stamp protocol must keep every
  // element exactly-once and per-producer FIFO through every wraparound.
  // (TSan target: producers race the CAS on a full ring constantly.)
  constexpr std::uint64_t kProducers = 4;
  constexpr std::uint64_t kPerProducer = 5000;
  MpscQueue<std::uint64_t> q(8);

  std::vector<std::thread> producers;
  for (std::uint64_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i)
        ASSERT_TRUE(q.push_until((p << 32) | i, 0,
                                 [] { return std::uint64_t{0}; }));
    });
  }

  std::vector<std::uint64_t> next(kProducers, 0);
  std::uint64_t received = 0;
  while (received < kProducers * kPerProducer) {
    std::uint64_t v = 0;
    if (!q.try_pop(v)) {
      std::this_thread::yield();
      continue;
    }
    // Stay slow every few pops so the ring sits at capacity and producers
    // keep contending for the slot being re-armed.
    if ((received & 63) == 0) std::this_thread::yield();
    const std::uint64_t p = v >> 32;
    ASSERT_LT(p, kProducers);
    ASSERT_EQ(v & 0xffffffffULL, next[p]) << "producer " << p << " reordered";
    ++next[p];
    ++received;
  }
  for (std::thread& t : producers) t.join();
  std::uint64_t v = 0;
  EXPECT_FALSE(q.try_pop(v));
  for (std::uint64_t p = 0; p < kProducers; ++p)
    EXPECT_EQ(next[p], kPerProducer);
}

// ---------- Shard routing ----------

TEST(ShardRouting, PureStableAndInRange) {
  for (std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                             std::size_t{7}}) {
    for (std::uint64_t session = 0; session < 1000; ++session) {
      const std::size_t s = shard_of(session, shards);
      EXPECT_LT(s, shards);
      EXPECT_EQ(s, shard_of(session, shards));  // pure: same answer again
    }
  }
  // shards <= 1 degenerates to the single box.
  EXPECT_EQ(shard_of(12345, 1), 0u);
  EXPECT_EQ(shard_of(12345, 0), 0u);
}

TEST(ShardRouting, SpreadsSessionsAcrossAllShards) {
  constexpr std::size_t kShards = 4;
  std::vector<std::size_t> per_shard(kShards, 0);
  for (std::uint64_t session = 0; session < 10000; ++session)
    ++per_shard[shard_of(session, kShards)];
  for (std::size_t s = 0; s < kShards; ++s) {
    // splitmix64 is a good mixer: no shard should be starved or hot by more
    // than a loose 2x band around the 2500 mean.
    EXPECT_GT(per_shard[s], 1250u) << "shard " << s;
    EXPECT_LT(per_shard[s], 5000u) << "shard " << s;
  }
}

TEST(ShardRouting, FingerprintRecomputesIdentically) {
  const std::uint64_t a = routing_fingerprint(5000, 4);
  const std::uint64_t b = routing_fingerprint(5000, 4);
  EXPECT_EQ(a, b);
  // Different table -> different witness (FNV over different folds).
  EXPECT_NE(routing_fingerprint(5000, 2), a);
  EXPECT_NE(routing_fingerprint(4999, 4), a);
}

// ---------- overload::shard_slice ----------

TEST(ShardSlice, SingleShardIsByteIdentical) {
  overload::AdmissionParams p;
  p.global_rate_per_s = 1000;
  p.global_burst = 100;
  p.session_rate_per_s = 10;
  p.session_burst = 5;
  p.max_inflight_upstream = 7;
  p.max_dispatch_queue = 33;
  p.max_deferred_global = 11;
  p.seed = 42;
  const overload::AdmissionParams out = overload::shard_slice(p, 0, 1);
  EXPECT_DOUBLE_EQ(out.global_rate_per_s, p.global_rate_per_s);
  EXPECT_DOUBLE_EQ(out.global_burst, p.global_burst);
  EXPECT_DOUBLE_EQ(out.session_rate_per_s, p.session_rate_per_s);
  EXPECT_DOUBLE_EQ(out.session_burst, p.session_burst);
  EXPECT_EQ(out.max_inflight_upstream, p.max_inflight_upstream);
  EXPECT_EQ(out.max_dispatch_queue, p.max_dispatch_queue);
  EXPECT_EQ(out.max_deferred_global, p.max_deferred_global);
  EXPECT_EQ(out.seed, p.seed);  // NOT remixed: the single shard IS the box
}

TEST(ShardSlice, DividesGlobalBudgetsAndRemixesSeeds) {
  overload::AdmissionParams p;
  p.global_rate_per_s = 1000;
  p.global_burst = 100;
  p.session_rate_per_s = 10;
  p.session_burst = 5;
  p.max_inflight_upstream = 7;
  p.max_dispatch_queue = 33;
  p.max_deferred_global = 0;  // unlimited sentinel must pass through
  p.seed = 42;

  std::set<std::uint64_t> seeds;
  int inflight_sum = 0;
  for (std::size_t shard = 0; shard < 4; ++shard) {
    const overload::AdmissionParams s = overload::shard_slice(p, shard, 4);
    EXPECT_DOUBLE_EQ(s.global_rate_per_s, 250.0);
    EXPECT_DOUBLE_EQ(s.global_burst, 25.0);
    // Per-session knobs untouched: a session lives wholly on one shard.
    EXPECT_DOUBLE_EQ(s.session_rate_per_s, 10.0);
    EXPECT_DOUBLE_EQ(s.session_burst, 5.0);
    EXPECT_EQ(s.max_inflight_upstream, 2);  // ceil(7/4)
    EXPECT_EQ(s.max_dispatch_queue, 9);     // ceil(33/4)
    EXPECT_EQ(s.max_deferred_global, 0);
    seeds.insert(s.seed);
    inflight_sum += s.max_inflight_upstream;
  }
  EXPECT_EQ(seeds.size(), 4u);  // decorrelated guard jitter per shard
  EXPECT_GE(inflight_sum, p.max_inflight_upstream);  // ceil never loses budget
}

TEST(ShardSlice, TinyBudgetNeverRoundsToZero) {
  overload::AdmissionParams p;
  p.max_inflight_upstream = 1;
  p.max_dispatch_queue = 2;
  for (std::size_t shard = 0; shard < 8; ++shard) {
    const overload::AdmissionParams s = overload::shard_slice(p, shard, 8);
    EXPECT_GE(s.max_inflight_upstream, 1);
    EXPECT_GE(s.max_dispatch_queue, 1);
  }
}

// ---------- obs::BatchedCounter ----------

TEST(ShardCounters, BatchedCounterFlushesOnBatchBoundary) {
  obs::Counter& c = obs::metrics().counter("test.frontdoor.batched_total");
  c.reset();
  {
    obs::BatchedCounter batched(c, 10);
    for (int i = 0; i < 25; ++i) batched.inc();
    // Two full batches flushed; 5 still pending thread-locally.
    EXPECT_EQ(c.value(), 20u);
    EXPECT_EQ(batched.pending(), 5u);
    batched.flush();
    EXPECT_EQ(c.value(), 25u);
    batched.inc(3);
  }  // destructor flushes the tail
  EXPECT_EQ(c.value(), 28u);
}

TEST(ShardCounters, ConcurrentBatchedWorkersSumExactly) {
  obs::Counter& c = obs::metrics().counter("test.frontdoor.batched_mt_total");
  c.reset();
  constexpr std::uint64_t kWorkers = 4;
  constexpr std::uint64_t kEach = 100000;
  std::vector<std::thread> workers;
  for (std::uint64_t w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&c] {
      obs::BatchedCounter batched(c, 1024);  // one instance per worker
      for (std::uint64_t i = 0; i < kEach; ++i) batched.inc();
    });
  }
  for (std::thread& t : workers) t.join();
  EXPECT_EQ(c.value(), kWorkers * kEach);
}

// ---------- Per-shard cache segments + shared ghost list ----------

TEST(ShardCacheSegments, IsolatedResidencySharedGhostHistory) {
  auto ghosts = std::make_shared<CacheGhosts>();
  CacheParams cp;
  cp.capacity_bytes = 64 * 1024;
  cp.cost_aware_admission = true;
  cp.shared_ghosts = ghosts;
  HttpCache segment_a(cp);
  HttpCache segment_b(cp);
  EXPECT_EQ(segment_a.ghosts().get(), segment_b.ghosts().get());

  // Residency is strictly per segment: B never sees A's insertions.
  CachedObject obj;
  obj.size = 1024;
  ASSERT_TRUE(segment_a.put("http://o/x", obj, 0));
  EXPECT_TRUE(segment_a.contains("http://o/x"));
  EXPECT_FALSE(segment_b.contains("http://o/x"));

  // Misses on either segment feed the SAME ghost list: popularity earned on
  // shard A is visible to shard B's admission fight.
  for (int i = 0; i < 5; ++i) segment_a.lookup("http://o/hot", 0);
  EXPECT_GT(ghosts->frequency("http://o/hot"), 0.0);
  EXPECT_DOUBLE_EQ(ghosts->frequency("http://o/hot"),
                   segment_b.ghosts()->frequency("http://o/hot"));
}

// ---------- The sharded front door ----------

sim::FrontDoorLoadConfig small_load() {
  sim::FrontDoorLoadConfig load;
  load.sessions = 400;
  load.touches_per_session = 3;
  load.url_universe = 512;
  load.session_arrival_per_s = 400;
  return load;
}

TEST(ShardedFrontDoor, OneShardThreadedIsByteIdenticalToUnshardedInline) {
  FrontDoorParams params;
  params.load = small_load();
  params.apply_scaled_admission();
  params.shards = 1;

  const FrontDoorResult inline_run =
      run_front_door(params, FrontDoorMode::kInline);
  const FrontDoorResult threaded_run =
      run_front_door(params, FrontDoorMode::kThreaded);

  // The whole deterministic document — totals, ratios, fingerprints, the
  // per-shard breakdown — must match byte for byte.
  EXPECT_EQ(inline_run.deterministic_json(), threaded_run.deterministic_json());
  EXPECT_EQ(inline_run.fingerprint, threaded_run.fingerprint);
  EXPECT_GT(inline_run.requests, 0u);
}

TEST(ShardedFrontDoor, InvariantTotalsAcrossShardCounts) {
  FrontDoorParams params;
  params.load = small_load();
  params.apply_scaled_admission();

  std::vector<FrontDoorResult> results;
  for (std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    params.shards = shards;
    results.push_back(run_front_door(params, FrontDoorMode::kThreaded));
  }
  for (const FrontDoorResult& r : results) {
    // Every event is consumed exactly once and every touch's URL set is a
    // pure function of the load, so events and request totals are invariant
    // no matter how the sessions were sharded.
    EXPECT_EQ(r.events, results[0].events);
    EXPECT_EQ(r.requests, results[0].requests);
    // Nothing vanishes: every request resolves to exactly one verdict.
    EXPECT_EQ(r.completed + r.rejected + r.failed, r.requests);
    // Per-shard session counts partition the session space.
    std::size_t routed = 0;
    for (const FrontDoorShardReport& shard : r.per_shard)
      routed += shard.sessions;
    EXPECT_EQ(routed, params.load.sessions);
    EXPECT_EQ(r.per_shard.size(), r.shards);
  }
}

TEST(ShardedFrontDoor, RepeatSingleShardRunsAreByteIdentical) {
  FrontDoorParams params;
  params.load = small_load();
  params.apply_scaled_admission();
  params.shards = 1;
  const FrontDoorResult a = run_front_door(params, FrontDoorMode::kThreaded);
  const FrontDoorResult b = run_front_door(params, FrontDoorMode::kThreaded);
  EXPECT_EQ(a.deterministic_json(), b.deterministic_json());
  EXPECT_EQ(a.routing_fp, routing_fingerprint(params.load.sessions, 1));
}

TEST(ShardedFrontDoor, RepeatMultiShardRunsKeepExactInvariants) {
  // At N>1 the shared ghost list's decay epochs depend on cross-shard op
  // interleaving (frontdoor.h, determinism contract), so hit ratios may
  // wobble — but routing, event, and request totals must repeat exactly.
  FrontDoorParams params;
  params.load = small_load();
  params.apply_scaled_admission();
  params.shards = 2;
  const FrontDoorResult a = run_front_door(params, FrontDoorMode::kThreaded);
  const FrontDoorResult b = run_front_door(params, FrontDoorMode::kThreaded);
  EXPECT_EQ(a.routing_fp, routing_fingerprint(params.load.sessions, 2));
  EXPECT_EQ(b.routing_fp, a.routing_fp);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.requests, b.requests);
  for (std::size_t s = 0; s < 2; ++s) {
    EXPECT_EQ(a.per_shard[s].sessions, b.per_shard[s].sessions);
    EXPECT_EQ(a.per_shard[s].events, b.per_shard[s].events);
    EXPECT_EQ(a.per_shard[s].requests, b.per_shard[s].requests);
  }
  EXPECT_NEAR(a.cache_hit_ratio, b.cache_hit_ratio, 0.05);
}

TEST(ShardedFrontDoor, CrossShardCounterAggregationSumsToRunTotals) {
  FrontDoorParams params;
  params.load = small_load();
  params.apply_scaled_admission();
  params.shards = 4;
  params.counter_flush_batch = 64;  // several flush boundaries per shard

  obs::Counter& events = obs::metrics().counter("http.frontdoor.events_total");
  obs::Counter& requests =
      obs::metrics().counter("http.frontdoor.requests_total");
  const std::uint64_t events_before = events.value();
  const std::uint64_t requests_before = requests.value();

  const FrontDoorResult r = run_front_door(params, FrontDoorMode::kThreaded);

  // Batched per-shard counting must aggregate to exactly the run's totals
  // in the one process-wide registry — nothing lost, nothing double-counted.
  EXPECT_EQ(events.value() - events_before, r.events);
  EXPECT_EQ(requests.value() - requests_before, r.requests);
  EXPECT_EQ(r.events,
            params.load.sessions * params.load.touches_per_session);
}

}  // namespace
}  // namespace mfhttp
