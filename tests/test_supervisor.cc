// Tests for the self-healing front door (DESIGN.md §14, ISSUE 7):
//
//   * FrontDoorSupervisor — the healthy → slow → wedged → recovered state
//     machine driven deterministically through sample() with a synthetic
//     clock: threshold edges, hysteresis debouncing, the crash fast path,
//     idle-is-healthy, and the published mask/epoch/callback protocol;
//   * failover_shard_of — rendezvous re-routing is deterministic, lands
//     only on healthy shards, spreads load, and reverts on recovery;
//   * overload::failover_slice / apply_budget — the wedged shard's budget
//     slice is re-distributed over the healthy cohort with the seed keyed
//     to the ORIGINAL shard index;
//   * chaos plans — fault::ShardFault JSON round-trips and rejects
//     malformed entries;
//   * the chaos harness end to end — a crash plan under supervision fails
//     new sessions over and completes at least as much as the
//     unsupervised run, with every event accounted for; and the shards=1
//     byte-identity gate holds with supervision enabled and no faults;
//   * chaos_matrix's fault-free arm — its default load's event and request
//     counts, all served.
//
// Suite names match the ThreadSanitizer job's -R 'Supervisor|Chaos'
// selection.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "fault/fault_plan.h"
#include "http/frontdoor.h"
#include "http/frontdoor_supervisor.h"
#include "overload/admission.h"
#include "sim/frontdoor_load.h"

namespace mfhttp {
namespace {

constexpr std::uint64_t kMs = 1'000'000ULL;  // synthetic-clock millisecond

// Thresholds small enough to walk through by hand: slow at 20 ms, wedged
// at 60 ms, two consecutive breaching samples to declare, two progressing
// samples to recover.
SupervisorParams tight_params() {
  SupervisorParams p;
  p.enabled = true;
  p.check_interval_ms = 2;
  p.slow_after_ms = 20;
  p.wedged_after_ms = 60;
  p.hysteresis = {2, 2};
  return p;
}

// ---------- The supervisor state machine ----------

TEST(Supervisor, StartsAllHealthyWithFullMask) {
  FrontDoorSupervisor sup(tight_params(), 3);
  EXPECT_EQ(sup.healthy_mask(), 0b111ULL);
  EXPECT_EQ(sup.healthy_count(), 3u);
  EXPECT_EQ(sup.epoch(), 0u);
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_EQ(sup.health(i), ShardHealth::kHealthy);
}

TEST(Supervisor, HealthySlowWedgedRecoveredWalk) {
  FrontDoorSupervisor sup(tight_params(), 2);
  ShardHeartbeat hb;
  hb.busy.store(true);  // mid-event: the idle escape hatch must not apply
  std::size_t depth = 1;
  sup.attach(0, &hb, [&depth] { return depth; });
  hb.fault_onset_ns.store(5 * kMs);  // chaos fault fired at t=5ms

  std::vector<std::pair<std::uint64_t, std::size_t>> mask_changes;
  sup.set_on_mask_change([&](std::uint64_t mask, std::size_t healthy) {
    mask_changes.emplace_back(mask, healthy);
  });

  sup.sample(1 * kMs);  // first look only arms the stall clock
  EXPECT_EQ(sup.health(0), ShardHealth::kHealthy);

  sup.sample(10 * kMs);  // 9 ms stalled: below every threshold
  EXPECT_EQ(sup.health(0), ShardHealth::kHealthy);

  sup.sample(25 * kMs);  // 24 ms >= slow_after: slow, but routing untouched
  EXPECT_EQ(sup.health(0), ShardHealth::kSlow);
  EXPECT_EQ(sup.healthy_mask(), 0b11ULL);

  sup.sample(70 * kMs);  // first wedged-breaching sample: hysteresis holds
  EXPECT_EQ(sup.health(0), ShardHealth::kSlow);
  EXPECT_EQ(sup.wedged_declared_total(), 0u);

  sup.sample(75 * kMs);  // second consecutive breach: wedged declared
  EXPECT_EQ(sup.health(0), ShardHealth::kWedged);
  EXPECT_EQ(sup.healthy_mask(), 0b10ULL);
  EXPECT_EQ(sup.healthy_count(), 1u);
  EXPECT_EQ(sup.epoch(), 1u);
  EXPECT_EQ(sup.wedged_declared_total(), 1u);
  ASSERT_EQ(mask_changes.size(), 1u);
  EXPECT_EQ(mask_changes[0].first, 0b10ULL);
  EXPECT_EQ(mask_changes[0].second, 1u);

  hb.progress.fetch_add(1);
  sup.sample(80 * kMs);  // first progressing sample: still wedged
  EXPECT_EQ(sup.health(0), ShardHealth::kWedged);

  hb.progress.fetch_add(1);
  sup.sample(85 * kMs);  // second consecutive: recovered, mask restored
  EXPECT_EQ(sup.health(0), ShardHealth::kHealthy);
  EXPECT_EQ(sup.healthy_mask(), 0b11ULL);
  EXPECT_EQ(sup.epoch(), 2u);
  EXPECT_EQ(sup.recovered_total(), 1u);
  ASSERT_EQ(mask_changes.size(), 2u);
  EXPECT_EQ(mask_changes[1].first, 0b11ULL);
  EXPECT_EQ(mask_changes[1].second, 2u);

  // Outcome stats: wedged at 75 ms against a 5 ms fault onset, recovered
  // 10 ms later.
  const FrontDoorSupervisor::ShardStats stats = sup.shard_stats(0);
  EXPECT_EQ(stats.wedged_spells, 1u);
  EXPECT_DOUBLE_EQ(stats.time_to_detect_ms, 70.0);
  EXPECT_DOUBLE_EQ(stats.time_to_recover_ms, 10.0);
  // Shard 1 was never attached and never classified.
  EXPECT_EQ(sup.health(1), ShardHealth::kHealthy);
}

TEST(Supervisor, CrashFastPathSkipsHysteresis) {
  FrontDoorSupervisor sup(tight_params(), 2);
  ShardHeartbeat hb;
  sup.attach(0, &hb, {});
  sup.sample(1 * kMs);
  EXPECT_EQ(sup.health(0), ShardHealth::kHealthy);

  // The worker self-reported a crash: one sample is enough, no stall
  // thresholds and no consecutive-breach debouncing apply.
  hb.serving.store(false);
  sup.sample(3 * kMs);
  EXPECT_EQ(sup.health(0), ShardHealth::kWedged);
  EXPECT_EQ(sup.healthy_mask(), 0b10ULL);
  EXPECT_EQ(sup.wedged_declared_total(), 1u);
  EXPECT_EQ(sup.shard_stats(0).wedged_spells, 1u);

  // A crashed shard never recovers, no matter how long we watch.
  sup.sample(500 * kMs);
  EXPECT_EQ(sup.health(0), ShardHealth::kWedged);
  EXPECT_EQ(sup.recovered_total(), 0u);
}

TEST(Supervisor, IdleShardStaysHealthyForever) {
  FrontDoorSupervisor sup(tight_params(), 1);
  ShardHeartbeat hb;  // progress frozen at 0, busy false
  std::size_t depth = 0;
  sup.attach(0, &hb, [&depth] { return depth; });
  sup.sample(1 * kMs);
  // No progress for 10 seconds — but nothing is queued and the worker is
  // between events: genuinely idle, never slow, never wedged.
  for (std::uint64_t t = 100; t <= 10'000; t += 100) {
    sup.sample(t * kMs);
    ASSERT_EQ(sup.health(0), ShardHealth::kHealthy) << "t=" << t;
  }
  EXPECT_EQ(sup.wedged_declared_total(), 0u);
  EXPECT_EQ(sup.healthy_mask(), 0b1ULL);
}

TEST(Supervisor, ProgressBetweenBreachesResetsTheBadStreak) {
  FrontDoorSupervisor sup(tight_params(), 1);
  ShardHeartbeat hb;
  hb.busy.store(true);
  std::size_t depth = 1;
  sup.attach(0, &hb, [&depth] { return depth; });
  sup.sample(1 * kMs);

  // Two wedged-grade stalls separated by real progress: non-consecutive
  // breaches must never add up to a wedged declaration.
  for (int round = 0; round < 4; ++round) {
    const std::uint64_t base = 1 + static_cast<std::uint64_t>(round) * 200;
    sup.sample((base + 70) * kMs);  // one breaching sample (bad streak = 1)
    EXPECT_EQ(sup.health(0), ShardHealth::kSlow);
    hb.progress.fetch_add(1);
    sup.sample((base + 75) * kMs);  // progress resets the streak
    EXPECT_EQ(sup.health(0), ShardHealth::kHealthy);
  }
  EXPECT_EQ(sup.wedged_declared_total(), 0u);
  EXPECT_EQ(sup.epoch(), 0u);
}

TEST(Supervisor, SampleIsPureInObservationsAcrossShards) {
  // Two shards, one wedges, the other keeps moving: classifications are
  // independent and the mask reflects exactly the wedged set.
  FrontDoorSupervisor sup(tight_params(), 2);
  ShardHeartbeat a;
  ShardHeartbeat b;
  a.busy.store(true);
  std::size_t depth_a = 3;
  sup.attach(0, &a, [&depth_a] { return depth_a; });
  sup.attach(1, &b, [] { return std::size_t{0}; });
  sup.sample(1 * kMs);
  for (std::uint64_t t : {70ULL, 75ULL, 80ULL}) {
    b.progress.fetch_add(1);  // shard 1 keeps serving
    sup.sample(t * kMs);
  }
  EXPECT_EQ(sup.health(0), ShardHealth::kWedged);
  EXPECT_EQ(sup.health(1), ShardHealth::kHealthy);
  EXPECT_EQ(sup.healthy_mask(), 0b10ULL);
  EXPECT_EQ(sup.healthy_count(), 1u);
}

// ---------- Rendezvous failover routing ----------

TEST(SupervisorFailover, DeterministicHealthyAndStable) {
  const std::size_t shards = 8;
  const std::uint64_t mask = 0b1101'1011ULL;  // shards 2 and 5 wedged
  for (std::uint64_t session = 0; session < 2000; ++session) {
    const std::size_t pick = failover_shard_of(session, shards, mask);
    ASSERT_LT(pick, shards);
    ASSERT_NE((mask >> pick) & 1ULL, 0ULL) << "routed to a wedged shard";
    // Pure function of (session, shards, mask).
    ASSERT_EQ(pick, failover_shard_of(session, shards, mask));
  }
}

TEST(SupervisorFailover, SpreadsAcrossTheHealthyCohort) {
  const std::size_t shards = 8;
  const std::uint64_t mask = 0b1111'1110ULL;  // shard 0 wedged
  std::vector<std::size_t> hits(shards, 0);
  for (std::uint64_t session = 0; session < 4000; ++session)
    ++hits[failover_shard_of(session, shards, mask)];
  EXPECT_EQ(hits[0], 0u);
  for (std::size_t i = 1; i < shards; ++i)
    EXPECT_GT(hits[i], 4000u / shards / 4) << "shard " << i << " starved";
}

TEST(SupervisorFailover, RecoveryIsMinimalDisruption) {
  // Sessions that rendezvous-picked shard 3 while 0 was down keep their
  // pick when 0 returns ONLY if 3 still wins the full-mask fight — i.e.
  // the full-mask winner changes only for sessions whose winner WAS the
  // wedged shard. Nobody else moves.
  const std::size_t shards = 4;
  const std::uint64_t full = 0b1111ULL;
  const std::uint64_t degraded = 0b1110ULL;
  for (std::uint64_t session = 0; session < 2000; ++session) {
    const std::size_t with_full = failover_shard_of(session, shards, full);
    const std::size_t with_degraded =
        failover_shard_of(session, shards, degraded);
    if (with_full != 0)
      ASSERT_EQ(with_degraded, with_full)
          << "session " << session << " moved though its winner was healthy";
  }
}

TEST(SupervisorFailover, EmptyMaskFallsBackToPrimaryRouting) {
  for (std::uint64_t session = 0; session < 64; ++session)
    EXPECT_EQ(failover_shard_of(session, 4, 0), shard_of(session, 4));
}

// ---------- Budget re-distribution ----------

TEST(SupervisorBudget, FullCohortSliceMatchesShardSlice) {
  overload::AdmissionParams box;
  box.global_rate_per_s = 1000;
  box.global_burst = 250;
  box.max_inflight_upstream = 64;
  box.max_dispatch_queue = 100;
  box.max_deferred_global = 7;
  box.seed = 42;
  for (std::size_t shard = 0; shard < 4; ++shard) {
    const overload::AdmissionParams a = overload::shard_slice(box, shard, 4);
    const overload::AdmissionParams b =
        overload::failover_slice(box, shard, 4, 4);
    EXPECT_DOUBLE_EQ(a.global_rate_per_s, b.global_rate_per_s);
    EXPECT_DOUBLE_EQ(a.global_burst, b.global_burst);
    EXPECT_EQ(a.max_inflight_upstream, b.max_inflight_upstream);
    EXPECT_EQ(a.max_dispatch_queue, b.max_dispatch_queue);
    EXPECT_EQ(a.max_deferred_global, b.max_deferred_global);
    EXPECT_EQ(a.seed, b.seed);
  }
}

TEST(SupervisorBudget, DegradedCohortAbsorbsTheWedgedSlice) {
  overload::AdmissionParams box;
  box.global_rate_per_s = 1200;
  box.global_burst = 300;
  box.max_inflight_upstream = 64;
  box.seed = 42;
  // 4 shards, 1 wedged: each survivor's slice grows from 1/4 to 1/3 of the
  // box — the wedged quarter is re-distributed, not stranded.
  const overload::AdmissionParams survivor =
      overload::failover_slice(box, 1, 4, 3);
  EXPECT_DOUBLE_EQ(survivor.global_rate_per_s, 400.0);
  EXPECT_DOUBLE_EQ(survivor.global_burst, 100.0);
  EXPECT_EQ(survivor.max_inflight_upstream, 22);  // ceil(64/3)
  // The jitter seed stays keyed to the ORIGINAL shard index, so re-slicing
  // never causes a guard-threshold discontinuity on a surviving shard.
  EXPECT_EQ(survivor.seed, overload::shard_slice(box, 1, 4).seed);
}

TEST(SupervisorBudget, ApplyBudgetSwapsTheLiveSlice) {
  overload::AdmissionParams box;
  box.global_rate_per_s = 800;
  box.global_burst = 200;
  box.max_inflight_upstream = 40;
  box.seed = 11;
  overload::AdmissionController controller(
      overload::shard_slice(box, 0, 4));
  EXPECT_DOUBLE_EQ(controller.params().global_rate_per_s, 200.0);

  controller.apply_budget(overload::failover_slice(box, 0, 4, 2));
  EXPECT_DOUBLE_EQ(controller.params().global_rate_per_s, 400.0);
  EXPECT_DOUBLE_EQ(controller.params().global_burst, 100.0);
  EXPECT_EQ(controller.params().max_inflight_upstream, 20);

  // And back to the full-cohort slice on recovery.
  controller.apply_budget(overload::failover_slice(box, 0, 4, 4));
  EXPECT_DOUBLE_EQ(controller.params().global_rate_per_s, 200.0);
  EXPECT_DOUBLE_EQ(controller.params().global_burst, 50.0);
}

// ---------- Chaos plans ----------

TEST(ChaosPlan, ShardFaultsRoundTripThroughJson) {
  fault::FaultPlan plan;
  plan.seed = 99;
  plan.name = "chaos-mix";
  fault::ShardFault stall;
  stall.kind = fault::ShardFault::Kind::kStall;
  stall.shard = 1;
  stall.at_event = 40;
  stall.stall_ms = 250;
  plan.frontdoor.push_back(stall);
  fault::ShardFault crash;
  crash.kind = fault::ShardFault::Kind::kCrash;
  crash.shard = -1;  // every shard
  crash.at_event = 500;
  plan.frontdoor.push_back(crash);
  fault::ShardFault slow;
  slow.kind = fault::ShardFault::Kind::kOriginSlow;
  slow.shard = 2;
  slow.factor = 4.0;
  plan.frontdoor.push_back(slow);
  fault::ShardFault burst;
  burst.kind = fault::ShardFault::Kind::kSaturate;
  burst.shard = 0;
  burst.at_event = 10;
  burst.count = 25;
  burst.stall_ms = 2;
  plan.frontdoor.push_back(burst);

  std::string error;
  const auto parsed = fault::FaultPlan::from_json(plan.to_json(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  ASSERT_EQ(parsed->frontdoor.size(), 4u);
  EXPECT_EQ(parsed->frontdoor[0].kind, fault::ShardFault::Kind::kStall);
  EXPECT_EQ(parsed->frontdoor[0].shard, 1);
  EXPECT_EQ(parsed->frontdoor[0].at_event, 40u);
  EXPECT_EQ(parsed->frontdoor[0].stall_ms, 250);
  EXPECT_EQ(parsed->frontdoor[1].kind, fault::ShardFault::Kind::kCrash);
  EXPECT_EQ(parsed->frontdoor[1].shard, -1);
  EXPECT_TRUE(parsed->frontdoor[1].applies_to(0));
  EXPECT_TRUE(parsed->frontdoor[1].applies_to(7));
  EXPECT_EQ(parsed->frontdoor[2].kind, fault::ShardFault::Kind::kOriginSlow);
  EXPECT_DOUBLE_EQ(parsed->frontdoor[2].factor, 4.0);
  EXPECT_EQ(parsed->frontdoor[3].kind, fault::ShardFault::Kind::kSaturate);
  EXPECT_EQ(parsed->frontdoor[3].count, 25u);
  // Round-trip is a fixpoint: serialize-parse-serialize is stable.
  EXPECT_EQ(parsed->to_json(), plan.to_json());
}

TEST(ChaosPlan, RejectsMalformedShardFaults) {
  std::string error;
  EXPECT_FALSE(fault::FaultPlan::from_json(
                   R"({"frontdoor": [{"kind": "meteor"}]})", &error)
                   .has_value());
  EXPECT_NE(error.find("kind"), std::string::npos);
  EXPECT_FALSE(fault::FaultPlan::from_json(
                   R"({"frontdoor": [{"kind": "stall", "stall_ms": 0}]})")
                   .has_value());
  EXPECT_FALSE(fault::FaultPlan::from_json(
                   R"({"frontdoor": [{"kind": "saturate", "stall_ms": 5}]})")
                   .has_value());
  EXPECT_FALSE(fault::FaultPlan::from_json(
                   R"({"frontdoor": [{"kind": "origin_slow", "factor": 0.5}]})")
                   .has_value());
  EXPECT_FALSE(fault::FaultPlan::from_json(
                   R"({"frontdoor": [{"kind": "crash", "shard": -2}]})")
                   .has_value());
  EXPECT_FALSE(
      fault::FaultPlan::from_json(R"({"frontdoor": {}})").has_value());
}

TEST(ChaosPlan, ShardStallFactoryAndFrontdoorOnlyPlansSkipThePipeline) {
  const fault::FaultPlan plan = fault::FaultPlan::shard_stall(0, 30, 400);
  EXPECT_EQ(plan.name, "shard-stall");
  ASSERT_EQ(plan.frontdoor.size(), 1u);
  EXPECT_EQ(plan.frontdoor[0].stall_ms, 400);
  // Shard faults target the worker, not the simulated pipeline: the
  // builder must see this plan as empty and leave the stack undecorated.
  EXPECT_TRUE(plan.pipeline_empty());
  EXPECT_FALSE(plan.empty());
}

// ---------- The chaos harness end to end ----------

sim::FrontDoorLoadConfig chaos_load() {
  sim::FrontDoorLoadConfig load;
  load.sessions = 300;
  load.touches_per_session = 3;
  load.url_universe = 256;
  load.session_arrival_per_s = 300;
  return load;
}

FrontDoorParams chaos_params(bool supervised) {
  FrontDoorParams params;
  params.load = chaos_load();
  params.apply_scaled_admission();
  params.shards = 2;
  params.queue_capacity = 64;       // small: saturation is reachable
  params.enqueue_deadline_ms = 5;   // bounded producer wait
  params.supervisor.enabled = supervised;
  params.supervisor.check_interval_ms = 1;
  params.supervisor.slow_after_ms = 5;
  params.supervisor.wedged_after_ms = 15;
  params.supervisor.hysteresis = {2, 2};
  return params;
}

TEST(ChaosFrontDoor, CrashPlanAccountsForEveryEventAndFailsOver) {
  // Shard 0's worker crashes after 20 events. Supervised: the crash is
  // self-reported, the supervisor force-declares it wedged, and every
  // session first seen afterwards re-routes to shard 1.
  fault::FaultPlan plan;
  plan.name = "crash";
  fault::ShardFault crash;
  crash.kind = fault::ShardFault::Kind::kCrash;
  crash.shard = 0;
  crash.at_event = 20;
  plan.frontdoor.push_back(crash);

  const std::size_t total_events =
      chaos_load().sessions * chaos_load().touches_per_session;
  // A load shard 1 can absorb alone, however slowly it serves: its queue
  // holds the whole timeline and no event goes stale, so the only events
  // either arm sheds are the crashed shard's. Under chaos_params' 64-slot
  // queue and 5 ms freshness budget, a slow (sanitized) shard 1 that takes
  // every failed-over session sheds its own stale events, and the
  // supervised arm can complete fewer requests than the unsupervised one.
  auto crash_params = [&](bool supervised) {
    FrontDoorParams params = chaos_params(supervised);
    params.fault_plan = plan;
    params.queue_capacity = total_events;
    params.enqueue_deadline_ms = 0;
    return params;
  };

  const FrontDoorResult with =
      run_front_door(crash_params(true), FrontDoorMode::kThreaded);
  const FrontDoorResult without =
      run_front_door(crash_params(false), FrontDoorMode::kThreaded);

  for (const FrontDoorResult* r : {&with, &without}) {
    // Nothing vanishes under chaos: every produced event is consumed or
    // shed, and every request resolves to exactly one verdict.
    EXPECT_EQ(r->events, total_events);
    EXPECT_EQ(r->completed + r->rejected + r->failed, r->requests);
  }
  // Both arms lose shard 0 at event 20 and shed its backlog.
  EXPECT_GT(with.shed_events, 0u);
  EXPECT_GT(without.shed_events, 0u);
  EXPECT_TRUE(with.supervised);
  EXPECT_FALSE(without.supervised);
  // Failover only ever adds capacity: the supervised run serves at least
  // what the unsupervised run manages.
  EXPECT_GE(with.completed, without.completed);
  EXPECT_EQ(without.failover_sessions, 0u);
}

TEST(ChaosFrontDoor, StallPlanIsDetectedAndShedsInsteadOfLivelocking) {
  FrontDoorParams params = chaos_params(true);
  // Shard 0 sleeps 300 ms after its 10th event — far past wedged_after, so
  // the watchdog has dozens of sampling periods to see the freeze.
  params.fault_plan = fault::FaultPlan::shard_stall(0, 10, 300);

  const FrontDoorResult r = run_front_door(params, FrontDoorMode::kThreaded);

  EXPECT_EQ(r.events,
            chaos_load().sessions * chaos_load().touches_per_session);
  EXPECT_EQ(r.completed + r.rejected + r.failed, r.requests);
  // The stall was detected (time-to-detect measured from fault onset) and
  // the producer's deadline bounded its wait: no event cost more than
  // roughly deadline + stall, and sheds happened instead of livelock.
  EXPECT_GE(r.wedged_declared, 1u);
  EXPECT_GT(r.first_detect_ms, 0.0);
  EXPECT_GT(r.shed_events, 0u);
  EXPECT_GT(r.deadline_shed_events, 0u);
  EXPECT_GT(r.completed, 0u);
  ASSERT_EQ(r.per_shard.size(), 2u);
  EXPECT_GE(r.per_shard[0].wedged_spells, 1u);
}

TEST(ChaosFrontDoor, SupervisionOnWithNoFaultsKeepsByteIdentity) {
  // The §13 gate, extended: shards=1 threaded must stay byte-identical to
  // inline with the supervisor WATCHING (generous thresholds so a slow CI
  // machine can never trip a spurious wedge — with no fault injected the
  // worker always progresses or idles).
  FrontDoorParams params;
  params.load = chaos_load();
  params.apply_scaled_admission();
  params.shards = 1;
  params.supervisor.enabled = true;
  params.supervisor.check_interval_ms = 2;
  params.supervisor.slow_after_ms = 5'000;
  params.supervisor.wedged_after_ms = 10'000;

  const FrontDoorResult inline_run =
      run_front_door(params, FrontDoorMode::kInline);
  const FrontDoorResult threaded_run =
      run_front_door(params, FrontDoorMode::kThreaded);

  EXPECT_EQ(inline_run.deterministic_json(), threaded_run.deterministic_json());
  EXPECT_EQ(inline_run.fingerprint, threaded_run.fingerprint);
  EXPECT_EQ(threaded_run.shed_events, 0u);
  EXPECT_EQ(threaded_run.failover_sessions, 0u);
  EXPECT_EQ(threaded_run.wedged_declared, 0u);
}

// chaos_matrix's default load (2,000 sessions x 3 touches over 2,048
// objects, seed 1), served fault-free at its two shard counts: the exact
// counts its baseline arm must reproduce, with nothing shed.
TEST(ChaosMatrixGolden, DefaultLoadCountsUnchanged) {
  FrontDoorParams params;
  params.load.sessions = 2000;
  params.load.touches_per_session = 3;
  params.load.url_universe = 2048;
  params.load.session_arrival_per_s = 2000;
  params.apply_scaled_admission();
  const FrontDoorLoad load = build_front_door_load(params.load);
  for (std::size_t shards : {std::size_t{2}, std::size_t{4}}) {
    params.shards = shards;
    const FrontDoorResult r = run_front_door(load, params, FrontDoorMode::kInline);
    EXPECT_EQ(r.events, 6000u) << shards << " shards";
    EXPECT_EQ(r.requests, 11984u) << shards << " shards";
    EXPECT_EQ(r.completed, 11984u) << shards << " shards";
    EXPECT_EQ(r.rejected, 0u) << shards << " shards";
  }
}

}  // namespace
}  // namespace mfhttp
