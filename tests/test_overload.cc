// Tests for the overload-protection subsystem (ISSUE 3): token buckets,
// admission control (bounded queues, priority guards, shedding order),
// brownout hysteresis, the JSON config loader, and the multi-session driver
// (determinism, zero stranded requests, protection beating no protection).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "overload/admission.h"
#include "overload/brownout.h"
#include "overload/config.h"
#include "overload/token_bucket.h"
#include "sim/arrivals.h"
#include "sim/multi_session.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace mfhttp::overload {
namespace {

// ---------- TokenBucket ----------

TEST(TokenBucket, BurstDrainsThenRefillsAtRate) {
  TokenBucket bucket(/*rate_per_s=*/2.0, /*burst=*/2.0);
  EXPECT_TRUE(bucket.enabled());
  EXPECT_TRUE(bucket.try_take(0));
  EXPECT_TRUE(bucket.try_take(0));
  EXPECT_FALSE(bucket.try_take(0));  // burst exhausted
  EXPECT_FALSE(bucket.try_take(400));  // 0.8 tokens accrued — not enough
  EXPECT_TRUE(bucket.try_take(500));   // 1.0 token accrued
  EXPECT_FALSE(bucket.try_take(500));
}

TEST(TokenBucket, LevelIsCappedAtBurst) {
  TokenBucket bucket(/*rate_per_s=*/10.0, /*burst=*/3.0);
  EXPECT_DOUBLE_EQ(bucket.level(0), 3.0);
  EXPECT_DOUBLE_EQ(bucket.level(60'000), 3.0);  // idle forever: still 3
  EXPECT_TRUE(bucket.try_take(60'000));
  EXPECT_DOUBLE_EQ(bucket.level(60'000), 2.0);
}

TEST(TokenBucket, DisabledBucketAlwaysAdmits) {
  TokenBucket bucket(/*rate_per_s=*/0, /*burst=*/0);
  EXPECT_FALSE(bucket.enabled());
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(bucket.try_take(0));
}

TEST(TokenBucket, TimeNeverRunsBackwards) {
  TokenBucket bucket(/*rate_per_s=*/1.0, /*burst=*/1.0);
  EXPECT_TRUE(bucket.try_take(1000));
  // A stale timestamp must not mint tokens (or crash).
  EXPECT_FALSE(bucket.try_take(500));
  EXPECT_FALSE(bucket.try_take(1000));
  EXPECT_TRUE(bucket.try_take(2000));
}

// ---------- AdmissionController: rate limiting & determinism ----------

AdmissionParams rate_limited_params() {
  AdmissionParams p;
  p.global_rate_per_s = 10;
  p.global_burst = 4;
  p.session_rate_per_s = 2;
  p.session_burst = 2;
  p.seed = 7;
  return p;
}

TEST(Admission, SessionBucketIsolatesHotNeighbour) {
  AdmissionController admission(rate_limited_params());
  // Session "hot" burns through its own bucket...
  EXPECT_TRUE(admission.on_request("hot", kPriorityViewport, 0).admitted());
  EXPECT_TRUE(admission.on_request("hot", kPriorityViewport, 0).admitted());
  Decision d = admission.on_request("hot", kPriorityViewport, 0);
  EXPECT_EQ(d.verdict, Verdict::kReject);
  EXPECT_STREQ(d.reason, "session_rate");
  // ...but "cold" still has tokens of its own (and the global bucket has 2).
  EXPECT_TRUE(admission.on_request("cold", kPriorityViewport, 0).admitted());
}

TEST(Admission, GlobalBucketCapsAggregateRate) {
  AdmissionParams p = rate_limited_params();
  p.session_rate_per_s = 0;  // sessions unlimited: only the global gate
  AdmissionController admission(p);
  int admitted = 0;
  for (int i = 0; i < 10; ++i) {
    const std::string session = "s" + std::to_string(i);
    if (admission.on_request(session, kPriorityViewport, 0).admitted()) ++admitted;
  }
  EXPECT_EQ(admitted, 4);  // exactly the global burst
  EXPECT_STREQ(admission.on_request("s0", kPriorityViewport, 0).reason,
               "global_rate");
}

TEST(Admission, DisabledSessionLimitKeepsNoPerSessionState) {
  AdmissionParams p;  // per-session limiting off, as the front door runs it
  p.session_rate_per_s = 0;
  p.session_burst = 0;
  AdmissionController admission(p);
  for (int i = 0; i < 10'000; ++i)
    ASSERT_TRUE(admission.on_request("s" + std::to_string(i), kPriorityViewport, 0)
                    .admitted());
  EXPECT_EQ(admission.session_bucket_count(), 0u);
}

TEST(Admission, EnabledSessionLimitStillLimitsEverySession) {
  AdmissionParams p;
  p.session_rate_per_s = 1;
  p.session_burst = 1;
  AdmissionController admission(p);
  for (int i = 0; i < 10'000; ++i) {
    const std::string session = "s" + std::to_string(i);
    ASSERT_TRUE(admission.on_request(session, kPriorityViewport, 0).admitted());
    const Decision again = admission.on_request(session, kPriorityViewport, 0);
    ASSERT_EQ(again.verdict, Verdict::kReject) << session;
    ASSERT_STREQ(again.reason, "session_rate");
  }
  EXPECT_EQ(admission.session_bucket_count(), 10'000u);
}

// What the controller answered before it learned to forget: every session it
// was ever given keeps its bucket and its deferral count for good. Viewport
// priority only, so neither the brownout ladder nor the guard jitter runs.
class RememberEverySession {
 public:
  explicit RememberEverySession(const AdmissionParams& p)
      : params_(p), global_(p.global_rate_per_s, p.global_burst) {}

  Verdict on_request(const std::string& session, TimeMs now) {
    auto it = buckets_.try_emplace(session, params_.session_rate_per_s,
                                   params_.session_burst)
                  .first;
    if (!it->second.try_take(now)) return Verdict::kReject;
    return global_.try_take(now) ? Verdict::kAdmit : Verdict::kReject;
  }
  bool try_defer(const std::string& session) {
    if (total_ >= params_.max_deferred_global) return false;
    int& n = deferred_[session];
    if (n >= params_.max_deferred_per_session) return false;
    ++n;
    ++total_;
    return true;
  }
  void on_undefer(const std::string& session) {
    --deferred_[session];
    --total_;
  }
  std::size_t sessions() const { return buckets_.size(); }

 private:
  AdmissionParams params_;
  TokenBucket global_;
  std::map<std::string, TokenBucket> buckets_;
  std::map<std::string, int> deferred_;
  int total_ = 0;
};

TEST(Admission, SessionStateIsBoundedByLiveSessions) {
  AdmissionParams p;
  p.global_rate_per_s = 2'500;  // below the offered ~3,000/s: some global rejects
  p.global_burst = 100;
  p.session_rate_per_s = 2;  // a visit's third request finds its bucket empty
  p.session_burst = 2;
  p.max_deferred_per_session = 1;
  p.max_deferred_global = 64;
  AdmissionController admission(p);
  RememberEverySession reference(p);

  // Visit v arrives at v ms and sends three requests, one per ms; the first
  // parks one deferred request, which the third releases. Visits churn
  // through 100k distinct sessions, except that every tenth comes back 300
  // visits later (its bucket still refilling: state that must survive) and
  // every tenth-plus-five 5,000 visits later (long full again: state that
  // may go).
  constexpr int kVisits = 110'000;
  std::vector<std::string> session(kVisits);
  int distinct = 0;
  for (int v = 0; v < kVisits; ++v) {
    if (v % 10 == 0 && v >= 300)
      session[v] = session[v - 300];
    else if (v % 10 == 5 && v >= 5'000)
      session[v] = session[v - 5'000];
    else
      session[v] = "s" + std::to_string(distinct++);
  }
  ASSERT_GE(distinct, 80'000);
  std::vector<bool> deferred(kVisits, false);
  std::size_t max_buckets = 0, max_deferring = 0, rejects = 0, checked = 0;
  for (int t = 0; t < kVisits + 2; ++t) {
    for (int step = 0; step < 3; ++step) {
      const int v = t - step;
      if (v < 0 || v >= kVisits) continue;
      const Verdict got =
          admission.on_request(session[v], kPriorityViewport, t).verdict;
      ASSERT_EQ(got, reference.on_request(session[v], t)) << "visit " << v;
      rejects += got == Verdict::kReject;
      ++checked;
      if (step == 0) {
        deferred[v] = admission.try_defer(session[v]);
        ASSERT_EQ(deferred[v], reference.try_defer(session[v])) << "visit " << v;
      } else if (step == 2 && deferred[v]) {
        admission.on_undefer(session[v]);
        reference.on_undefer(session[v]);
      }
    }
    max_buckets = std::max(max_buckets, admission.session_bucket_count());
    max_deferring = std::max(max_deferring, admission.deferred_session_count());
  }
  EXPECT_EQ(checked, 3u * kVisits);
  EXPECT_GT(rejects, static_cast<std::size_t>(kVisits));  // every third, and more
  EXPECT_EQ(reference.sessions(), static_cast<std::size_t>(distinct));
  // Live sessions: the ~1,000 visits of the last second still refilling,
  // plus what one prune interval admits.
  EXPECT_LE(max_buckets, 1'000 + 2 * AdmissionController::kPruneEvery);
  EXPECT_LE(max_deferring, 3u);
  EXPECT_EQ(admission.deferred_session_count(), 0u);
  EXPECT_EQ(admission.deferred_total(), 0);
}

// Same seed + same request trace => identical admit trace. The guard jitter
// is the only stochastic ingredient; it must come from the seeded Rng.
TEST(Admission, SameSeedSameAdmitTrace) {
  auto run_trace = [] {
    AdmissionController admission(rate_limited_params());
    std::vector<int> verdicts;
    Rng rng(99);  // request trace generator, independent of the controller
    for (int i = 0; i < 200; ++i) {
      const std::string session = "s" + std::to_string(i % 5);
      const int priority = static_cast<int>(rng.uniform(0, 4));
      const TimeMs now = static_cast<TimeMs>(i * 37 % 5000);
      verdicts.push_back(
          static_cast<int>(admission.on_request(session, priority, now).verdict));
    }
    return verdicts;
  };
  EXPECT_EQ(run_trace(), run_trace());
}

TEST(Admission, PriorityGuardReservesBucketTailForCriticalWork) {
  AdmissionParams p;
  p.global_rate_per_s = 10;
  p.global_burst = 10;
  p.session_rate_per_s = 0;
  p.guard_jitter = 0;  // exact thresholds for the assertion
  AdmissionController admission(p);
  // Drain the global bucket to 4/10 = 40%: below the speculative guard (50%)
  // but above the transient guard (25%).
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(admission.on_request("a", kPriorityViewport, 0).admitted());
  }
  Decision spec = admission.on_request("a", kPrioritySpeculative, 0);
  EXPECT_EQ(spec.verdict, Verdict::kReject);
  EXPECT_STREQ(spec.reason, "priority_guard");
  EXPECT_TRUE(admission.on_request("a", kPriorityTransient, 0).admitted());
  EXPECT_TRUE(admission.on_request("a", kPriorityViewport, 0).admitted());
  // Now at 2/10 = 20%: transient falls below its guard too, viewport passes.
  EXPECT_STREQ(admission.on_request("a", kPriorityTransient, 0).reason,
               "priority_guard");
  EXPECT_TRUE(admission.on_request("a", kPriorityViewport, 0).admitted());
}

// ---------- AdmissionController: bounded queues & concurrency ----------

TEST(Admission, DeferredQueueBoundsPerSessionAndGlobal) {
  AdmissionParams p;
  p.max_deferred_per_session = 2;
  p.max_deferred_global = 3;
  AdmissionController admission(p);
  EXPECT_TRUE(admission.try_defer("a"));
  EXPECT_TRUE(admission.try_defer("a"));
  EXPECT_FALSE(admission.try_defer("a"));  // per-session bound
  EXPECT_TRUE(admission.try_defer("b"));
  EXPECT_FALSE(admission.try_defer("b"));  // global bound (3 parked)
  EXPECT_EQ(admission.deferred_total(), 3);

  admission.on_undefer("a");
  EXPECT_TRUE(admission.try_defer("b"));  // global room again
  admission.on_undefer("missing-session");  // harmless no-op
  EXPECT_EQ(admission.deferred_total(), 3);
}

TEST(Admission, UpstreamSlotsAreAHardCap) {
  AdmissionParams p;
  p.max_inflight_upstream = 2;
  AdmissionController admission(p);
  EXPECT_TRUE(admission.try_acquire_upstream());
  EXPECT_TRUE(admission.try_acquire_upstream());
  EXPECT_FALSE(admission.try_acquire_upstream());
  EXPECT_EQ(admission.inflight_upstream(), 2);
  admission.release_upstream();
  EXPECT_TRUE(admission.try_acquire_upstream());
}

TEST(Admission, DispatchRoomHonoursBound) {
  AdmissionParams p;
  p.max_dispatch_queue = 2;
  AdmissionController admission(p);
  EXPECT_TRUE(admission.has_dispatch_room(0));
  EXPECT_TRUE(admission.has_dispatch_room(1));
  EXPECT_FALSE(admission.has_dispatch_room(2));
  p.max_dispatch_queue = 0;  // unbounded
  AdmissionController unbounded(p);
  EXPECT_TRUE(unbounded.has_dispatch_room(1'000'000));
}

// ---------- AdmissionController: brownout shedding order ----------

TEST(Admission, SheddingOrderSpeculativeFirstStructureNever) {
  AdmissionController admission((AdmissionParams{}));  // only the brownout gate

  admission.set_brownout_level(BrownoutLevel::kNoSpeculation);
  EXPECT_EQ(admission.on_request("s", kPrioritySpeculative, 0).verdict,
            Verdict::kShed);
  EXPECT_TRUE(admission.on_request("s", kPriorityTransient, 0).admitted());
  EXPECT_TRUE(admission.on_request("s", kPriorityViewport, 0).admitted());
  EXPECT_TRUE(admission.on_request("s", kPriorityStructure, 0).admitted());

  admission.set_brownout_level(BrownoutLevel::kLowResOnly);
  EXPECT_EQ(admission.on_request("s", kPrioritySpeculative, 0).verdict,
            Verdict::kShed);
  EXPECT_EQ(admission.on_request("s", kPriorityTransient, 0).verdict,
            Verdict::kShed);
  EXPECT_TRUE(admission.on_request("s", kPriorityViewport, 0).admitted());
  EXPECT_TRUE(admission.on_request("s", kPriorityStructure, 0).admitted());

  admission.set_brownout_level(BrownoutLevel::kShed);
  EXPECT_EQ(admission.on_request("s", kPriorityViewport, 0).verdict,
            Verdict::kShed);
  EXPECT_STREQ(admission.on_request("s", kPriorityViewport, 0).reason,
               "brownout");
  // A page that loads nothing is worse than a slow page: structure survives
  // even the deepest brownout.
  EXPECT_TRUE(admission.on_request("s", kPriorityStructure, 0).admitted());

  admission.set_brownout_level(BrownoutLevel::kNormal);
  EXPECT_TRUE(admission.on_request("s", kPrioritySpeculative, 0).admitted());
}

// ---------- BrownoutSupervisor ----------

struct BrownoutFixture : public ::testing::Test {
  BrownoutParams fast_params() {
    BrownoutParams p;
    p.tick_ms = 100;
    p.queue_depth_high = 10;
    p.deferred_age_high_ms = 1000;
    p.goodput_floor = 50'000;
    p.hysteresis = {/*enter_after=*/2, /*exit_after=*/3};
    return p;
  }

  Simulator sim;
  BrownoutSignals signals;  // mutated by the test; read by the sampler
};

TEST_F(BrownoutFixture, EnterNeedsConsecutiveBadTicks) {
  BrownoutSupervisor supervisor(sim, fast_params(), [this] { return signals; });
  std::vector<int> changes;
  supervisor.start([&](BrownoutLevel l) { changes.push_back(static_cast<int>(l)); });
  ASSERT_EQ(changes.size(), 1u);  // aligned immediately at kNormal
  EXPECT_EQ(changes[0], 0);

  signals.goodput = 100'000;  // healthy link: keep that signal quiet
  signals.queue_depth = 50;   // one threshold breached: pressure 1
  sim.run_until(100);
  EXPECT_EQ(supervisor.level(), BrownoutLevel::kNormal);  // 1 bad tick: holds
  EXPECT_EQ(supervisor.last_pressure(), 1);
  sim.run_until(200);
  EXPECT_EQ(supervisor.level(), BrownoutLevel::kNoSpeculation);  // 2nd flips
  ASSERT_EQ(changes.size(), 2u);
  EXPECT_EQ(changes[1], 1);
  supervisor.stop();
}

TEST_F(BrownoutFixture, ExitNeedsLongerGoodStreakThanEntry) {
  BrownoutSupervisor supervisor(sim, fast_params(), [this] { return signals; });
  supervisor.start(nullptr);
  signals.goodput = 100'000;
  signals.queue_depth = 50;
  sim.run_until(200);
  ASSERT_EQ(supervisor.level(), BrownoutLevel::kNoSpeculation);

  signals.queue_depth = 0;  // pressure clears immediately...
  sim.run_until(400);
  EXPECT_EQ(supervisor.level(), BrownoutLevel::kNoSpeculation);  // 2 good: holds
  sim.run_until(500);
  EXPECT_EQ(supervisor.level(), BrownoutLevel::kNormal);  // 3rd good tick exits
  supervisor.stop();
}

TEST_F(BrownoutFixture, DeepPressureEscalatesOneLevelPerEnterWindow) {
  BrownoutSupervisor supervisor(sim, fast_params(), [this] { return signals; });
  supervisor.start(nullptr);
  // All three thresholds breached at once: queue deep, parked work old, link
  // moving nothing while loaded.
  signals.queue_depth = 50;
  signals.max_deferred_age_ms = 5000;
  signals.goodput = 0;
  signals.inflight = 4;
  sim.run_until(200);
  EXPECT_EQ(supervisor.level(), BrownoutLevel::kShed);  // straight to level 3
  EXPECT_EQ(supervisor.last_pressure(), 3);
  supervisor.stop();
}

TEST_F(BrownoutFixture, IdleLinkWithLowGoodputIsNotPressure) {
  BrownoutSupervisor supervisor(sim, fast_params(), [this] { return signals; });
  supervisor.start(nullptr);
  signals.goodput = 0;  // nothing queued, nothing in flight: legitimately idle
  sim.run_until(1000);
  EXPECT_EQ(supervisor.level(), BrownoutLevel::kNormal);
  EXPECT_EQ(supervisor.last_pressure(), 0);
  supervisor.stop();
}

TEST_F(BrownoutFixture, StopCancelsTicksSoTheQueueDrains) {
  BrownoutSupervisor supervisor(sim, fast_params(), [this] { return signals; });
  supervisor.start(nullptr);
  sim.schedule_at(250, [&] { supervisor.stop(); });
  sim.run();  // must terminate — no self-rearming tick may survive stop()
  EXPECT_EQ(sim.now(), 250);
}

// ---------- OverloadConfig ----------

TEST(OverloadConfig, RoundTripsThroughJson) {
  OverloadConfig config;
  config.admission.global_rate_per_s = 120;
  config.admission.global_burst = 40;
  config.admission.max_inflight_upstream = 16;
  config.admission.seed = 99;
  config.brownout.tick_ms = 125;
  config.brownout.queue_depth_high = 7;
  config.brownout.hysteresis = {3, 5};

  std::string error;
  auto parsed = OverloadConfig::from_json(config.to_json(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_DOUBLE_EQ(parsed->admission.global_rate_per_s, 120);
  EXPECT_DOUBLE_EQ(parsed->admission.global_burst, 40);
  EXPECT_EQ(parsed->admission.max_inflight_upstream, 16);
  EXPECT_EQ(parsed->admission.seed, 99u);
  EXPECT_EQ(parsed->brownout.tick_ms, 125);
  EXPECT_EQ(parsed->brownout.queue_depth_high, 7);
  EXPECT_EQ(parsed->brownout.hysteresis.enter_after, 3);
  EXPECT_EQ(parsed->brownout.hysteresis.exit_after, 5);
}

TEST(OverloadConfig, AbsentFieldsKeepDefaults) {
  std::string error;
  auto parsed = OverloadConfig::from_json("{}", &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  const OverloadConfig defaults;
  EXPECT_DOUBLE_EQ(parsed->admission.global_rate_per_s,
                   defaults.admission.global_rate_per_s);
  EXPECT_EQ(parsed->brownout.tick_ms, defaults.brownout.tick_ms);
}

TEST(OverloadConfig, MalformedJsonReportsLineAndColumn) {
  std::string error;
  auto parsed = OverloadConfig::from_json("{\n  \"admission\": {\n    oops\n", &error);
  EXPECT_FALSE(parsed.has_value());
  EXPECT_NE(error.find("line 3"), std::string::npos) << error;
  EXPECT_NE(error.find("column"), std::string::npos) << error;
}

TEST(OverloadConfig, SchemaViolationNamesTheField) {
  std::string error;
  auto parsed = OverloadConfig::from_json(
      R"({"admission": {"global_rate_per_s": "fast"}})", &error);
  EXPECT_FALSE(parsed.has_value());
  EXPECT_NE(error.find("global_rate_per_s"), std::string::npos) << error;
}

// ---------- Arrival schedules ----------

TEST(Arrivals, PoissonScheduleIsSeedDeterministicAndOrdered) {
  ArrivalParams p{/*rate_per_s=*/5.0, /*start_ms=*/0, /*horizon_ms=*/10'000};
  Rng a(42), b(42), c(43);
  const std::vector<TimeMs> first = poisson_arrivals(p, a);
  EXPECT_EQ(first, poisson_arrivals(p, b));
  EXPECT_NE(first, poisson_arrivals(p, c));
  ASSERT_FALSE(first.empty());
  for (std::size_t i = 1; i < first.size(); ++i) {
    EXPECT_GT(first[i], first[i - 1]);  // strictly increasing
  }
  EXPECT_LT(first.back(), 10'000);
}

// ---------- Multi-session driver ----------

MultiSessionConfig small_config(Protection arm) {
  MultiSessionConfig config;
  config.sessions = 12;
  config.rate_per_session_per_s = 2.0;
  config.horizon_ms = 3000;
  config.protection = arm;
  return config;
}

TEST(MultiSession, NoArmStrandsARequest) {
  for (Protection arm :
       {Protection::kNone, Protection::kBoundedOnly, Protection::kFull}) {
    MultiSessionResult r = run_multi_session(small_config(arm));
    EXPECT_EQ(r.stranded, 0u) << to_string(arm);
    EXPECT_EQ(r.completed + r.rejected + r.shed + r.failed, r.requests)
        << to_string(arm);
  }
}

TEST(MultiSession, SameSeedSameResult) {
  const MultiSessionResult a = run_multi_session(small_config(Protection::kFull));
  const MultiSessionResult b = run_multi_session(small_config(Protection::kFull));
  EXPECT_EQ(a.to_json(), b.to_json());
}

TEST(MultiSession, ProtectionBeatsNoProtectionUnderOverload) {
  const MultiSessionResult none = run_multi_session(small_config(Protection::kNone));
  const MultiSessionResult full = run_multi_session(small_config(Protection::kFull));
  EXPECT_GT(full.goodput_bytes_per_s, none.goodput_bytes_per_s);
  EXPECT_GT(full.shed_ratio, 0.0);  // protection is doing something
}

}  // namespace
}  // namespace mfhttp::overload
