// Tests for the resilience layer: circuit breaker state machine, resilient
// fetcher (retries, timeouts, backoff, breaker wiring, header suppression),
// the proxy's deferred-queue watchdog and upstream-death propagation, the
// graceful-degradation hooks, and the ISSUE 2 acceptance scenario (sessions
// survive the lossy-cellular plan; without resilience they strand requests).
#include <gtest/gtest.h>

#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "fault/degradation.h"
#include "fault/fault_plan.h"
#include "fault/faulty_fetcher.h"
#include "http/circuit_breaker.h"
#include "obs/metrics.h"
#include "http/proxy.h"
#include "http/resilient_fetcher.h"
#include "http/sim_http.h"
#include "video/session.h"
#include "web/corpus.h"
#include "web/experiment.h"

namespace mfhttp {
namespace {

// ---------- CircuitBreaker ----------

TEST(CircuitBreaker, OpensAfterThresholdAndProbesAfterCooldown) {
  CircuitBreaker::Params p;
  p.failure_threshold = 3;
  p.open_ms = 1000;
  CircuitBreaker breaker(p);

  EXPECT_TRUE(breaker.allow("a", 0));
  breaker.record_failure("a", 0);
  breaker.record_failure("a", 1);
  EXPECT_EQ(breaker.state("a"), CircuitBreaker::State::kClosed);
  breaker.record_failure("a", 2);
  EXPECT_EQ(breaker.state("a"), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.allow("a", 500));  // cooling down

  // Past the cool-down: exactly one probe admitted.
  EXPECT_TRUE(breaker.allow("a", 1500));
  EXPECT_EQ(breaker.state("a"), CircuitBreaker::State::kHalfOpen);
  EXPECT_FALSE(breaker.allow("a", 1600));  // second probe refused
  breaker.record_success("a", 1700);
  EXPECT_EQ(breaker.state("a"), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.allow("a", 1800));
}

TEST(CircuitBreaker, ProbeFailureReopens) {
  CircuitBreaker::Params p;
  p.failure_threshold = 1;
  p.open_ms = 100;
  CircuitBreaker breaker(p);
  breaker.record_failure("a", 0);
  EXPECT_TRUE(breaker.allow("a", 200));  // probe
  breaker.record_failure("a", 210);
  EXPECT_EQ(breaker.state("a"), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.allow("a", 250));
}

TEST(CircuitBreaker, AbandonFreesProbeSlot) {
  CircuitBreaker::Params p;
  p.failure_threshold = 1;
  p.open_ms = 100;
  CircuitBreaker breaker(p);
  breaker.record_failure("a", 0);
  EXPECT_TRUE(breaker.allow("a", 200));
  EXPECT_FALSE(breaker.allow("a", 210));  // probe in flight
  breaker.abandon("a");                   // caller cancelled it
  EXPECT_TRUE(breaker.allow("a", 220));   // slot free again
}

TEST(CircuitBreaker, KeysAreIndependent) {
  CircuitBreaker::Params p;
  p.failure_threshold = 1;
  CircuitBreaker breaker(p);
  breaker.record_failure("a", 0);
  EXPECT_FALSE(breaker.allow("a", 10));
  EXPECT_TRUE(breaker.allow("b", 10));
}

TEST(CircuitBreaker, TransitionObserverSeesEveryEdge) {
  CircuitBreaker::Params p;
  p.failure_threshold = 1;
  p.open_ms = 100;
  CircuitBreaker breaker(p);
  std::vector<std::string> edges;
  breaker.set_on_transition([&](const std::string& key, CircuitBreaker::State from,
                                CircuitBreaker::State to) {
    edges.push_back(key + ":" + CircuitBreaker::state_name(from) + ">" +
                    CircuitBreaker::state_name(to));
  });
  breaker.record_failure("a", 0);
  breaker.allow("a", 200);
  breaker.record_success("a", 210);
  ASSERT_EQ(edges.size(), 3u);
  EXPECT_EQ(edges[0], "a:closed>open");
  EXPECT_EQ(edges[1], "a:open>half-open");
  EXPECT_EQ(edges[2], "a:half-open>closed");
}

// ---------- ResilientFetcher over a scripted fetcher ----------

// Plays back a scripted sequence of outcomes, one per fetch() call.
class ScriptedFetcher : public HttpFetcher {
 public:
  struct Step {
    int status = 200;
    Bytes advertised = 1000;  // body size the headers claim
    Bytes delivered = 1000;   // what on_complete reports
    TimeMs delay_ms = 20;     // request to completion
    bool hang = false;        // never answer (timeout fodder)
  };

  ScriptedFetcher(Simulator& sim, std::vector<Step> script)
      : sim_(sim), script_(script.begin(), script.end()) {}

  FetchId fetch(const HttpRequest& request, FetchCallbacks callbacks) override {
    ++fetches;
    Step step;
    if (!script_.empty()) {
      step = script_.front();
      script_.pop_front();
    }
    FetchId id = next_id_++;
    if (step.hang) {
      live_[id] = Simulator::kInvalidEvent;
      return id;
    }
    auto fire = [this, id, step, request,
                 cbs = std::move(callbacks)]() mutable {
      live_.erase(id);
      if (cbs.on_headers) cbs.on_headers({step.status, step.advertised, "", ""});
      if (cbs.on_progress && step.delivered > 0)
        cbs.on_progress(step.delivered, step.delivered, step.advertised);
      FetchResult r;
      r.url = request.target;
      r.status = step.status;
      r.body_size = step.delivered;
      r.request_ms = sim_.now() - step.delay_ms;
      r.complete_ms = sim_.now();
      cbs.on_complete(r);
    };
    live_[id] = sim_.schedule_after(step.delay_ms, std::move(fire));
    return id;
  }

  bool cancel(FetchId id) override {
    auto it = live_.find(id);
    if (it == live_.end()) return false;
    if (it->second != Simulator::kInvalidEvent) sim_.cancel(it->second);
    live_.erase(it);
    ++cancels;
    return true;
  }

  int fetches = 0;
  int cancels = 0;

 private:
  Simulator& sim_;
  std::deque<Step> script_;
  FetchId next_id_ = 1;
  std::unordered_map<FetchId, Simulator::EventId> live_;
};

ScriptedFetcher::Step ok(Bytes size = 1000) { return {200, size, size, 20, false}; }
ScriptedFetcher::Step err(int status) { return {status, 64, 64, 20, false}; }
ScriptedFetcher::Step hang() { return {0, 0, 0, 0, true}; }

struct ResilienceFixture : public ::testing::Test {
  FetchResult fetch_and_wait(ResilientFetcher& fetcher,
                             const std::string& url = "http://o.example/x") {
    std::optional<FetchResult> out;
    FetchCallbacks cbs;
    cbs.on_complete = [&](const FetchResult& r) { out = r; };
    fetcher.fetch(HttpRequest::get(url), std::move(cbs));
    sim.run();
    EXPECT_TRUE(out.has_value());
    return out.value_or(FetchResult{});
  }

  Simulator sim;
};

TEST_F(ResilienceFixture, RetriesUntilSuccess) {
  ScriptedFetcher inner(sim, {err(503), err(502), ok()});
  ResilientFetcher fetcher(sim, &inner);
  FetchResult r = fetch_and_wait(fetcher);
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.body_size, 1000);
  EXPECT_EQ(r.request_ms, 0);  // latency spans all three attempts
  EXPECT_EQ(inner.fetches, 3);
  EXPECT_EQ(fetcher.inflight(), 0u);
}

TEST_F(ResilienceFixture, ForwardsLastFailureWhenAttemptsExhausted) {
  ScriptedFetcher inner(sim, {err(503), err(503), err(429)});
  ResilientFetcher::Params p;
  p.max_attempts = 3;
  ResilientFetcher fetcher(sim, &inner, p);
  FetchResult r = fetch_and_wait(fetcher);
  EXPECT_EQ(r.status, 429);  // the last attempt's status, not the first's
  EXPECT_EQ(inner.fetches, 3);
}

TEST_F(ResilienceFixture, TerminalStatusesAreNotRetried) {
  ScriptedFetcher inner(sim, {err(404), ok()});
  ResilientFetcher fetcher(sim, &inner);
  FetchResult r = fetch_and_wait(fetcher);
  EXPECT_EQ(r.status, 404);
  EXPECT_EQ(inner.fetches, 1);
}

TEST_F(ResilienceFixture, TimeoutSynthesizes504ThenRetryRecovers) {
  ScriptedFetcher inner(sim, {hang(), ok()});
  ResilientFetcher::Params p;
  p.attempt_timeout_ms = 200;
  ResilientFetcher fetcher(sim, &inner, p);
  FetchResult r = fetch_and_wait(fetcher);
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(inner.fetches, 2);
  EXPECT_EQ(inner.cancels, 1);  // the hung attempt was torn down
  EXPECT_GE(r.complete_ms, 200);
}

TEST_F(ResilienceFixture, TimeoutExhaustionYields504) {
  ScriptedFetcher inner(sim, {hang(), hang()});
  ResilientFetcher::Params p;
  p.max_attempts = 2;
  p.attempt_timeout_ms = 100;
  ResilientFetcher fetcher(sim, &inner, p);
  FetchResult r = fetch_and_wait(fetcher);
  EXPECT_EQ(r.status, 504);
  EXPECT_EQ(inner.fetches, 2);
}

TEST_F(ResilienceFixture, TruncatedBodyRetriedWhenEnabled) {
  // 200 with fewer bytes than the headers advertised.
  ScriptedFetcher inner(sim, {{200, 1000, 400, 20, false}, ok()});
  ResilientFetcher fetcher(sim, &inner);
  FetchResult r = fetch_and_wait(fetcher);
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.body_size, 1000);
  EXPECT_EQ(inner.fetches, 2);
}

TEST_F(ResilienceFixture, TruncatedBodyForwardedWhenDisabled) {
  ScriptedFetcher inner(sim, {{200, 1000, 400, 20, false}, ok()});
  ResilientFetcher::Params p;
  p.retry_truncated = false;
  ResilientFetcher fetcher(sim, &inner, p);
  FetchResult r = fetch_and_wait(fetcher);
  EXPECT_EQ(r.body_size, 400);
  EXPECT_EQ(inner.fetches, 1);
}

TEST_F(ResilienceFixture, RetryableHeadersSuppressedUntilFinalAttempt) {
  ScriptedFetcher inner(sim, {err(503), ok()});
  ResilientFetcher fetcher(sim, &inner);
  std::vector<int> header_statuses;
  FetchCallbacks cbs;
  cbs.on_headers = [&](const SimResponseMeta& m) {
    header_statuses.push_back(m.status);
  };
  cbs.on_complete = [](const FetchResult&) {};
  fetcher.fetch(HttpRequest::get("http://o.example/x"), std::move(cbs));
  sim.run();
  // The 503's headers never reached the caller — only the final 200's did.
  ASSERT_EQ(header_statuses.size(), 1u);
  EXPECT_EQ(header_statuses[0], 200);
}

TEST_F(ResilienceFixture, BreakerOpenFastFailsWithoutTouchingInner) {
  ScriptedFetcher inner(sim, {err(503), err(503)});
  ResilientFetcher::Params p;
  p.max_attempts = 1;  // one attempt per fetch, to count failures plainly
  p.breaker.failure_threshold = 2;
  p.breaker.open_ms = 10'000;
  ResilientFetcher fetcher(sim, &inner, p);
  fetch_and_wait(fetcher);
  fetch_and_wait(fetcher);
  EXPECT_EQ(inner.fetches, 2);

  FetchResult r = fetch_and_wait(fetcher);  // breaker now open
  EXPECT_EQ(r.status, 503);
  EXPECT_EQ(inner.fetches, 2);  // never reached the origin
}

TEST_F(ResilienceFixture, DegradedCallbackFiresOnOpenAndClose) {
  ScriptedFetcher inner(sim, {err(503), ok()});
  ResilientFetcher::Params p;
  p.max_attempts = 1;
  p.breaker.failure_threshold = 1;
  p.breaker.open_ms = 100;
  ResilientFetcher fetcher(sim, &inner, p);
  std::vector<std::pair<std::string, bool>> events;
  fetcher.set_degraded_callback([&](const std::string& host, bool open) {
    events.emplace_back(host, open);
  });
  fetch_and_wait(fetcher);  // fails, opens the breaker
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0], (std::pair<std::string, bool>{"o.example", true}));

  // After the cool-down the probe succeeds and the breaker fully closes.
  std::optional<FetchResult> out;
  sim.schedule_at(500, [&] {
    FetchCallbacks cbs;
    cbs.on_complete = [&](const FetchResult& r) { out = r; };
    fetcher.fetch(HttpRequest::get("http://o.example/x"), std::move(cbs));
  });
  sim.run();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->status, 200);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1], (std::pair<std::string, bool>{"o.example", false}));
}

TEST_F(ResilienceFixture, CancelMidBackoffSilencesEverything) {
  ScriptedFetcher inner(sim, {err(503), ok()});
  ResilientFetcher::Params p;
  p.backoff_base_ms = 500;
  ResilientFetcher fetcher(sim, &inner, p);
  int calls = 0;
  FetchCallbacks cbs;
  cbs.on_complete = [&](const FetchResult&) { ++calls; };
  auto id = fetcher.fetch(HttpRequest::get("http://o.example/x"), std::move(cbs));
  // Let the first attempt fail, then cancel during the backoff window.
  sim.schedule_at(50, [&] { EXPECT_TRUE(fetcher.cancel(id)); });
  sim.run();
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(inner.fetches, 1);
  EXPECT_EQ(fetcher.inflight(), 0u);
}

TEST_F(ResilienceFixture, BackoffDelaysGrowBetweenAttempts) {
  ScriptedFetcher inner(sim, {err(503), err(503), err(503)});
  ResilientFetcher::Params p;
  p.max_attempts = 3;
  p.backoff_base_ms = 400;
  p.backoff_jitter = 0;  // deterministic spacing for the assertion
  ResilientFetcher fetcher(sim, &inner, p);
  FetchResult r = fetch_and_wait(fetcher);
  EXPECT_EQ(r.status, 503);
  // Attempt 1 at 0, attempt 2 after 400 ms, attempt 3 after another 800 ms,
  // plus 20 ms per attempt for the scripted response.
  EXPECT_GE(r.complete_ms, 400 + 800 + 3 * 20);
}

// A probe whose fetch never answers must not wedge the breaker half-open
// forever: the per-attempt deadline synthesizes a 504, records the failure,
// and the breaker reopens — freeing the probe slot for the next cool-down.
TEST_F(ResilienceFixture, HungHalfOpenProbeFreedByAttemptDeadline) {
  ScriptedFetcher inner(sim, {err(503), hang(), ok()});
  ResilientFetcher::Params p;
  p.max_attempts = 1;
  p.attempt_timeout_ms = 200;
  p.breaker.failure_threshold = 1;
  p.breaker.open_ms = 300;
  ResilientFetcher fetcher(sim, &inner, p);

  std::vector<int> statuses;
  auto fetch_at = [&](TimeMs at) {
    sim.schedule_at(at, [&] {
      FetchCallbacks cbs;
      cbs.on_complete = [&](const FetchResult& r) { statuses.push_back(r.status); };
      fetcher.fetch(HttpRequest::get("http://o.example/x"), std::move(cbs));
    });
  };
  fetch_at(0);     // fails fast: breaker opens at ~20 ms
  fetch_at(500);   // past cool-down: the probe — and it hangs
  fetch_at(1200);  // past the reopened breaker's cool-down (~700 + 300)
  sim.run();

  ASSERT_EQ(statuses.size(), 3u);
  EXPECT_EQ(statuses[0], 503);
  EXPECT_EQ(statuses[1], 504);  // deadline killed the hung probe
  EXPECT_EQ(statuses[2], 200);  // slot was free: the next probe got through
  EXPECT_EQ(inner.fetches, 3);  // the third fetch reached the origin
  EXPECT_EQ(inner.cancels, 1);  // the hung attempt was torn down
  EXPECT_EQ(fetcher.breaker().state("o.example"), CircuitBreaker::State::kClosed);
  EXPECT_EQ(fetcher.inflight(), 0u);
}

// ---------- MitmProxy: watchdog & upstream-death propagation ----------

struct WatchdogFixture : public ::testing::Test {
  void build(MitmProxy::Params params) {
    Link::Params sp;
    sp.bandwidth = BandwidthTrace::constant(1'000'000);
    server_link.emplace(sim, sp);
    Link::Params cp;
    cp.bandwidth = BandwidthTrace::constant(100'000);
    client_link.emplace(sim, cp);
    store.put("/img/a.jpg", 30'000, "image/jpeg");
    origin.emplace(sim, &store, &*server_link);
    proxy.emplace(sim, &*origin, &*client_link, params);
  }

  Simulator sim;
  ObjectStore store;
  std::optional<Link> server_link;
  std::optional<Link> client_link;
  std::optional<SimHttpOrigin> origin;
  std::optional<MitmProxy> proxy;
};

class DeferAll : public Interceptor {
 public:
  InterceptDecision on_request(const HttpRequest&) override {
    return InterceptDecision::defer();
  }
};

TEST_F(WatchdogFixture, ReleaseActionForceReleasesParkedRequest) {
  MitmProxy::Params params;
  params.defer_timeout_ms = 2000;
  build(params);
  DeferAll deferrer;
  proxy->set_interceptor(&deferrer);
  std::optional<FetchResult> out;
  FetchCallbacks cbs;
  cbs.on_complete = [&](const FetchResult& r) { out = r; };
  proxy->fetch(HttpRequest::get("http://s.example/img/a.jpg"), std::move(cbs));
  sim.run_until(1999);
  EXPECT_FALSE(out.has_value());  // still parked
  sim.run();
  ASSERT_TRUE(out.has_value());  // watchdog released it upstream
  EXPECT_EQ(out->status, 200);
  EXPECT_EQ(out->body_size, 30'000);
  EXPECT_GE(out->complete_ms, 2000);
  EXPECT_EQ(proxy->deferred_depth(), 0u);
}

TEST_F(WatchdogFixture, FailActionCompletesWithConfiguredStatus) {
  MitmProxy::Params params;
  params.defer_timeout_ms = 2000;
  params.defer_timeout_action = MitmProxy::Params::DeferTimeoutAction::kFail;
  build(params);
  DeferAll deferrer;
  proxy->set_interceptor(&deferrer);
  std::optional<FetchResult> out;
  FetchCallbacks cbs;
  cbs.on_complete = [&](const FetchResult& r) { out = r; };
  proxy->fetch(HttpRequest::get("http://s.example/img/a.jpg"), std::move(cbs));
  sim.run();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->status, 504);
  EXPECT_FALSE(out->blocked);  // a fault, not middleware policy
  EXPECT_EQ(out->body_size, 0);
  EXPECT_EQ(proxy->deferred_depth(), 0u);
}

TEST_F(WatchdogFixture, FailActionCountsDeferTimeouts) {
  const std::uint64_t before =
      obs::metrics().counter_value("http.proxy.defer_timeouts_total");
  MitmProxy::Params params;
  params.defer_timeout_ms = 1000;
  params.defer_timeout_action = MitmProxy::Params::DeferTimeoutAction::kFail;
  build(params);
  DeferAll deferrer;
  proxy->set_interceptor(&deferrer);
  FetchCallbacks cbs;
  cbs.on_complete = [](const FetchResult&) {};
  proxy->fetch(HttpRequest::get("http://s.example/img/a.jpg"), std::move(cbs));
  sim.run();
  EXPECT_EQ(obs::metrics().counter_value("http.proxy.defer_timeouts_total"),
            before + 1);
}

TEST_F(WatchdogFixture, ReleaseAfterFailWatchdogFiredIsANoOp) {
  MitmProxy::Params params;
  params.defer_timeout_ms = 1000;
  params.defer_timeout_action = MitmProxy::Params::DeferTimeoutAction::kFail;
  build(params);
  DeferAll deferrer;
  proxy->set_interceptor(&deferrer);
  int completes = 0;
  std::optional<FetchResult> out;
  FetchCallbacks cbs;
  cbs.on_complete = [&](const FetchResult& r) {
    ++completes;
    out = r;
  };
  proxy->fetch(HttpRequest::get("http://s.example/img/a.jpg"), std::move(cbs));
  // The watchdog fails the request at 1000; this release loses the race.
  sim.schedule_at(1500, [&] {
    EXPECT_EQ(proxy->release("http://s.example/img/a.jpg"), 0u);
  });
  sim.run();
  EXPECT_EQ(completes, 1);  // exactly one completion, from the watchdog
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->status, 504);
}

TEST_F(WatchdogFixture, ReleaseRacingFiredReleaseWatchdogDoesNotDoubleStart) {
  MitmProxy::Params params;
  params.defer_timeout_ms = 1000;  // kRelease: force-released upstream at 1000
  build(params);
  DeferAll deferrer;
  proxy->set_interceptor(&deferrer);
  int completes = 0;
  std::optional<FetchResult> out;
  FetchCallbacks cbs;
  cbs.on_complete = [&](const FetchResult& r) {
    ++completes;
    out = r;
  };
  proxy->fetch(HttpRequest::get("http://s.example/img/a.jpg"), std::move(cbs));
  // While the watchdog's forced release is mid-flight upstream, an explicit
  // release arrives: the request is no longer deferred, so it matches
  // nothing — no second upstream fetch, no second completion.
  sim.schedule_at(1200, [&] {
    EXPECT_EQ(proxy->release("http://s.example/img/a.jpg"), 0u);
  });
  sim.run();
  EXPECT_EQ(completes, 1);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->status, 200);  // the forced release served it normally
  EXPECT_EQ(out->body_size, 30'000);
  // The losing release matched nothing, so the released stat stays 0 — the
  // forced release is counted under defer_timeouts_total instead.
  EXPECT_EQ(proxy->stats().released, 0u);
}

TEST_F(WatchdogFixture, ExplicitReleaseDisarmsWatchdog) {
  MitmProxy::Params params;
  params.defer_timeout_ms = 2000;
  params.defer_timeout_action = MitmProxy::Params::DeferTimeoutAction::kFail;
  build(params);
  DeferAll deferrer;
  proxy->set_interceptor(&deferrer);
  int completes = 0;
  std::optional<FetchResult> out;
  FetchCallbacks cbs;
  cbs.on_complete = [&](const FetchResult& r) {
    ++completes;
    out = r;
  };
  proxy->fetch(HttpRequest::get("http://s.example/img/a.jpg"), std::move(cbs));
  sim.schedule_at(100, [&] {
    EXPECT_EQ(proxy->release("http://s.example/img/a.jpg"), 1u);
  });
  sim.run();
  EXPECT_EQ(completes, 1);  // served once; the watchdog never fired
  EXPECT_EQ(out->status, 200);
}

TEST_F(WatchdogFixture, UpstreamDeathMidBodyPropagatesOnce) {
  build({});
  // The upstream dies mid-body on every response.
  fault::FaultPlan plan;
  plan.origin.abrupt_close_rate = 1.0;
  fault::FaultyFetcher flaky(sim, &*origin, plan);
  MitmProxy dying_proxy(sim, &flaky, &*client_link);
  int completes = 0;
  std::optional<FetchResult> out;
  FetchCallbacks cbs;
  cbs.on_complete = [&](const FetchResult& r) {
    ++completes;
    out = r;
  };
  dying_proxy.fetch(HttpRequest::get("http://s.example/img/a.jpg"), std::move(cbs));
  sim.run();
  EXPECT_EQ(completes, 1);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->status, 502);  // upstream died; the proxy cannot finish
  EXPECT_NE(out->status, 200);
  EXPECT_FALSE(out->blocked);
  EXPECT_LT(out->body_size, 30'000);
}

// ---------- Graceful degradation hooks ----------

TEST(Degradation, HysteresisEntersAndExitsOnStreaks) {
  fault::DegradationParams p;
  p.enter_after = 2;
  p.exit_after = 3;
  fault::DegradationState state("test.hysteresis", p);
  EXPECT_FALSE(state.degraded());
  EXPECT_FALSE(state.observe_bad());
  EXPECT_TRUE(state.observe_bad());  // second consecutive bad flips
  EXPECT_TRUE(state.degraded());
  state.observe_good();
  state.observe_good();
  EXPECT_TRUE(state.degraded());      // still degraded at streak 2
  EXPECT_TRUE(state.observe_good());  // third consecutive good exits
  EXPECT_FALSE(state.degraded());
  EXPECT_EQ(state.entries(), 1u);
  EXPECT_EQ(state.exits(), 1u);
}

TEST(Degradation, BadObservationResetsGoodStreak) {
  fault::DegradationParams p;
  p.enter_after = 1;
  p.exit_after = 2;
  fault::DegradationState state("test.streak-reset", p);
  state.observe_bad();
  ASSERT_TRUE(state.degraded());
  state.observe_good();
  state.observe_bad();   // interrupts the recovery
  state.observe_good();  // streak back to 1
  EXPECT_TRUE(state.degraded());
  state.observe_good();
  EXPECT_FALSE(state.degraded());
}

TEST(Degradation, ForceOverridesStreaks) {
  fault::DegradationState state("test.force");
  EXPECT_TRUE(state.force(true));
  EXPECT_TRUE(state.degraded());
  EXPECT_FALSE(state.force(true));  // no change
  EXPECT_TRUE(state.force(false));
  EXPECT_FALSE(state.degraded());
}

TEST(Degradation, SessionDegradeAfterNaMarksSurvivalSegments) {
  VideoAsset::Params vp;
  vp.name = "v";
  vp.duration_s = 12;
  VideoAsset video(vp);
  ViewportTrace::Params tp;
  ViewportTrace trace(tp);
  // Plenty, then nothing for 6 s, then plenty again.
  std::vector<BytesPerSec> slots(12, 1'000'000);
  for (int s = 3; s < 9; ++s) slots[static_cast<std::size_t>(s)] = 0;
  BandwidthTrace bandwidth = BandwidthTrace::from_slots(slots, 1000);
  MfHttpTileScheduler scheduler;
  StreamingSessionParams params;
  params.carry_cap_s = 0;  // no buffer: the dead span stalls immediately
  params.degrade_after_na = 2;
  StreamingSessionResult r =
      run_streaming_session(video, trace, bandwidth, scheduler, params);
  int degraded = 0;
  for (const SegmentRecord& s : r.segments) degraded += s.degraded ? 1 : 0;
  EXPECT_GT(degraded, 0);  // survival mode engaged during the dead span

  params.degrade_after_na = 0;  // disabled: no segment is ever marked
  StreamingSessionResult off =
      run_streaming_session(video, trace, bandwidth, scheduler, params);
  for (const SegmentRecord& s : off.segments) EXPECT_FALSE(s.degraded);
}

// ---------- Acceptance: lossy-cellular sessions survive; stacks without
// ---------- resilience strand deferred requests ----------

struct AcceptanceFixture : public ::testing::Test {
  void SetUp() override {
    const DeviceProfile device = DeviceProfile::nexus6();
    Rng rng(42);
    for (const SiteSpec& spec : alexa25_specs()) {
      Rng r = rng.fork();
      if (spec.name == "sohu") page = generate_page(spec, device, r);
    }
  }

  WebPage page;
};

TEST_F(AcceptanceFixture, ResilientSessionLeavesNothingStranded) {
  fault::FaultPlan plan = fault::FaultPlan::lossy_cellular();
  BrowsingSessionConfig config;
  config.fault_plan = &plan;
  config.enable_resilience = true;
  config.fill_sample_ms = 0;
  BrowsingSessionResult r = run_browsing_session(page, config);
  EXPECT_EQ(r.stranded_deferred, 0u);
  EXPECT_GT(r.initial_viewport_load_ms, 0);  // the session did make progress
}

TEST_F(AcceptanceFixture, UnprotectedSessionStrandsDeferredRequests) {
  fault::FaultPlan plan = fault::FaultPlan::lossy_cellular();
  BrowsingSessionConfig config;
  config.fault_plan = &plan;
  config.enable_resilience = false;
  config.fill_sample_ms = 0;
  BrowsingSessionResult r = run_browsing_session(page, config);
  EXPECT_GT(r.stranded_deferred, 0u);
}

TEST_F(AcceptanceFixture, BaselineArmCompletesEveryImageUnderFaults) {
  fault::FaultPlan plan = fault::FaultPlan::lossy_cellular();
  BrowsingSessionConfig config;
  config.enable_mfhttp = false;  // no deferrals: pure retry/breaker coverage
  config.fault_plan = &plan;
  config.enable_resilience = true;
  config.fill_sample_ms = 0;
  BrowsingSessionResult r = run_browsing_session(page, config);
  EXPECT_EQ(r.images_completed, r.images_total);
  EXPECT_EQ(r.stranded_deferred, 0u);
}

}  // namespace
}  // namespace mfhttp
